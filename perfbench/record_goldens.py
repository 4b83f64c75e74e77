"""Record the golden stdout digests of the workloads' first passes at the shipped seeds.

    python3 perfbench/record_goldens.py

Run from the root of a checkout whose CLI output is the reference. It covers
passes 0..GOLDEN_PASSES-1 of every workload at GOLDEN_SEEDS (workloads.py).
The table is the correctness gate for every later change: regenerating it to
absorb a changed output byte defeats it. Every command must pass the
fallback checks (exit code, row count, PASS line) before its digest is
recorded.
"""

from __future__ import annotations

import json
import os
import sys

import benchenv

os.environ.update(benchenv.child_env(benchenv.nproc()))  # before numpy loads BLAS

import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402


def main() -> int:
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.ROOT / "src"))
    from uur import cli

    table = {}
    for workload in workloads.WORKLOADS:
        for seed in workloads.GOLDEN_SEEDS:
            for pass_index in range(workloads.GOLDEN_PASSES):
                commands = workloads.make_pass(workload, seed, pass_index,
                                               f"{run.WORK}/inputs", {})
                digests = []
                for cmd in commands:
                    rc, out, err = worker.run_command(cli, cmd["argv"])
                    problems = worker.check(cmd, rc, out)
                    if problems:
                        print(f"error: {cmd['key']}: {problems} {err}", file=sys.stderr)
                        return 1
                    digests.append(workloads.digest(out))
                key = workloads.pass_key(workload, seed, pass_index,
                                         [c["key"] for c in commands])
                table[key] = digests
            print(f"{workload} seed {seed}: {len(table)} passes", file=sys.stderr)
    entries = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(table.items()))
    workloads.GOLDENS.write_text(f"{{\n{entries}\n}}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
