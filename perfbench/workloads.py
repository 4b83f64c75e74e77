"""Seeded inputs for the benchmark workloads.

A workload is a stream of "passes", each a list of `uur` command lines of
fixed shapes. The benchmark seed and the pass index pick every free choice
in a pass: theta sub-ranges, output formats, `check` seeds and the JSON
problem files for `bounds --input`. No pass repeats another, so a memo that
outlives one command cannot make later passes cheaper than a fresh CLI call
would be. The same seed and pass index always give the same commands and
byte-identical files, so the program under test sees only these generated
inputs.

Why each workload exists:

- split_search: ex1 at dimension 16, where the exact subset search in
  `bounds.best_split_bound` is nearly all of the time. It exercises the
  search and its repeats inside `bound_report`, and barely touches input
  validation.
- small_multi: ex2..ex6 at their default dimensions (n = 2..4, including the
  three-operator ex5/ex6 and the purified ex4), plus `bounds --input` on
  pure, density and Bloch problem files in both formats. Per-row delta
  vectors, unitarity checks and CLI decoding/formatting dominate; the
  subset search is a minority, so a faster split kernel should not move it.
- selfcheck: `uur check`, thousands of small independent per-m searches,
  Gram and variance calls plus random sampling. It catches a change that
  speeds up one large report but slows small-n calls.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("split_search", "small_multi", "selfcheck")

# goldens.json holds the stdout digests of passes 0..GOLDEN_PASSES-1 at
# these seeds (record_goldens.py); other passes and seeds fall back to the
# exit code, row count and PASS checks.
GOLDEN_SEEDS = range(32)
GOLDEN_PASSES = 8
GOLDENS = Path(__file__).resolve().parent / "goldens.json"

# Work per pass. FULL is what the benchmark measures; TOY keeps the same
# command shapes at a size the benchmark's own tests can run in seconds.
FULL = {"split_dim": 16, "split_cmds": 6, "split_steps": 2,
        "multi_steps": 80, "check_cmds": 8, "check_trials": 15}
TOY = {"split_dim": 8, "split_cmds": 1, "split_steps": 2,
       "multi_steps": 3, "check_cmds": 1, "check_trials": 2}

# Theta ranges of the built-in examples (scenarios.Scenario.theta_range).
EXAMPLE_RANGES = {"ex1": (0.0, math.pi), "ex2": (0.0, math.pi), "ex3": (0.0, math.pi),
                  "ex4": (0.0, 2 * math.pi), "ex5": (0.0, 2 * math.pi),
                  "ex6": (0.0, 2 * math.pi)}

# (state kind, dimension, --format) of the `bounds --input` problem files.
INPUT_FILES = (("pure", 4, "json"), ("pure", 5, "csv"),
               ("density", 2, "json"), ("density", 3, "csv"),
               ("bloch", 2, "json"), ("bloch", 2, "csv"))


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what a correct run of it must produce.

    units is the work it completes: rows for sweep/compare, 1 for a bounds
    report, the requested trials for check. key names the command in the
    golden-digest table and in pass_key(); it is the argv plus a digest of
    any input file.
    """

    argv: tuple[str, ...]
    kind: str
    units: int
    key: str


def _theta_range(rng: random.Random, example: str) -> tuple[str, str]:
    a, b = EXAMPLE_RANGES[example]
    lo, hi = sorted(round(rng.uniform(a, b), 6) for _ in range(2))
    return f"{lo:.6f}", f"{hi:.6f}"


def _sweep(rng: random.Random, command: str, example: str, steps: int,
           dim: int | None = None) -> Command:
    lo, hi = _theta_range(rng, example)
    argv = [command, "--example", example]
    if dim is not None:
        argv += ["--dim", str(dim)]
    argv += ["--theta-min", lo, "--theta-max", hi, "--steps", str(steps),
             "--format", rng.choice(("csv", "json"))]
    return Command(argv=tuple(argv), kind="rows", units=steps, key=" ".join(argv))


def _random_unitary(gen: np.random.Generator, n: int) -> np.ndarray:
    Z = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diag(R)
    return Q * (d / np.abs(d))


def _encode_matrix(M: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def _problem(gen: np.random.Generator, rng: random.Random, kind: str, dim: int) -> dict:
    n_ops = rng.choice((2, 3))
    ops = [{"name": "ABC"[k], "matrix": _encode_matrix(_random_unitary(gen, dim))}
           for k in range(n_ops)]
    if kind == "pure":
        v = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
        v = v / np.linalg.norm(v)
        state = {"pure": [[float(z.real), float(z.imag)] for z in v]}
        working = dim
    elif kind == "density":
        Z = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
        M = Z @ Z.conj().T
        state = {"density": _encode_matrix(M / np.real(np.trace(M)))}
        working = dim * dim
    else:
        r = gen.standard_normal(3)
        r = r / np.linalg.norm(r) * gen.uniform(0.1, 0.95)
        state = {"bloch": [float(t) for t in r]}
        working = dim * dim
    params = {"m": rng.randint(1, max(1, working // 2)), "v": round(rng.random(), 6),
              "flavor": rng.choice(("plain", "convex", "tilde"))}
    return {"dimension": dim, "operators": ops, "state": state, "params": params}


def build(workload: str, seed: int, pass_index: int, workdir: str,
          scale: dict = FULL) -> list[Command]:
    """Commands of pass `pass_index` of `workload` for `seed`.

    Problem files are written under `workdir`, a path relative to the
    directory the commands run in; the path is part of the CLI output
    (the `source` field), so it is part of each command's golden key.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    if workload == "split_search":
        return [_sweep(rng, "sweep", "ex1", scale["split_steps"], dim=scale["split_dim"])
                for _ in range(scale["split_cmds"])]
    if workload == "selfcheck":
        cmds = []
        for _ in range(scale["check_cmds"]):
            argv = ("check", "--seed", str(rng.randrange(2 ** 31)),
                    "--trials", str(scale["check_trials"]))
            cmds.append(Command(argv=argv, kind="check", units=scale["check_trials"],
                                key=" ".join(argv)))
        return cmds
    cmds = []
    for example in ("ex2", "ex3", "ex4", "ex5", "ex6"):
        for command in ("sweep", "compare"):
            cmds.append(_sweep(rng, command, example, scale["multi_steps"]))
    Path(workdir).mkdir(parents=True, exist_ok=True)
    for index, (kind, dim, fmt) in enumerate(INPUT_FILES):
        gen = np.random.default_rng([seed, pass_index, index])
        text = json.dumps(_problem(gen, rng, kind, dim), sort_keys=True) + "\n"
        path = f"{workdir}/{workload}-{seed}-{pass_index}-{index}.json"
        Path(path).write_text(text, encoding="utf-8")
        argv = ("bounds", "--input", path, "--format", fmt)
        cmds.append(Command(argv=argv, kind="report", units=1,
                            key=f"{' '.join(argv)} @{digest(text)}"))
    return cmds


def digest(text: str) -> str:
    """The first 16 hex digits of the SHA-256 of `text`: a command's golden
    stdout digest, and the digest of an input file in a command's key."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def pass_key(workload: str, seed: int, pass_index: int, keys: list[str]) -> str:
    """Key of a pass in goldens.json. It ends with a digest of the keys of
    the pass's commands, so a change to the generated inputs finds no entry
    and falls back to the other checks instead of failing."""
    inputs = digest("\n".join(keys))
    return f"{workload} {seed} {pass_index} @{inputs}"


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


def make_pass(workload: str, seed: int, pass_index: int, workdir: str, goldens: dict,
              scale: dict = FULL) -> list[dict]:
    """Pass `pass_index` as dicts, each with its golden digest or None."""
    commands = build(workload, seed, pass_index, workdir, scale)
    key = pass_key(workload, seed, pass_index, [c.key for c in commands])
    stdout = goldens.get(key) or [None] * len(commands)
    return [dict(asdict(c), golden=g) for c, g in zip(commands, stdout)]
