"""Command-line front end: bound reports, sweeps, comparisons, self-checks.

Commands
    bounds   one report at a single angle (or for the state in a JSON file)
    sweep    one row per angle across a built-in example's sweep range
    compare  difference columns between the blended split bound and the rest
    check    the seeded randomized invariant suites

Exit codes: 0 ok, 1 invariant violation, 2 input error, 3 search cap or memory.
Every `main` call in a process parses with one argument parser, built on the
first call and never mutated; it holds no input and no result. The parser is
the one list of a command's flags and of their defaults: each `run_*` takes
its namespace as the command's whole input.
Output is deterministic byte for byte for a fixed configuration; floats are
printed with 17 significant digits so CSV round-trips are exact.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import bounds, moments, scenarios, selfcheck
from .bounds import DEFAULT_CAP, DEFAULT_V, SLACK
from .errors import SearchSpaceTooLarge, UurError
from .moments import DensityMatrix, PureState

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
_BLOCK = 64  # angles per stacked delta-vector pass (check's block size): the stacks do not grow with --steps


class _Violation(Exception):
    """An emitted row fails its own chain invariants, or `check`'s own draws fail a check."""


# A command's input is the parser's namespace; the name stays for callers that build one.
RunConfig = argparse.Namespace


@dataclass
class Problem:
    """A scenario, its operators checked once, and the resolved parameters."""

    scenario: scenarios.Scenario
    operators: list[moments.Unitary]
    m: int
    v: float
    cap: int
    flavor: str


def _number(value, name: str, integer: bool = False):
    """A JSON number; where an integer is due, 2.0 passes and 2.5 does not."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or integer and isinstance(value, float) and not value.is_integer()):
        raise UurError(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
    return int(value) if integer else float(value)


def _complex_list(obj, what: str) -> list[complex]:
    """A list of [re, im] pairs; each part is a number by _number's rule."""
    if not isinstance(obj, list) or not all(isinstance(c, list) and len(c) == 2 for c in obj):
        raise UurError(f"{what} must be [re, im] pairs")
    return [complex(_number(re, f"{what}: real part"), _number(im, f"{what}: imaginary part"))
            for re, im in obj]


def _decode_complex_matrix(obj, label: str) -> np.ndarray:
    if not isinstance(obj, list):
        raise UurError(f"{label}: matrix must be a list of rows")
    rows = [_complex_list(row, f"{label}: matrix entries") for row in obj]
    if len({len(row) for row in rows}) > 1:
        raise UurError(f"{label}: matrix rows differ in length {[len(r) for r in rows]}")
    M = np.array(rows)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise UurError(f"{label}: matrix must be square, got shape {M.shape}")
    return M


def _decode_state(obj, dim: int):
    """The file's state: a checked PureState, or a density's eig stack of one (DensityMatrix.stack's)."""
    if not isinstance(obj, dict) or len(obj) != 1:
        raise UurError('state must be one of {"pure": ...}, {"density": ...}, {"bloch": ...}')
    kind, payload = next(iter(obj.items()))
    if kind == "pure":
        amps = np.array(_complex_list(payload, "pure state amplitudes"))
        if amps.size != dim:
            raise UurError(f"pure state has {amps.size} amplitudes, dimension says {dim}")
        return PureState(amplitudes=amps)
    if kind == "density":
        M = _decode_complex_matrix(payload, "density matrix")
        if M.shape[0] != dim:
            raise UurError(f"density matrix is {M.shape[0]}x{M.shape[0]}, dimension says {dim}")
        return DensityMatrix.stack(M[None])
    if kind == "bloch":
        if dim != 2:
            raise UurError("bloch states require dimension 2")
        if not isinstance(payload, list):
            raise UurError("bloch vector must be a list of three numbers")
        rho = moments.bloch_density([_number(t, "bloch component") for t in payload])
        return [a[None] for a in rho.eig]
    raise UurError(f"unknown state kind {kind!r}")


def _read_input_file(path: str) -> tuple[object, scenarios.Scenario]:
    """A problem file's raw "params", and its problem as a Scenario whose state repeats the file's one
    checked state for every angle."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:  # the decoder recurses once per level of nesting
            raise UurError("input file nests too deeply to decode") from None
    if not isinstance(doc, dict) or "dimension" not in doc:
        raise UurError('input file needs a top-level "dimension" field')
    dim = _number(doc["dimension"], "dimension", integer=True)
    entries = doc.get("operators", [])
    if not isinstance(entries, list):
        raise UurError('"operators" must be a list')
    named = []
    for entry in entries:
        if not isinstance(entry, dict) or "name" not in entry or "matrix" not in entry:
            raise UurError('each operator must be an object with "name" and "matrix"')
        name = str(entry["name"])
        named.append((name, _decode_complex_matrix(entry["matrix"], f"operator {name!r}")))
    if not 2 <= len(named) <= 3:
        raise UurError(f"need 2 or 3 operators, got {len(named)}")
    for name, M in named:
        if M.shape[0] != dim:
            raise UurError(f"operator {name!r} is {M.shape[0]}x{M.shape[0]}, dimension says {dim}")
    psi, notes = _decode_state(doc.get("state"), dim), ()
    if not isinstance(psi, PureState):
        # Mixed inputs go through purification; operators act on the doubled
        # space as I (x) U, exactly like the built-in qubit example.
        psi = PureState(moments.purify(psi)[0])
        named = [(name, moments.lift(M)) for name, M in named]
        notes = ("mixed state purified; operators lifted to the doubled space",)
    return doc.get("params", {}), scenarios.Scenario(
        id=path, dimension=psi.dim, operators=tuple(named),
        state=lambda T: np.repeat(psi.amplitudes[None], len(T), axis=0),
        default_m=max(1, psi.dim // 2), theta_range=(0.0, 0.0), notes=notes)


def _load_problem(cfg: argparse.Namespace) -> Problem:
    """Load --example or --input; m, v, cap and flavor: flag, then file "params", then default."""
    if cfg.input_path is not None:
        if cfg.dim is not None:
            raise UurError('--dim applies to --example only; a problem file sets its "dimension"')
        params, scen = _read_input_file(cfg.input_path)
    else:
        params, scen = {}, scenarios.scenario(cfg.example, cfg.dim)
    # Checked here, once per command; every row reuses the checked operators.
    operators = [moments.Unitary(M, f"operator {name!r}") for name, M in scen.operators]
    if not isinstance(params, dict):
        raise UurError('"params" must be an object')

    def pick(flag, key, default):
        return flag if flag is not None else params.get(key, default)

    flavor = pick(cfg.flavor, "flavor", "plain")
    if flavor not in bounds.FLAVORS:
        raise UurError(f"unknown flavor {flavor!r}; expected one of {', '.join(bounds.FLAVORS)}")
    cap = _number(pick(cfg.cap, "cap", DEFAULT_CAP), "params: cap", integer=True)
    if cap < 1:  # no block fits: an input error, not a search too large
        raise UurError(f"cap must be >= 1, got {cap}")
    return Problem(scenario=scen, operators=operators, flavor=flavor,
                   m=_number(pick(cfg.m, "m", scen.default_m), "params: m", integer=True),
                   v=_number(pick(cfg.v, "v", DEFAULT_V), "params: v"), cap=cap)


def _triple_fields(deltas: list[moments.DeltaVector], means: dict[str, float]) -> dict:
    vals = {
        "variance_triple": math.prod(d.variance for d in deltas),
        "bong3": bounds.triple_correlation_bound(*deltas),
    }
    vals.update((key, means[flavor]) for flavor, key in FLAVOR_FIELDS.items())
    for key in TRIPLE_COLUMNS[1:]:
        if vals[key] > vals["variance_triple"] + SLACK:
            raise _Violation(f"{key} exceeds variance_triple by "
                             f"{vals[key] - vals['variance_triple']:.3e}")
    return vals


def _report_rows(problem: Problem, grid: list[float]):
    """(report, row) per angle of grid. Per block of _BLOCK angles one scenario.state call builds and checks
    the block's amplitude stack, one delta_stack per operator forms every row's delta vectors, and one
    bound_reports call on those moduli stacks gives the block's reports, broken rows and geometric means."""
    for lo in range(0, len(grid), _BLOCK):
        thetas = grid[lo:lo + _BLOCK]
        P = problem.scenario.state(thetas)  # C order
        stacks = [moments.delta_stack(U.matrix[None], P) for U in problem.operators]
        reports, broken, means = bounds.bound_reports([mod for *_, mod in stacks], problem.m, problem.v, problem.cap)
        for r, (theta, report) in enumerate(zip(thetas, reports)):
            if r in broken:
                raise _Violation(f"chain invariants failed at theta={theta!r}: " + "; ".join(report.validate()))
            row = {"theta": theta, **vars(report), "i_2": report.i_d[1]}
            if means:
                deltas = [moments.DeltaVector(entries[r], complex(mean[r])) for entries, mean, _ in stacks]
                row.update(_triple_fields(deltas, means[r]))
            yield report, row


def _emit(cfg: argparse.Namespace, text: str):
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _rows_to_csv(columns: list[str], rows: list[dict]) -> str:
    body = "".join(",".join(_csv_cell(row[c]) for c in columns) + "\n" for row in rows)
    return ",".join(columns) + "\n" + body


def _emit_rows(cfg: argparse.Namespace, columns: list[str], rows: list[dict]):
    if cfg.format == "csv":
        _emit(cfg, _rows_to_csv(columns, rows))
    else:
        _emit(cfg, json.dumps([{c: r[c] for c in columns} for r in rows], indent=2) + "\n")


def run_bounds(cfg: argparse.Namespace) -> int:
    problem = _load_problem(cfg)
    theta = cfg.theta_min if cfg.theta_min is not None else problem.scenario.theta_range[0]
    report, row = next(_report_rows(problem, [theta]))
    # BoundSet's fields in declaration order; a key given again keeps its first position.
    out = {"command": "bounds", "source": problem.scenario.id,
           "dimension": problem.scenario.dimension, "theta": theta, **vars(report),
           "k_tilde_argmax": {"m": len(report.k_tilde_argmax), "indices": list(report.k_tilde_argmax)},
           "notes": list(problem.scenario.notes)}
    if len(problem.operators) == 3:
        out["triple"] = {**{k: row[k] for k in TRIPLE_COLUMNS},
                         "geometric_mean_flavor": problem.flavor,
                         "geometric_mean": row[FLAVOR_FIELDS[problem.flavor]]}
    if cfg.format == "json":
        _emit(cfg, json.dumps(out, indent=2) + "\n")
    else:
        flat = {k: val for k, val in out.items() if k not in ("k_tilde_argmax", "notes", "triple")}
        flat["k_tilde_argmax_m"] = len(report.k_tilde_argmax)
        flat["k_tilde_argmax"] = ";".join(str(i) for i in report.k_tilde_argmax)
        flat.update((f"i_{lev}", val) for lev, val in enumerate(flat.pop("i_d"), start=1))
        if "triple" in out:
            flat.update((key, row[key]) for key in TRIPLE_COLUMNS)
        _emit(cfg, _rows_to_csv(list(flat), [flat]))
    return EXIT_OK


SWEEP_COLUMNS = ["theta", "variance_product", "lb", "k_m", "k_m_v", "k_tilde",
                 "i_2", "i_1_prime"]
TRIPLE_COLUMNS = ["variance_triple", "bong3", "prod_k", "prod_k_v", "prod_k_tilde"]
FLAVOR_FIELDS = {"plain": "prod_k", "convex": "prod_k_v", "tilde": "prod_k_tilde"}


def _sweep_rows(cfg: argparse.Namespace) -> tuple[Problem, list[dict]]:
    """One report row per angle of the example's theta grid; a flag overrides its end."""
    problem = _load_problem(cfg)
    lo, hi = problem.scenario.theta_range
    grid = scenarios.theta_grid(lo if cfg.theta_min is None else cfg.theta_min,
                                hi if cfg.theta_max is None else cfg.theta_max, cfg.steps)
    return problem, [row for _, row in _report_rows(problem, grid)]


def run_sweep(cfg: argparse.Namespace) -> int:
    problem, rows = _sweep_rows(cfg)
    columns = SWEEP_COLUMNS + (TRIPLE_COLUMNS if len(problem.operators) == 3 else [])
    _emit_rows(cfg, columns, rows)
    return EXIT_OK


def run_compare(cfg: argparse.Namespace) -> int:
    problem, rows = _sweep_rows(cfg)
    out_rows = []
    for row in rows:
        diff = {
            "theta": row["theta"],
            "k_m_v_minus_lb": row["k_m_v"] - row["lb"],
            "k_m_v_minus_i_2": row["k_m_v"] - row["i_2"],
            "k_m_v_minus_i_1_prime": (None if row["i_1_prime"] is None
                                      else row["k_m_v"] - row["i_1_prime"]),
        }
        if len(problem.operators) == 3:
            diff["prod_k_v_minus_bong3"] = row["prod_k_v"] - row["bong3"]
        out_rows.append(diff)
    _emit_rows(cfg, list(out_rows[0]), out_rows)
    return EXIT_OK


def run_check(cfg: argparse.Namespace) -> int:
    if cfg.trials < 1:
        raise UurError(f"trials must be >= 1, got {cfg.trials}")
    if not 0 <= cfg.seed < 2 ** 128:  # a Philox key
        raise UurError(f"seed must be in 0..2**128 - 1, got {cfg.seed}")
    try:
        results = selfcheck.run_all(cfg.seed, cfg.trials)
    except UurError as exc:
        raise _Violation(exc) from exc
    lines = [f"check seed={cfg.seed} trials={cfg.trials}"]
    failed = [r for r in results if r.failures]
    lines += [f"suite {r.name}: trials={r.trials} failures={r.failures} worst={r.worst:.3e}"
              for r in results]
    lines += ["counterexample: " + json.dumps(r.counterexample, sort_keys=True) for r in failed]
    lines.append("result: PASS" if not failed else
                 f"result: FAIL ({len(failed)} of {len(results)} suites)")
    _emit(cfg, "\n".join(lines) + "\n")
    return EXIT_OK if not failed else EXIT_VIOLATION


def _angle(text: str) -> float:
    try:
        value = float(text)
    except ValueError:  # argparse's own wording for a non-number
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"angle must be finite, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one `uur` parser of a process, never mutated; argparse reads COLUMNS
    and the output streams when it prints help or an error, not here."""
    parser = argparse.ArgumentParser(
        prog="uur",
        description="Variance lower bounds for unitary operator pairs and triples.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary in (
        ("bounds", "single bound report (evaluated at --theta-min for examples)"),
        ("sweep", "per-angle bound table over an example's sweep range"),
        ("compare", "per-angle differences between the blended split bound and the others"),
    ):
        p = sub.add_parser(name, help=summary)
        source = p.add_mutually_exclusive_group(required=True)  # exactly one source
        if name == "bounds":  # a file holds one state, not a theta family
            source.add_argument("--input", dest="input_path", metavar="PATH",
                                help="JSON problem file (see README for the schema)")
        source.add_argument("--example", choices=sorted(scenarios.DEFAULT_DIMS),
                            help="built-in example id")
        p.add_argument("--dim", type=int, help="dimension for ex1/ex2 (others are fixed)")
        p.add_argument("--theta-min", type=_angle, dest="theta_min")
        if name == "bounds":  # one angle; a triple's JSON names the --flavor geometric mean
            p.add_argument("--flavor", choices=bounds.FLAVORS,
                           help="prod_* column a triple's JSON repeats as geometric_mean "
                                "(default plain); CSV output and operator pairs ignore it")
        else:  # a theta family; every flavor has its own column
            p.add_argument("--theta-max", type=_angle, dest="theta_max")
            p.add_argument("--steps", type=int, default=scenarios.DEFAULT_STEPS)
            p.set_defaults(input_path=None, flavor=None)  # _load_problem reads both
        p.add_argument("--m", type=int, help="block size (default: the example's own" + (
            ", or half a file's working dimension)" if name == "bounds" else ")"))
        p.add_argument("--v", type=float, help=f"blend weight in [0, 1] (default {DEFAULT_V})")
        p.add_argument("--cap", type=int, help=f"subset search cap (default {DEFAULT_CAP})")
        p.add_argument("--output", metavar="PATH", help="write here instead of stdout")
        p.add_argument("--format", choices=("csv", "json"),
                       default="json" if name == "bounds" else "csv")
    p = sub.add_parser("check", help="seeded randomized invariant suites")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--output", metavar="PATH", help="write here instead of stdout")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's exit: 2 after a usage error, 0 after --help
        return exc.code
    dispatch = {"bounds": run_bounds, "sweep": run_sweep,
                "compare": run_compare, "check": run_check}
    try:
        return dispatch[args.command](args)
    except (SearchSpaceTooLarge, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except _Violation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (OSError, ValueError, OverflowError) as exc:  # UurError, JSONDecodeError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
