from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uur import bounds, cli, errors, linalg, moments, sampling, scenarios

from oracles import modulus_pair, run_suite, state_at
from test_golden import CORPUS


def run(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bounds_json_output_satisfies_chain(capsys):
    code, out, err = run(["bounds", "--example", "ex1", "--dim", "3",
                          "--theta-min", "1.0", "--m", "1", "--v", "0.1"], capsys)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["dimension"] == 3
    assert doc["lb"] <= doc["k_m"] + 1e-10
    assert doc["k_m"] <= doc["k_m_v"] + 1e-10
    assert doc["k_m_v"] <= doc["variance_product"] + 1e-10
    assert doc["k_tilde"] <= doc["variance_product"] + 1e-10
    assert len(doc["i_d"]) == 3


def test_bounds_json_prints_boundset_fields_in_declaration_order(capsys):
    # The report's keys come from the dataclass itself; reordering its fields
    # reorders the JSON, and this test names that rather than a golden digest.
    code, out, err = run(["bounds", "--example", "ex5", "--format", "json"], capsys)
    assert code == 0, err
    keys = list(json.loads(out))
    middle = keys[keys.index("theta") + 1:keys.index("notes")]
    assert middle == [f.name for f in dataclasses.fields(bounds.BoundSet)]


def test_bounds_ex1_d2_all_bounds_coincide(capsys):
    code, out, _ = run(["bounds", "--example", "ex1", "--dim", "2",
                        "--theta-min", "0.7"], capsys)
    assert code == 0
    doc = json.loads(out)
    vals = [doc["variance_product"], doc["lb"], doc["k_m"], doc["k_m_v"],
            doc["k_tilde_m"], doc["k_tilde"], *doc["i_d"]]
    assert max(vals) - min(vals) < 1e-10


@pytest.mark.parametrize("example", ["ex3", "ex6"])
def test_m_defaults_to_the_example_block_size(capsys, example):
    # ex3 and ex6 act on n = 3 but default to m = 2, not half the dimension.
    code, out, err = run(["bounds", "--example", example], capsys)
    assert code == 0, err
    doc = json.loads(out)
    assert (doc["dimension"], doc["m"]) == (3, 2)
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    for name in ("bounds", "sweep", "compare"):
        m_help = next(a.help for a in commands[name]._actions if a.dest == "m")
        assert "the example's own" in m_help and "half the dimension" not in m_help


def test_flavor_changes_only_the_json_geometric_mean(capsys):
    # Every flavor has its own prod_* column; --flavor picks the one JSON repeats.
    def outputs(argv):
        return {flavor: run(argv + ["--flavor", flavor], capsys)[1] for flavor in bounds.FLAVORS}

    csv = outputs(["bounds", "--example", "ex6", "--format", "csv"])
    assert len(set(csv.values())) == 1
    assert {"prod_k", "prod_k_v", "prod_k_tilde"} <= set(csv["plain"].split("\n", 1)[0].split(","))
    assert "geometric_mean" not in csv["plain"]
    for flavor, out in outputs(["bounds", "--example", "ex6", "--format", "json"]).items():
        triple = json.loads(out)["triple"]
        assert triple["geometric_mean_flavor"] == flavor
        assert triple["geometric_mean"] == triple[cli.FLAVOR_FIELDS[flavor]]
    for fmt in ("csv", "json"):  # an operator pair has no geometric mean at all
        assert len(set(outputs(["bounds", "--example", "ex1", "--format", fmt]).values())) == 1


def usage_error(args, capsys) -> str:
    """The stderr of a command argparse refuses: exit 2 and empty stdout."""
    code = cli.main(args)
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    return out.err


# The corpus lines of `uur [COMMAND] --help` and of the usage errors; argparse
# wraps both to COLUMNS, and the help digests come from Python 3.11's argparse.
HELP = [argv for argv in CORPUS if argv.endswith("--help")]
USAGE_ERRORS = [argv for argv, (_, _, err) in CORPUS.items() if err.startswith("usage: ")]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv", HELP)
def test_help_bytes_are_pinned(run_line, argv):
    assert run_line(argv) == CORPUS[argv]


@pytest.mark.parametrize("argv", USAGE_ERRORS)
def test_usage_error_bytes_are_pinned(run_line, argv):
    assert run_line(argv) == CORPUS[argv]


@pytest.mark.parametrize("argv", ["--help", "check --cap 1", "bounds --example ex5 --flavor tilde",
                                  "compare --example ex9"])
def test_python_m_uur_cli_exits_with_the_code_main_returns(argv):
    # main returns argparse's exit code, or its own after a command ran; the
    # module's sys.exit(main()) passes it on, and a report prints its pinned bytes.
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "uur.cli", *argv.split()], capture_output=True,
                          text=True, env={**os.environ, "COLUMNS": "80", "PYTHONPATH": str(src)})
    assert (proc.returncode, sha256(proc.stdout), proc.stderr) == CORPUS[argv]


# One parser serves every cli.main call in a process. These tests hold for a
# parser built on first use or at import alike.
def test_main_builds_parsers_only_in_its_first_call(capsys, monkeypatch):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    counts = []
    for argv in ("bounds --example ex1", "sweep --example ex5 --steps 2", "check --trials 1"):
        before = len(built)
        assert run(argv.split(), capsys)[0] == 0
        counts.append(len(built) - before)
    assert counts[1:] == [0, 0]


def test_a_flag_does_not_carry_into_the_next_command(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run_bounds", lambda cfg: seen.append(cfg) or 0)
    assert cli.main(["bounds", "--example", "ex1", "--m", "3"]) == 0
    assert cli.main(["bounds", "--example", "ex1"]) == 0
    assert seen[0].m == 3
    assert seen[1] == cli.build_parser().parse_args(["bounds", "--example", "ex1"])


def test_a_usage_error_leaves_the_next_command_unchanged(capsys, run_line):
    usage_error(["bounds"], capsys)
    assert run_line("bounds --example ex1 --dim 12") == CORPUS["bounds --example ex1 --dim 12"]


def parser_snapshot() -> list:
    """Each parser's help at 80 columns, its set_defaults, and its actions' settings."""
    root = cli.build_parser()
    commands = next(a for a in root._actions if a.dest == "command").choices
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("COLUMNS", "80")
        return [(p.format_help(), dict(p._defaults),
                 [(a.dest, a.default, a.choices and list(a.choices), a.required)
                  for a in p._actions])
                for p in (root, *commands.values())]


def test_running_every_golden_command_leaves_the_parser_unchanged(run_line):
    before = parser_snapshot()
    for argv, pin in CORPUS.items():
        assert run_line(argv) == pin, argv
    assert parser_snapshot() == before


@pytest.mark.parametrize("argv", HELP)
def test_help_reads_the_width_at_each_render(capsys, monkeypatch, argv):
    # A narrow render first must not leave its width in the shared parser.
    renders = []
    for columns in ("40", "80"):
        monkeypatch.setenv("COLUMNS", columns)
        assert cli.main(argv.split()) == 0
        renders.append(capsys.readouterr().out)
    assert renders[0] != renders[1]
    assert sha256(renders[1]) == CORPUS[argv][1]


def test_missing_source_is_input_error(capsys):
    err = usage_error(["bounds"], capsys)
    assert "--input" in err and "--example" in err


def test_both_sources_is_input_error(tmp_path, capsys):
    path = tmp_path / "x.json"
    path.write_text("{}")
    err = usage_error(["bounds", "--example", "ex1", "--input", str(path)], capsys)
    assert "--input" in err and "--example" in err


def test_nonexistent_input_file(capsys):
    code, _, err = run(["bounds", "--input", "/nonexistent/file.json"], capsys)
    assert code == 2


def test_empty_input_path_names_the_missing_file(capsys):
    code, out, err = run(["bounds", "--input", ""], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: [Errno 2] No such file or directory: ''\n"


def test_non_unitary_operator_named_in_error(tmp_path, capsys):
    doc = {
        "dimension": 2,
        "operators": [
            {"name": "good", "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
            {"name": "bad", "matrix": [[[2, 0], [0, 0]], [[0, 0], [1, 0]]]},
        ],
        "state": {"pure": [[1, 0], [0, 0]]},
    }
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["bounds", "--input", str(path)], capsys)
    assert code == 2
    assert "bad" in err and "deviates from unitarity" in err


def test_search_cap_exit_code(capsys):
    # The cap is judged on the requested binomial(n, m), also for m > n/2,
    # whose values the report takes from the search at n - m.
    for m in (15, 20):
        code, _, err = run(["bounds", "--example", "ex1", "--dim", "30",
                            "--theta-min", "1.0", "--m", str(m)], capsys)
        assert code == 3
        assert "exceeds the cap" in err
        assert f"binomial(30, {m})" in err


def test_out_of_memory_is_resource_error(capsys):
    # The clock operator at n = 4e6 asks np.diag for 233 TiB, more than the
    # 2^47-byte user address space, so the request fails at once; building
    # its phases takes about 120 MB first.
    code, out, err = run(["bounds", "--example", "ex1", "--dim", "4000000"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_program_fault_is_not_reported_as_input_error(monkeypatch):
    # Only what input can raise exits 2; a KeyError from a fault propagates.
    def broken(problem, grid):
        raise KeyError("fault")

    monkeypatch.setattr(cli, "_report_rows", broken)
    with pytest.raises(KeyError):
        cli.main(["bounds", "--example", "ex1"])


def test_broken_row_chain_exits_1_with_no_stdout(capsys, monkeypatch):
    real = bounds.correlation_bound
    monkeypatch.setattr(bounds, "correlation_bound", lambda pair: real(pair) + 1.0)
    code, out, err = run(["sweep", "--example", "ex1", "--steps", "3"], capsys)
    assert (code, out) == (1, "")
    assert err == ("error: chain invariants failed at theta=0.0: "
                   "lb > k_m by 1.000e+00; i_n != lb by 1.000e+00\n")


def test_broken_triple_bound_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(bounds, "triple_correlation_bound", lambda *deltas: 5.0)
    code, out, err = run(["bounds", "--example", "ex6"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: bong3 exceeds variance_triple by 5.000e+00\n"


def test_overflowing_param_is_input_error(tmp_path, capsys):
    path = tmp_path / "prob.json"
    path.write_text(problem_text(2, params='{"v": %d}' % 10 ** 400), encoding="utf-8")
    code, out, err = run(["bounds", "--input", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_pure_json_input_round_trip(tmp_path, capsys):
    # Clock and shift in dimension 3, with the state from the first example.
    theta = 1.0
    amps = [[math.cos(theta), 0.0], [0.0, 0.0], [-math.sin(theta), 0.0]]
    clock = scenarios.clock_operator(3)
    shift = scenarios.shift_operator(3)
    enc = lambda M: [[[float(z.real), float(z.imag)] for z in row] for row in M]
    doc = {
        "dimension": 3,
        "operators": [{"name": "A", "matrix": enc(clock)},
                      {"name": "B", "matrix": enc(shift)}],
        "state": {"pure": amps},
        "params": {"m": 1, "v": 0.1},
    }
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["bounds", "--input", str(path)], capsys)
    assert code == 0, err
    got = json.loads(out)
    scen_code, scen_out, _ = run(["bounds", "--example", "ex1", "--dim", "3",
                                  "--theta-min", "1.0", "--m", "1", "--v", "0.1"],
                                 capsys)
    want = json.loads(scen_out)
    for key in ("variance_product", "lb", "k_m", "k_m_v", "k_tilde"):
        assert got[key] == pytest.approx(want[key], abs=1e-12)


def test_bloch_input_is_purified(tmp_path, capsys):
    doc = {
        "dimension": 2,
        "operators": [
            {"name": "Z", "matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]},
            {"name": "X", "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
        ],
        "state": {"bloch": [0.2, 0.3, 0.4]},
    }
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["bounds", "--input", str(path)], capsys)
    assert code == 0, err
    got = json.loads(out)
    assert got["dimension"] == 4
    assert any("purified" in n for n in got["notes"])
    rho = moments.bloch_density([0.2, 0.3, 0.4])
    sz = np.diag([1.0, -1.0]).astype(complex)
    expected_vp = (moments.variance_mixed(sz, rho) *
                   moments.variance_mixed(moments.sigma_x, rho))
    assert got["variance_product"] == pytest.approx(expected_vp, abs=1e-12)


def test_sweep_requires_example(tmp_path, capsys):
    doc = {
        "dimension": 2,
        "operators": [
            {"name": "Z", "matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]},
            {"name": "X", "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
        ],
        "state": {"pure": [[1, 0], [0, 0]]},
    }
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(doc))
    err = usage_error(["sweep", "--input", str(path)], capsys)
    assert "--example" in err


@pytest.mark.parametrize("command", ["sweep", "compare"])
def test_sweep_and_compare_require_example_line(tmp_path, capsys, command):
    # A file holds one state, not a theta family, so these commands take no
    # --input; given one beside --example, argparse names it.
    path = write_problem(tmp_path, 2)
    err = usage_error([command, "--input", str(path)], capsys)
    assert "--example" in err.splitlines()[-1]
    err = usage_error([command, "--example", "ex1", "--input", str(path)], capsys)
    assert err.splitlines()[-1] == f"uur: error: unrecognized arguments: --input {path}"


@pytest.mark.parametrize("argv", ["check --trials 5 --cap 1", "bounds --example ex1 --seed 3"])
def test_flag_a_command_does_not_read_is_rejected(capsys, argv):
    # check reads only --seed, --trials and --output; the problem commands
    # read every other flag and not these two.
    assert cli.main(argv.split()) == 2
    assert capsys.readouterr().out == ""


# A value for every flag of any command, and --corrupt, which none takes.
FLAG_VALUES = {"--input": "prob.json", "--example": "ex5", "--dim": "4", "--theta-min": "0.5",
               "--theta-max": "1", "--steps": "3", "--m": "1", "--v": "0.2", "--flavor": "tilde",
               "--cap": "10", "--output": "out.txt", "--format": "csv", "--seed": "3",
               "--trials": "2", "--corrupt": "1e-6"}
SWEEP_FLAGS = {"--example", "--dim", "--theta-min", "--theta-max", "--steps", "--m", "--v",
               "--cap", "--output", "--format"}
COMMAND_FLAGS = {
    "bounds": {"--input", "--example", "--dim", "--theta-min", "--m", "--v", "--flavor",
               "--cap", "--output", "--format"},
    "sweep": SWEEP_FLAGS,
    "compare": SWEEP_FLAGS,
    "check": {"--seed", "--trials", "--output"},
}
SOURCES = {"bounds": {"--input", "--example"}, "sweep": {"--example"},
           "compare": {"--example"}, "check": set()}


def test_commands_take_33_settable_values():
    # The table above is each command's whole surface, --help aside.
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    surface = {name: {a.option_strings[0] for a in p._actions if a.dest != "help"}
               for name, p in commands.items()}
    assert surface == COMMAND_FLAGS
    assert sum(len(flags) for flags in surface.values()) == 33


@pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_parser_takes_exactly_the_flags_a_command_reads(capsys, command, flag):
    args = [command, flag, FLAG_VALUES[flag]]
    if SOURCES[command] and flag not in SOURCES[command]:
        args += ["--example", "ex5"]
    if flag in COMMAND_FLAGS[command]:
        parsed = cli.build_parser().parse_args(args)
        assert cli.RunConfig(**vars(parsed)).command == command
    else:
        err = usage_error(args, capsys)
        assert err.splitlines()[-1] == f"uur: error: unrecognized arguments: {' '.join(args[1:3])}"


def test_input_with_dim_is_input_error(capsys):
    # Refused before the file is opened: the file's "dimension" sets it.
    code, out, err = run(["bounds", "--input", "/nonexistent/file.json", "--dim", "3"], capsys)
    assert code == 2
    assert out == ""
    assert err == 'error: --dim applies to --example only; a problem file sets its "dimension"\n'


def test_sweep_csv_round_trip(tmp_path, capsys):
    out_path = tmp_path / "rows.csv"
    code, _, err = run(["sweep", "--example", "ex1", "--dim", "3", "--steps", "7",
                        "--output", str(out_path)], capsys)
    assert code == 0, err
    lines = out_path.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header == ["theta", "variance_product", "lb", "k_m", "k_m_v",
                      "k_tilde", "i_2", "i_1_prime"]
    assert len(lines) == 8
    scen = scenarios.scenario("ex1", 3)
    A, B = (M for _, M in scen.operators)
    for line in lines[1:]:
        cells = dict(zip(header, line.split(",")))
        theta = float(cells["theta"])
        vp = bounds.variance_product(modulus_pair(A, B, state_at(scen, theta)))
        # 17 significant digits round-trip exactly through the CSV.
        assert float(cells["variance_product"]) == vp


@pytest.mark.parametrize("name", ["pure.json", "density.json", "bloch.json"])
def test_a_problem_file_state_repeats_its_one_state_for_every_angle(problem_dir, name):
    _, scen = cli._read_input_file(str(problem_dir / name))
    one = scen.state([0.0])
    assert one.shape == (1, scen.dimension) and one.flags.c_contiguous
    moments.PureState(one[0])
    P = scen.state(np.array([0.0, 1.0, -2.5]))
    assert P.shape == (3, scen.dimension) and P.flags.c_contiguous
    assert all(np.array_equal(row, one[0]) for row in P)


def test_qubit_file_csv_leaves_the_cross_bound_cell_empty(problem_dir, monkeypatch, capsys):
    # The paired cross bound needs n >= 3; a qubit row prints an empty cell (corpus-pinned).
    monkeypatch.chdir(problem_dir)
    code, out, _ = run(["bounds", "--input", "qubit.json", "--format", "csv"], capsys)
    assert code == 0
    header, row = (line.split(",") for line in out.strip().split("\n"))
    assert dict(zip(header, row, strict=True))["i_1_prime"] == ""


def test_sweep_json_format(capsys):
    code, out, _ = run(["sweep", "--example", "ex4", "--steps", "3",
                        "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 3
    assert set(rows[0]) == {"theta", "variance_product", "lb", "k_m", "k_m_v",
                            "k_tilde", "i_2", "i_1_prime"}


def test_sweep_three_operator_columns(capsys):
    code, out, _ = run(["sweep", "--example", "ex6", "--steps", "4"], capsys)
    assert code == 0
    header = out.split("\n", 1)[0].split(",")
    for col in ("variance_triple", "bong3", "prod_k", "prod_k_v", "prod_k_tilde"):
        assert col in header


def test_compare_columns_and_signs(capsys):
    code, out, _ = run(["compare", "--example", "ex1", "--dim", "3",
                        "--steps", "9"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    assert header == ["theta", "k_m_v_minus_lb", "k_m_v_minus_i_2",
                      "k_m_v_minus_i_1_prime"]
    for line in lines[1:]:
        cells = dict(zip(header, line.split(",")))
        assert float(cells["k_m_v_minus_lb"]) >= -1e-10


def test_compare_empty_cell_for_qubit_cross_bound(capsys):
    code, out, _ = run(["compare", "--example", "ex4", "--steps", "3"], capsys)
    assert code == 0
    header = out.split("\n")[0].split(",")
    # ex4 runs in the purified dimension 4, so the cross bound exists there.
    assert "k_m_v_minus_i_1_prime" in header


def test_check_reports_all_suites(capsys):
    code, out, _ = run(["check", "--seed", "11", "--trials", "6"], capsys)
    assert code == 0
    assert out.count("suite ") == 13
    assert out.strip().endswith("result: PASS")


def test_check_determinism_byte_identical(tmp_path, capsys):
    a_path, b_path = tmp_path / "a.txt", tmp_path / "b.txt"
    assert cli.main(["check", "--seed", "9", "--trials", "5",
                     "--output", str(a_path)]) == 0
    assert cli.main(["check", "--seed", "9", "--trials", "5",
                     "--output", str(b_path)]) == 0
    assert a_path.read_bytes() == b_path.read_bytes()


def test_invalid_v_rejected(capsys):
    code, out, err = run(["bounds", "--example", "ex1", "--dim", "3",
                          "--theta-min", "1.0", "--v", "1.5"], capsys)
    assert (code, out, err) == (2, "", "error: blend weight must lie in [0, 1], got 1.5\n")


PAULI_OPERATORS = [
    {"name": "Z", "matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]},
    {"name": "X", "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
    {"name": "Y", "matrix": [[[0, 0], [0, -1]], [[0, 1], [0, 0]]]},
]
GOOD_STATE = '{"pure": [[0.6, 0], [0, 0.8]]}'


def problem_text(n_ops, state=GOOD_STATE, params="{}"):
    """A qubit problem document; state and params are raw JSON text."""
    return (f'{{"dimension": 2, "operators": {json.dumps(PAULI_OPERATORS[:n_ops])}, '
            f'"state": {state}, "params": {params}}}')


def write_problem(tmp_path, n_ops, state=GOOD_STATE, params="{}"):
    """A qubit problem file; state and params are raw JSON text."""
    path = tmp_path / "prob.json"
    path.write_text(problem_text(n_ops, state, params))
    return path


# Each decoder refusal (the case ids below) is a problem file of
# tools/input_files.json, named bad-<case>.json unless named here.
REFUSAL_FILES = {"density-negative": "negative.json", "density-not-hermitian": "nonherm.json"}


def assert_input_error_pinned(run_line, case):
    """`bounds --input` on the file exits 2 with empty stdout and one `error:`
    line: the bytes its corpus line pins."""
    argv = f"bounds --input {REFUSAL_FILES.get(case, f'bad-{case}.json')}"
    code, digest, err = CORPUS[argv]
    assert (code, digest) == (2, sha256("")) and err.startswith("error: ") and err.count("\n") == 1
    assert run_line(argv) == CORPUS[argv]


@pytest.mark.parametrize("case", [
    "pure-reals", "m-null", "params-string", "cap-overflow", "flavor-2ops", "flavor-3ops",
    "top-level-number", "dimension-null", "dimension-list", "dimension-fraction",
    "operators-number", "bloch-number", "bloch-nested", "m-fraction", "pure-booleans",
    "pure-triple", "matrix-booleans", "matrix-triple", "matrix-number", "matrix-ragged",
    "matrix-huge", "matrix-huge-nan", "pure-huge", "density-negative", "density-not-hermitian"])
def test_malformed_input_file_is_input_error(run_line, case):
    assert_input_error_pinned(run_line, case)


@pytest.mark.parametrize("argv, param", [
    ("bounds --example ex1 --cap 0", 0),
    ("sweep --example ex5 --steps 2 --cap -1", -1),
    ("bounds --input bad-cap-zero.json", 0),
])
def test_cap_below_one_is_an_input_error(run_line, argv, param):
    # No block fits a cap below 1, whatever the search: the flag and a file's
    # "cap" exit 2 before any search. The library still reports a too-large search.
    assert run_line(argv) == (2, sha256(""), f"error: cap must be >= 1, got {param}\n")
    with pytest.raises(errors.SearchSpaceTooLarge):
        bounds.best_split_bound(moments.ModulusPair([1.0, 2.0], [2.0, 1.0]), 1, cap=0)


@pytest.mark.parametrize("case", ["pure-norm", "density-trace", "bloch-norm"])
def test_invalid_state_error_prints_plain_numbers(run_line, case):
    assert_input_error_pinned(run_line, case)


def test_ragged_density_error_names_the_density_matrix(run_line):
    assert_input_error_pinned(run_line, "density-ragged")


@pytest.mark.parametrize("case", ["pure-count", "density-size", "bloch-dimension",
                                  "one-operator", "four-operators", "operator-size",
                                  "matrix-nonsquare", "state-two-keys", "state-kind",
                                  "operator-no-matrix", "bloch-two", "pure-nan", "matrix-nan"])
def test_decoder_refusal_prints_its_line(run_line, case):
    assert_input_error_pinned(run_line, case)


@pytest.mark.parametrize("document", [
    "[" * 100_000 + "]" * 100_000,
    '{"dimension": 2, "operators": ' + "[" * 100_000 + "]" * 100_000 + "}",
], ids=["top-level", "operators"])
def test_deeply_nested_problem_file_is_input_error(tmp_path, capsys, document):
    # json's decoder recurses once per level of nesting and raises RecursionError
    # near 1,000 levels. tools/input_files.json cannot hold such a file: its own
    # loader would recurse too.
    path = tmp_path / "deep.json"
    path.write_text(document, encoding="utf-8")
    code, out, err = run(["bounds", "--input", str(path)], capsys)
    assert (code, out, err) == (2, "", "error: input file nests too deeply to decode\n")


@pytest.mark.parametrize("argv", [
    "bounds --example ex5 --flavor tilde", "bounds --example ex2 --dim 7 --format csv",
    "sweep --example ex5 --steps 5 --format csv", "compare --example ex5 --steps 5 --format json",
    "check --seed 42 --trials 25"])
def test_output_file_holds_the_bytes_stdout_would(run_line, tmp_path, argv):
    # --output writes the corpus line's stdout to the file and prints nothing.
    code, digest, err = run_line(f"{argv} --output {tmp_path / 'out'}")
    assert (code, digest, err) == (CORPUS[argv][0], sha256(""), CORPUS[argv][2])
    assert hashlib.sha256((tmp_path / "out").read_bytes()).hexdigest() == CORPUS[argv][1]


@pytest.mark.parametrize("extra, message", [
    (["--steps", "0"], "steps must be >= 1, got 0"),
    (["--theta-min", "2", "--theta-max", "1"], "theta range is empty: 2.0 > 1.0"),
    (["--steps", "0", "--theta-min", "2", "--theta-max", "1"], "steps must be >= 1, got 0"),
    ("sweep --example ex4 --theta-max 1e308 --steps 3".split(),
     "theta range 0.0 to 1e+308 in 3 steps leaves the finite range"),
    ("compare --example ex5 --theta-max 1.7e308 --steps 5".split(),
     "theta range 0.0 to 1.7e+308 in 5 steps leaves the finite range"),
    ("sweep --example ex1 --theta-min=-1e308 --theta-max 1e308 --steps 2".split(),
     "theta range -1e+308 to 1e+308 in 2 steps leaves the finite range"),
    (["--steps", "0", "--theta-max", "1e308"], "steps must be >= 1, got 0"),
    (["--theta-min", "1e308", "--theta-max=-1e308"], "theta range is empty: 1e+308 > -1e+308"),
])
def test_bad_sweep_grid_is_input_error(capsys, extra, message):
    # The steps error wins when the range is empty too, and both win over a
    # grid whose (hi - lo) * k overflows. A case that names its command runs
    # as given; the others extend `sweep --example ex5`.
    argv = extra if extra[0] in ("sweep", "compare") else ["sweep", "--example", "ex5"] + extra
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, flag", [
    ("bounds --input PROB --theta-min nan", "--theta-min"),
    ("bounds --example ex1 --theta-min 1e400", "--theta-min"),
    ("sweep --example ex1 --steps 2 --theta-min nan", "--theta-min"),
    ("sweep --example ex1 --steps 1 --theta-max inf", "--theta-max"),
])
def test_non_finite_angle_is_input_error(tmp_path, capsys, argv, flag):
    path = write_problem(tmp_path, 2)
    args = [str(path) if a == "PROB" else a for a in argv.split()]
    err = usage_error(args, capsys)
    value = args[args.index(flag) + 1]
    assert err.splitlines()[-1].endswith(
        f"error: argument {flag}: angle must be finite, got {value!r}")


def test_non_number_angle_is_usage_error(capsys):
    err = usage_error(["sweep", "--example", "ex1", "--theta-min", "abc"], capsys)
    assert err.splitlines()[-1] == (
        "uur sweep: error: argument --theta-min: invalid float value: 'abc'")


@pytest.mark.parametrize("trials", [0, -1])
def test_check_without_trials_is_input_error(capsys, trials):
    code, out, err = run(["check", "--trials", str(trials)], capsys)
    assert code == 2
    assert out == ""
    assert "trials" in err


@pytest.mark.parametrize("seed", [0, 2 ** 128 - 1])
def test_check_takes_both_ends_of_the_seed_range(capsys, seed):
    # The corpus pins the refusals just outside: -1 and 2**128.
    code, out, err = run(["check", "--seed", str(seed), "--trials", "1"], capsys)
    assert (code, err) == (0, "")
    assert out.startswith(f"check seed={seed} trials=1\n") and out.endswith("result: PASS\n")


def test_check_exits_1_when_its_own_draw_fails_the_unitarity_test(capsys, monkeypatch):
    # check reads no input besides --seed and --trials, so a sampled matrix
    # that fails the unitarity test is a fault of the program, not of the
    # input: exit 1 (it was 2), with the error line Unitary(M) gives.
    real_haar = sampling.haar_unitaries

    def corrupt_first(Z):
        U = real_haar(Z)
        if not seen:
            U[1][0, 1] += 1e-3
            seen.append(True)
        return U

    seen = []
    monkeypatch.setattr(sampling, "haar_unitaries", corrupt_first)
    code, out, err = run(["check", "--seed", "42", "--trials", "25"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: operator deviates from unitarity by 5.308e-04 (tol 1.0e-08)\n"


@pytest.fixture
def delta_calls(monkeypatch):
    """The rows of every moments.delta_stack call, the package's one delta-vector form."""
    calls = []
    real_stack = moments.delta_stack
    monkeypatch.setattr(moments, "delta_stack", lambda Ms, P: calls.append(len(P)) or real_stack(Ms, P))
    return calls


@pytest.mark.parametrize("example, n_ops", [("ex5", 3), ("ex2", 2)])
def test_sweep_row_computes_one_delta_vector_per_operator(capsys, delta_calls, example, n_ops):
    # A sweep forms its rows' delta vectors per block of 64 angles, in one
    # delta_stack per operator: 65 rows make 2 blocks. No row forms a delta
    # vector or a modulus pair of its own (a row once took n_ops per-item
    # delta vectors and one pair, a triple row two more pairs).
    code, _, err = run(["sweep", "--example", example, "--steps", "65"], capsys)
    assert code == 0, err
    assert delta_calls == [64] * n_ops + [1] * n_ops


def test_three_operator_report_computes_three_delta_vectors(tmp_path, capsys, delta_calls):
    # bounds is a grid of one angle: one block of one row.
    path = write_problem(tmp_path, 3, params='{"flavor": "tilde"}')
    code, _, err = run(["bounds", "--input", str(path)], capsys)
    assert code == 0, err
    assert delta_calls == [1] * 3


def test_sweep_row_searches_each_block_size_once(capsys, monkeypatch):
    # One ex1 row at n = 16 and m = 8 needs the block sizes 1..8 once each,
    # from one pass: sizes above 8 repeat smaller ones, and m = 8 is among
    # them. The pass evaluates 4 support parts (the per-size searches 59)
    # and pads one block, the argmax's (the pick padded all 29 candidates).
    calls, parts, padded = [], [], []
    real_search, real_value, real_block = bounds._split_search, bounds._split_value, bounds._block
    monkeypatch.setattr(bounds, "_split_search", lambda pair, sizes, cap:
                        calls.append(list(sizes)) or real_search(pair, sizes, cap))
    monkeypatch.setattr(bounds, "_split_value",
                        lambda x2, y2, inside: parts.append(inside) or real_value(x2, y2, inside))
    monkeypatch.setattr(bounds, "_block", lambda record, j, m: padded.append(m) or real_block(record, j, m))
    code, _, err = run(["sweep", "--example", "ex1", "--dim", "16", "--steps", "1",
                        "--theta-min", "1.0"], capsys)
    assert code == 0, err
    assert calls == [list(range(1, 9))]
    assert len(parts) == 4 + 1  # and the row's k_m (split_bound)
    assert len(padded) == 1


def test_three_operator_report_bounds_each_pair_once(capsys, monkeypatch, squarings):
    # ex5 has n = 4 and m = 2. One bound_reports call checks the three moduli
    # stacks by one test (no row is scanned again). The block's report pair
    # A-B makes one k_m, one variance product and one search pass over the
    # sizes 1, 2; the block's geometric means take A-B's factors from that
    # report and make one k_m and one search pass for each of the pairs A-C
    # and B-C, their passes searching m = 2 only; their variance products are
    # row sums of the squared stacks, not variance_product calls. A one-row
    # block keeps the per-pair pass. Each moduli stack is squared
    # once with numpy and each row's pair keeps its rows of those squares, so
    # no pair squares again; only the report's pair forms the C-pow squares,
    # once for i_d and i_1'.
    calls = {}

    def count(owner, name, wrap=lambda f: f):
        real = getattr(owner, name)
        calls[name] = 0

        def counting(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrap(counting))

    count(bounds, "bound_reports")
    for name in ("checked", "checked_stacks"):
        count(moments.ModulusPair, name, staticmethod)
    for name in ("split_bound", "variance_product", "_split_search", "_split_tables"):
        count(bounds, name)
    code, _, err = run(["bounds", "--example", "ex5", "--flavor", "tilde"], capsys)
    assert code == 0, err
    assert calls == {"bound_reports": 1, "checked": 0, "checked_stacks": 1, "split_bound": 3,
                     "variance_product": 1, "_split_search": 1 + 2, "_split_tables": 0}
    squared, powed = squarings["squares"], squarings["pow_terms"]
    assert squared == [] and len(powed) == 1


@pytest.mark.parametrize("argv, tables, searches", [
    ("sweep --example ex5 --steps 65", [63] * 3, 3 + 3),
    ("compare --example ex2 --dim 12 --steps 65", [64, 1], 0),
    ("bounds --example ex5", [], 3),
    ("sweep --example ex1 --dim 16 --steps 2", [], 2)],
    ids=["ex5-65-rows", "ex2-n12-65-rows", "ex5-one-row", "ex1-n16-two-rows"])
def test_a_block_takes_one_table_pass_per_operator_pair_past_the_crossover(capsys, monkeypatch, argv, tables,
                                                                             searches):
    # Per block of up to 64 rows, each operator pair makes one table pass over the rows whose support group
    # has rows x 2^|S| >= TABLE_MIN = 256, and every other row makes its own pass. In the first ex5 block
    # (n = 4) 63 rows share the full support and take the table for each of the 3 pairs, while the row at
    # theta = 0 and the 65th row make their own passes; ex2 at n = 12 puts its 64 rows, in groups of
    # different supports, and its dense 65th row (4,096 masks) on the table; one ex5 row (16 masks) and two
    # ex1 n = 16 rows (3 support indices each, 16 masks) stay per pair.
    rows, passes = [], []
    real_tables, real_search = bounds._split_tables, bounds._split_search
    monkeypatch.setattr(bounds, "_split_tables", lambda X2, Y2, groups, sizes, m: rows.append(
        sum(len(r) for r, _ in groups)) or real_tables(X2, Y2, groups, sizes, m))
    monkeypatch.setattr(bounds, "_split_search", lambda pair, sizes, cap: passes.append(1) or real_search(
        pair, sizes, cap))
    code, _, err = run(argv.split(), capsys)
    assert code == 0, err
    assert (rows, len(passes)) == (tables, searches)


SINGLE_BOUNDS = ("variance_product", "correlation_bound", "fine_grained_sequence", "paired_cross_bound", "split_bound")


@pytest.fixture
def field_calls(monkeypatch):
    """Calls of the single-pair bounds, of BoundSet.validate and of the block's one-pass forms."""
    calls = {}

    def count(owner, name):
        real = getattr(owner, name)
        calls[name] = 0

        def counting(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    for name in SINGLE_BOUNDS + ("_block_fields", "_chains_hold", "_family_index", "_cross_index"):
        count(bounds, name)
    count(bounds.BoundSet, "validate")
    return calls


@pytest.mark.parametrize("argv, singles, blocks", [
    ("sweep --example ex5 --steps 65", (1, 1, 1, 1, 6, 1), 1),
    ("bounds --example ex5", (1, 1, 1, 1, 3, 1), 0),
    ("sweep --example ex1 --dim 16 --steps 2", (2, 2, 2, 2, 2, 2), 0),
    ("check --trials 15", (120, 45, 45, 57, 302, 15), 0)],
    ids=["ex5-65-rows", "ex5-one-row", "ex1-n16-two-rows", "check-15"])
def test_a_block_takes_its_fields_in_one_pass_past_the_crossover(capsys, field_calls, argv, singles, blocks):
    # A block of BLOCK_MIN = 8 rows or more forms its reports' fields and chain tests from its moduli stacks in
    # one pass: the 64-row first block of a 65-row ex5 sweep calls no single-pair bound but the split_bound of
    # its theta = 0 row's own search (3 pairs), while the 65th row makes the calls of a one-row block (its
    # report). The geometric means take every row's variance products from the stacks' row sums, so the means'
    # pairs A-C and B-C call no variance_product on either side. A one-row report, the two-row blocks of an
    # ex1 n = 16 sweep and check's single pairs make the same report calls as before the one-pass form, and
    # below the crossover no union support or index array is formed. check's multi_op trials are one-row
    # blocks of bound_reports, which name their broken rows: each validates its report (15 calls).
    code, _, err = run(argv.split(), capsys)
    assert code == 0, err
    assert tuple(field_calls[name] for name in SINGLE_BOUNDS + ("validate",)) == singles
    assert field_calls["_block_fields"] == field_calls["_chains_hold"] == field_calls["_family_index"] == blocks
    assert field_calls["_cross_index"] == blocks


@pytest.mark.parametrize("argv, blocks", [("sweep --example ex5 --steps 65", 2), ("bounds --example ex5", 1)])
def test_a_triple_block_squares_each_moduli_stack_once(capsys, monkeypatch, argv, blocks):
    # The report's pair A-B and the means' pairs A-C and B-C of a block read one squaring of each of the three
    # moduli stacks (three squarings where six were made), on both sides of the crossover.
    read, real = [], bounds._searches
    monkeypatch.setattr(bounds, "_searches", lambda X, Y, X2, Y2, *rest: read.append((X2, Y2)) or real(
        X, Y, X2, Y2, *rest))
    code, _, err = run(argv.split(), capsys)
    assert code == 0, err
    assert len(read) == 3 * blocks
    for (a, b), (a_again, c), (b_again, c_again) in zip(*[iter(read)] * 3):
        assert a_again is a and b_again is b and c_again is c
        assert len({id(a), id(b), id(c)}) == 3


def test_a_broken_block_chain_exits_1_with_no_stdout(capsys, monkeypatch, field_calls):
    # The 64-row first block of a 65-row sweep tests its chains as arrays and formats the message of its first
    # broken row only, which reads as a row's of the per-row side (test_broken_row_chain_exits_1_with_no_stdout).
    real = bounds._block_fields

    def corrupted(*stacks):
        vp, lb, family, cross = real(*stacks)
        return vp, lb + 1.0, family, cross

    monkeypatch.setattr(bounds, "_block_fields", corrupted)
    code, out, err = run(["sweep", "--example", "ex1", "--steps", "65"], capsys)
    assert (code, out) == (1, "")
    assert err == ("error: chain invariants failed at theta=0.0: "
                   "lb > k_m by 1.000e+00; i_n != lb by 1.000e+00\n")
    assert field_calls["validate"] == 1


@pytest.mark.parametrize("case, counts", [
    ("bounds --input density.json", (1, 0)),
    ("sweep --example ex4 --steps 4", (1, 0)),
    ("suite_purification", (6, 0)),
    ("suite_mixed_state_floor", (6, 0)),
    ("sweep --example ex4 --steps 65", (2, 0)),
])
def test_each_density_matrix_is_diagonalised_once(problem_dir, capsys, monkeypatch, case,
                                                   counts):
    # A DensityMatrix keeps the eigendecomposition of its positivity check, and
    # DensityMatrix.stack returns the one eigh of its stack; the purification
    # and the mixed-state floor read them, so every file and trial makes one
    # eigh, every sweep block of 64 rows one, and none makes an eigvalsh.
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        def counting(*args, name=name, real=getattr(np.linalg, name), **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    if case.startswith("suite_"):
        assert run_suite(case.removeprefix("suite_"), 17, 6).failures == 0
    else:
        monkeypatch.chdir(problem_dir)
        code, _, err = run(case.split(), capsys)
        assert code == 0, err
    assert (calls["eigh"], calls["eigvalsh"]) == counts


def test_check_makes_one_qr_per_dimension(capsys, monkeypatch):
    # 15 trials fit one 64-trial block: the 12 sampled suites' Gaussian
    # matrices of d = 2..8 become unitary in 7 QR calls (63, one per suite
    # and dimension, when each suite sampled on its own).
    calls = []
    real = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda Z: calls.append(Z.shape) or real(Z))
    code, out, err = run(["check", "--seed", "42", "--trials", "15"], capsys)
    assert code == 0, err
    assert sorted(shape[-1] for shape in calls) == list(range(2, 9))


@pytest.mark.parametrize("command, checks", [
    ("sweep --example ex5 --steps 4", 3),
    ("sweep --example ex1 --dim 16 --steps 3", 2),
    ("bounds --input {bloch3}", 3),
])
def test_each_operator_is_checked_once_per_command(tmp_path, capsys, monkeypatch,
                                                   command, checks):
    # The rows reuse the operators checked when the problem was loaded.
    path = tmp_path / "bloch3.json"
    path.write_text(problem_text(3, '{"bloch": [0.5, -0.1, 0.3]}'))
    calls = []
    real = linalg.unitary_deviation
    monkeypatch.setattr(linalg, "unitary_deviation", lambda M: calls.append(M) or real(M))
    code, _, err = run(command.format(bloch3=path).split(), capsys)
    assert code == 0, err
    assert len(calls) == checks


# Arbitrary JSON values, including the NaN and Infinity literals Python's
# json module reads and writes, and an integer too large for a float.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10 ** 400) | st.floats()
    | st.text(max_size=6),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=12,
)

VALID_PROBLEMS = [
    {"dimension": 2, "operators": PAULI_OPERATORS[:2], "state": {"pure": [[0.6, 0], [0, 0.8]]},
     "params": {"m": 1, "v": 0.3, "cap": 10, "flavor": "plain"}},
    {"dimension": 2, "operators": PAULI_OPERATORS, "state": {"bloch": [0.2, 0.3, 0.4]},
     "params": {"flavor": "tilde"}},
    {"dimension": 2, "operators": PAULI_OPERATORS[:2],
     "state": {"density": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}, "params": {}},
]
# Where in a valid problem the arbitrary value goes: a path of keys and indices.
FIELD_PATHS = [("dimension",), ("operators",), ("operators", 0), ("operators", 0, "name"),
               ("operators", 0, "matrix"), ("operators", 0, "matrix", 0, 1),
               ("operators", 1, "matrix", 1, 0, 0), ("state",), ("params",),
               ("params", "m"), ("params", "v"), ("params", "cap"), ("params", "flavor")]


def run_quietly(document) -> tuple[int, str]:
    """The exit code and stderr of `bounds --input` on the document."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "prob.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(document))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["bounds", "--input", path])
    return code, err.getvalue()


def assert_exits_cleanly(document):
    code, err = run_quietly(document)
    assert code in {0, 2, 3}
    if code != 0:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err


@settings(max_examples=150, deadline=None)
@given(json_values)
def test_arbitrary_json_document_exits_cleanly(document):
    assert_exits_cleanly(document)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(range(len(VALID_PROBLEMS))), st.sampled_from(FIELD_PATHS), json_values)
def test_corrupted_problem_file_exits_cleanly(which, field_path, value):
    document = copy.deepcopy(VALID_PROBLEMS[which])
    target = document
    for key in field_path[:-1]:
        target = target[key]
    target[field_path[-1]] = value
    assert_exits_cleanly(document)
