"""Command-line interface: subcommands, outputs, exit codes."""

import argparse
import csv
import json
import re
import shlex
import shutil
import subprocess
import sys
import warnings

import pytest

import bnecert as bc
from bnecert.cli import build_parser, main

from conftest import ROOT, src_env

ZERO_SUM_DOC = {
    "actions1": ["x1", "x2"],
    "actions2": ["y1", "y2"],
    "u": [["theta1*theta2", "0"], ["0", "theta1*theta2"]],
    "v": [["-(theta1*theta2)", "0"], ["0", "-(theta1*theta2)"]],
    "prior": "1",
}


# general-sum, so fp solves it; at levels 1-2, fp's 2000 iterations leave
# a finite gap above 0.004, short of its target epsilon / 10 for any
# epsilon <= 0.01
GENERAL_SUM_DOC = {
    "actions1": ["x1", "x2"],
    "actions2": ["y1", "y2"],
    "u": [["1 + theta1", "0"], ["0", "1"]],
    "v": [["0", "1"], ["theta2", "0"]],
    "prior": "1",
}


# the required arguments of each subcommand, with SPEC for the spec path
MINIMAL_ARGV = {
    "check": ["check", "SPEC"],
    "discretize": ["discretize", "SPEC", "--level", "1"],
    "solve": ["solve", "SPEC", "--level", "1"],
    "certify": ["certify", "SPEC", "--level", "1", "--epsilon", "0.1"],
    "run": ["run", "SPEC", "--epsilon", "0.1"],
}


@pytest.fixture()
def spec_path(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(ZERO_SUM_DOC))
    return str(path)


@pytest.fixture()
def general_sum_path(tmp_path):
    path = tmp_path / "general.json"
    path.write_text(json.dumps(GENERAL_SUM_DOC))
    return str(path)


def general_sum_report(epsilon, max_level):
    g = bc.load_game(bc.GameSpec.from_dict(GENERAL_SUM_DOC))
    return bc.run(g, bc.RunConfig(epsilon=epsilon, max_level=max_level))


def test_check(spec_path, general_sum_path, capsys):
    for path, condition in ((spec_path, "zero_sum"),
                            (general_sum_path, "none")):
        assert main(["check", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["actions1"] == ["x1", "x2"]
        assert doc["multiplier_condition"] == condition
        assert doc["prior_norm"] == pytest.approx(1.0, abs=1e-8)
        # payoffs are prior x utility: there is no per-game offset to show
        assert set(doc) == {"actions1", "actions2", "prior_norm",
                            "multiplier_condition"}


@pytest.mark.parametrize("utility", ["exp(1000*theta1)", "10^400"])
def test_check_overflow_is_nonfinite(utility, tmp_path, capsys):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({**ZERO_SUM_DOC, "u": [[utility, "0"],
                                                      ["0", "0"]]}))
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: NonFinite")


def test_discretize_to_file(spec_path, tmp_path, capsys):
    out = tmp_path / "level2.json"
    code = main(["discretize", spec_path,
                 "--level", "2", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["n"] == 2
    import numpy as np
    assert np.allclose(doc["U"][0][0], [[0.25, 0.5], [0.5, 1.0]], atol=1e-8)


def test_solve_stdout(spec_path, capsys):
    assert main(["solve", spec_path, "--level", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["backend"] == "lp"
    assert doc["finite_gap1"] <= 1e-8
    assert len(doc["s"]) == 2 and len(doc["s"][0]) == 2


def test_certify_exit_codes(spec_path, capsys):
    assert main(["certify", spec_path,
                 "--level", "4", "--epsilon", "0.05"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["certified"] is True

    assert main(["certify", spec_path,
                 "--level", "1", "--epsilon", "1e-9"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["certified"] is False


def test_certify_uses_fp_best_iterate_like_run(general_sum_path, capsys):
    code = main(["certify", general_sum_path,
                 "--level", "2", "--epsilon", "0.002"])
    doc = json.loads(capsys.readouterr().out)
    assert code == (0 if doc["certified"] else 2)

    record = general_sum_report(0.002, 2).levels[-1]
    assert record["n"] == 2 and record["note"] is not None
    cert = record["certificate"]
    assert doc["certified"] == cert["certified"]
    for key in ("gap1", "gap2", "value1", "value2"):
        assert doc[key] == cert[key]


def test_solve_prints_the_run_note(general_sum_path, capsys):
    assert main(["solve", general_sum_path, "--level", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["backend"] == "fp"
    note = general_sum_report(0.01, 1).levels[0]["note"]
    assert note is not None
    assert doc["note"] == note


def test_solve_fp_overflow_is_nonfinite(tmp_path, capsys):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({
        **ZERO_SUM_DOC,
        "u": [["1.5e308*theta1", "0"], ["0", "1.5e308*theta2"]],
        "v": [["0", "1.5e308*theta2"], ["1.5e308*theta1", "0"]],
    }))
    assert main(["solve", str(path), "--level", "3"]) == 1
    assert capsys.readouterr().err == (
        "error: NonFinite: fictitious play gap is not finite at iteration 1\n")


def test_certify_quadrature_overflow_is_nonfinite(tmp_path, capsys):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({
        **ZERO_SUM_DOC,
        "u": [["1.5e308*theta1", "0"], ["0", "1.5e308*theta2"]],
        "v": [["0", "1.5e308*theta2"], ["1.5e308*theta1", "0"]],
    }))
    assert main(["certify", str(path), "--level", "1",
                 "--epsilon", "1e-3"]) == 1
    assert capsys.readouterr().err == (
        "error: NonFinite: Simpson estimates on [0.0, 1.0] of integrand 0 "
        "are not finite\n")


def test_run_with_report_and_curves(spec_path, tmp_path, capsys,
                                   monkeypatch):
    runs = []

    def recording_run(g, cfg):
        runs.append(bc.run(g, cfg))
        return runs[-1]

    monkeypatch.setattr("bnecert.cli.run", recording_run)
    out = tmp_path / "report.json"
    code = main(["run", spec_path, "--epsilon", "0.05", "--max-level", "8",
                 "--output", str(out), "--emit-curves"])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["status"] == "certified"
    n = report["certified_level"]
    for player in (1, 2):
        curve = tmp_path / f"report.json.curves.level{n}.player{player}.csv"
        lines = curve.read_text().splitlines()
        assert lines[0] == "theta,action,F"
        assert len(lines) == 1 + 1001 * 2  # grid points x actions
    # every F cell of every solved level is the CDF's value as a number
    for level, F, G, _ in runs[0].level_strategies:
        for player, strat in ((1, F), (2, G)):
            curve = (tmp_path
                     / f"report.json.curves.level{level}.player{player}.csv")
            with open(curve, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))[1:]
            assert len(rows) == 1001 * len(strat.actions)
            for theta, action, value in rows:
                k = strat.actions.index(action)
                assert float(value) == strat.values(float(theta))[k]


def test_emit_curves_without_output_is_a_usage_error(spec_path, tmp_path,
                                                    capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["run", spec_path, "--epsilon", "0.05", "--emit-curves"])
    assert exc.value.code == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.endswith("bnecert: error: --emit-curves writes files next "
                            "to the report, so it needs --output\n")
    assert list(tmp_path.glob("*.csv")) == []


def test_run_uncertified_exit_code(spec_path):
    assert main(["run", spec_path,
                 "--epsilon", "1e-9", "--max-level", "2"]) == 2


def test_run_prints_the_report_and_exits_1_when_every_level_fails(
        tmp_path, capsys):
    # certify's Simpson sums overflow at level 1, and fp's gaps at levels
    # 2 and 4; the report keeps each level's error
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({
        **ZERO_SUM_DOC,
        "u": [["1.5e308*theta1", "0"], ["0", "1.5e308*theta2"]],
    }))
    assert main(["run", str(path), "--epsilon", "0.1",
                 "--max-level", "4"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "failed"
    assert doc["certified_level"] is None and doc["strategies"] is None
    assert {r["n"]: r["error"] for r in doc["levels"]} == {
        1: "NonFinite: Simpson estimates on [0.0, 1.0] of integrand 0 "
           "are not finite",
        2: "NonFinite: fictitious play gap is not finite at iteration 2",
        4: "NonFinite: fictitious play gap is not finite at iteration 1",
    }


@pytest.mark.parametrize("argv, message", [
    (["run", "SPEC"], "the following arguments are required: --epsilon"),
    # the game picks its solver, so there is no --backend to set
    (["solve", "SPEC", "--level", "1", "--backend", "lp"],
     "unrecognized arguments: --backend lp"),
    (["certify", "SPEC", "--level", "1", "--epsilon", "0.1",
      "--backend", "fp"], "unrecognized arguments: --backend fp"),
    (["certify", "SPEC", "--level", "two", "--epsilon", "0.1"],
     "argument --level: invalid int value: 'two'"),
    ([], "the following arguments are required: command"),
    (["run", "SPEC", "--epsilon", "0.1", "--backend", "auto"],
     "unrecognized arguments: --backend auto"),
    # epsilon sets the quadrature tolerance, fp's budget is fixed and the
    # validation grid is 101 points, so none of them is an option
    *[([*argv, flag, value], f"unrecognized arguments: {flag} {value}")
      for flag, value, commands in (
          ("--quad-tol", "1e-7", ("certify", "run")),
          ("--fp-max-iters", "50", ("solve", "certify", "run")),
          ("--grid-check", "21", ("check", "discretize", "solve", "certify",
                                  "run")))
      for argv in (MINIMAL_ARGV[command] for command in commands)],
    # levels always double, so there is no schedule to pick
    (["run", "SPEC", "--epsilon", "0.1", "--schedule", "doubling"],
     "unrecognized arguments: --schedule doubling"),
])
def test_usage_errors_exit_1_with_argparse_message(spec_path, capsys, argv,
                                                   message):
    # exit 2 is "exhausted without a certificate", argparse's own code
    argv = [spec_path if a == "SPEC" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("usage: bnecert")
    assert out.err.endswith(f"error: {message}\n")


def test_option_sets_of_the_subcommands():
    # a new option is a deliberate change: it has to be added here too
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    options = {name: {option for action in sub._actions
                      for option in action.option_strings} - {"-h", "--help"}
               for name, sub in subparsers.choices.items()}
    assert options == {
        "check": set(),
        "discretize": {"--level", "--output"},
        "solve": {"--level"},
        "certify": {"--level", "--epsilon"},
        "run": {"--epsilon", "--max-level", "--output", "--emit-curves"},
    }


def test_run_takes_its_default_level_cap_from_run_config(spec_path):
    args = build_parser().parse_args(["run", spec_path, "--epsilon", "0.1"])
    assert args.max_level == bc.RunConfig(epsilon=0.1).max_level


def test_usage_error_exit_code_of_the_process(spec_path):
    proc = subprocess.run([sys.executable, "-m", "bnecert.cli", "run",
                           spec_path], env=src_env(), capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.endswith(
        "error: the following arguments are required: --epsilon\n")


def test_help_exits_0(capsys):
    for argv in (["--help"], ["run", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: bnecert")


def test_missing_file_is_fatal(capsys):
    assert main(["check", "/nonexistent/game.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_bad_expression_is_fatal(tmp_path, capsys):
    doc = dict(ZERO_SUM_DOC, prior="theta1*")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 1
    assert "ExprSyntaxError" in capsys.readouterr().err


def test_bad_expression_names_its_cell(tmp_path, capsys):
    v = [row[:] for row in ZERO_SUM_DOC["v"]]
    v[1][0] = "theta1*"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(ZERO_SUM_DOC, v=v)))
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: ExprSyntaxError: v[1][0]: expected operand, "
        "got end of input (at offset 7)\n")


def test_deep_nesting_is_an_error_naming_its_cell_not_a_traceback(tmp_path):
    u = [row[:] for row in ZERO_SUM_DOC["u"]]
    u[0][0] = "(" * 2000 + "theta1" + ")" * 2000
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(dict(ZERO_SUM_DOC, u=u)))
    proc = subprocess.run([sys.executable, "-m", "bnecert.cli", "check",
                           str(path)], env=src_env(), capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 1
    assert re.fullmatch(r"error: ExprSyntaxError: u\[0\]\[0\]: expression "
                        r"nested too deeply \(at offset \d+\)\n", proc.stderr)


def test_a_spec_file_nested_too_deeply_is_an_error_not_a_traceback(
        tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: JSON nested too deeply\n"


def test_a_type_range_of_infinite_width_is_a_named_error(tmp_path, capsys):
    # its width overflowed, and numpy warned of a nan type before loading
    # blamed the utility
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(dict(ZERO_SUM_DOC,
                                    type_range1=[-1e308, 1e308])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err == ("error: type_range1 must be an "
                                       "increasing interval of finite width\n")


@pytest.mark.parametrize("change, message", [
    ({"u": [["theta1*theta2", "log(theta2)"], ["0", "theta1*theta2"]]},
     "u[0][1]: log of non-positive value 0.0"),
    ({"prior": "sqrt(theta1 - 0.5)"}, "prior: sqrt of negative value -0.5"),
    # v[0][0] fails on the same step, log(theta2), but u[1][1] comes
    # first in table order
    ({"u": [["0", "0"], ["0", "2*log(theta2)"]],
      "v": [["log(theta2) + 1", "0"], ["0", "0"]]},
     "u[1][1]: log of non-positive value 0.0"),
    # multipliers are evaluated only when the game is not constant-sum
    ({**GENERAL_SUM_DOC, "m1": "log(theta1 - 0.5)", "m2": "1"},
     "m1: log of non-positive value -0.5"),
    ({**GENERAL_SUM_DOC, "m1": "1", "m2": "sqrt(theta2 - 0.5)"},
     "m2: sqrt of negative value -0.5"),
], ids=["u", "prior", "shared", "m1", "m2"])
def test_domain_error_names_its_cell(tmp_path, capsys, change, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(ZERO_SUM_DOC, **change)))
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err == f"error: DomainError: {message}\n"


def test_invalid_json_is_fatal(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {path}: Expecting property name")


def test_an_int_too_long_to_parse_is_an_error_naming_the_file(tmp_path,
                                                              capsys):
    # json.load's digit-limit error named neither the file nor the field
    path = tmp_path / "long.json"
    path.write_text(json.dumps(ZERO_SUM_DOC)[:-1]
                    + ', "type_range1": [0, ' + "9" * 5001 + "]}")
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {path}: Exceeds the limit")


@pytest.mark.parametrize("change, message", [
    ({"prior": None}, "spec has no 'prior' field"),
    ({"type_range1": ["a", "b"]}, "type_range1 must be two finite numbers"),
    ({"prior": 1}, "prior must be an expression string"),
    ({"u": "1"}, "u must be a list of rows of expression strings"),
    # math.isfinite raised OverflowError on this 401-digit bound
    pytest.param({"type_range2": [0, 10 ** 400]},
                 f"type_range2 must be two finite numbers, got "
                 f"[0, {10 ** 400}]\n", id="int-bound-too-large"),
])
def test_malformed_spec_is_a_named_error(tmp_path, capsys, change, message):
    doc = {k: v for k, v in {**ZERO_SUM_DOC, **change}.items()
           if v is not None}
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize("command, option, value", [
    ("certify", "--epsilon", "nan"),
    ("certify", "--epsilon", "inf"),
    ("run", "--epsilon", "inf"),
    ("run", "--epsilon", "nan"),
])
def test_bad_epsilon_or_quad_tol_is_fatal(spec_path, capsys, command, option,
                                          value):
    # the quadrature tolerance follows from epsilon, so a bad epsilon is
    # the one bad tolerance
    argv = [command, spec_path, "--epsilon", "0.1"]
    if command == "certify":
        argv += ["--level", "2"]
    argv += [option, value]
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "must be positive" in out.err


def test_an_epsilon_whose_hundredth_underflows_is_fatal(spec_path, capsys):
    assert main(["run", spec_path, "--epsilon", "5e-324"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: epsilon must be positive and finite, and so "
                       "must epsilon / 100, the quadrature tolerance; got "
                       "5e-324\n")


@pytest.mark.parametrize("command", [["discretize"], ["solve"],
                                     ["certify", "--epsilon", "0.01"]])
def test_a_level_too_large_to_allocate_is_fatal(capsys, command):
    # before, numpy's _ArrayMemoryError ended in a traceback
    spec = str(ROOT / "demos" / "specs" / "zero_sum_match.json")
    assert main([*command, spec, "--level", "4000000"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: Unable to allocate ")
    assert "Traceback" not in out.err


def readme_commands():
    """The bnecert command lines of README's sh blocks, continuations
    joined."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("bnecert ")]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    commands = readme_commands()
    # one line per subcommand when this test was written
    assert {argv[0] for argv in commands} == {"check", "discretize", "solve",
                                             "certify", "run"}
    shutil.copytree(ROOT / "demos" / "specs", tmp_path / "demos" / "specs")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) in (0, 2), argv
        assert capsys.readouterr().err == "", argv
