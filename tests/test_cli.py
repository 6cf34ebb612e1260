"""Command-line interface: subcommands, outputs, exit codes."""

import json

import pytest

import bnecert as bc
from bnecert.cli import main

ZERO_SUM_DOC = {
    "actions1": ["x1", "x2"],
    "actions2": ["y1", "y2"],
    "u": [["theta1*theta2", "0"], ["0", "theta1*theta2"]],
    "v": [["-(theta1*theta2)", "0"], ["0", "-(theta1*theta2)"]],
    "prior": "1",
}


# general-sum, so auto picks fp; at levels 1-2, 50 fp iterations leave
# finite gaps above 0.03, far from a target of epsilon / 10
GENERAL_SUM_DOC = {
    "actions1": ["x1", "x2"],
    "actions2": ["y1", "y2"],
    "u": [["1 + theta1", "0"], ["0", "1"]],
    "v": [["0", "1"], ["theta2", "0"]],
    "prior": "1",
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
    g = bc.load_game(bc.GameSpec.from_dict(GENERAL_SUM_DOC), grid_check=21)
    return bc.run(g, bc.RunConfig(epsilon=epsilon, max_level=max_level,
                                  backend="fp", fp_max_iters=50))


def test_check(spec_path, capsys):
    assert main(["check", spec_path, "--grid-check", "21"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["actions1"] == ["x1", "x2"]
    assert doc["multiplier_condition"] == "zero_sum"
    assert doc["prior_norm"] == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("utility", ["exp(1000*theta1)", "10^400"])
def test_check_overflow_is_nonfinite(utility, tmp_path, capsys):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({**ZERO_SUM_DOC, "u": [[utility, "0"],
                                                      ["0", "0"]]}))
    assert main(["check", str(path), "--grid-check", "21"]) == 1
    assert capsys.readouterr().err.startswith("error: NonFinite")


def test_discretize_to_file(spec_path, tmp_path, capsys):
    out = tmp_path / "level2.json"
    code = main(["discretize", spec_path, "--grid-check", "21",
                 "--level", "2", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["n"] == 2
    import numpy as np
    assert np.allclose(doc["U"][0][0], [[0.25, 0.5], [0.5, 1.0]], atol=1e-8)


def test_solve_stdout(spec_path, capsys):
    assert main(["solve", spec_path, "--grid-check", "21",
                 "--level", "2", "--backend", "lp"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["backend"] == "lp"
    assert doc["finite_gap1"] <= 1e-8
    assert len(doc["s"]) == 2 and len(doc["s"][0]) == 2


def test_certify_exit_codes(spec_path, capsys):
    assert main(["certify", spec_path, "--grid-check", "21",
                 "--level", "4", "--epsilon", "0.05"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["certified"] is True

    assert main(["certify", spec_path, "--grid-check", "21",
                 "--level", "1", "--epsilon", "1e-9"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["certified"] is False


def test_certify_uses_fp_best_iterate_like_run(general_sum_path, capsys):
    code = main(["certify", general_sum_path, "--grid-check", "21",
                 "--level", "2", "--epsilon", "0.05", "--backend", "fp",
                 "--fp-max-iters", "50"])
    doc = json.loads(capsys.readouterr().out)
    assert code == (0 if doc["certified"] else 2)

    record = general_sum_report(0.05, 2).levels[-1]
    assert record["n"] == 2 and record["note"] is not None
    cert = record["certificate"]
    assert doc["certified"] == cert["certified"]
    for key in ("gap1", "gap2", "value1", "value2"):
        assert doc[key] == cert[key]


def test_solve_prints_the_run_note(general_sum_path, capsys):
    assert main(["solve", general_sum_path, "--grid-check", "21",
                 "--level", "1", "--fp-max-iters", "50"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["backend"] == "fp"
    note = general_sum_report(0.01, 1).levels[0]["note"]
    assert note is not None
    assert doc["note"] == note


def test_solve_lp_requires_multiplier_condition(general_sum_path, capsys):
    assert main(["solve", general_sum_path, "--grid-check", "21",
                 "--level", "1", "--backend", "lp"]) == 1
    err = capsys.readouterr().err
    assert err == ("error: lp backend requires the multiplier condition; "
                   "check_prop1 did not detect it\n")


def test_fp_max_iters_only_on_solving_commands(spec_path):
    with pytest.raises(SystemExit):
        main(["check", spec_path, "--fp-max-iters", "10"])
    with pytest.raises(SystemExit):
        main(["discretize", spec_path, "--level", "1",
              "--fp-max-iters", "10"])


def test_run_with_report_and_curves(spec_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["run", spec_path, "--grid-check", "21",
                 "--epsilon", "0.05", "--max-level", "8",
                 "--schedule", "doubling", "--output", str(out),
                 "--emit-curves"])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["status"] == "certified"
    n = report["certified_level"]
    for player in (1, 2):
        curve = tmp_path / f"report.json.curves.level{n}.player{player}.csv"
        lines = curve.read_text().splitlines()
        assert lines[0] == "theta,action,F"
        assert len(lines) == 1 + 1001 * 2  # grid points x actions


def test_run_uncertified_exit_code(spec_path):
    assert main(["run", spec_path, "--grid-check", "21",
                 "--epsilon", "1e-9", "--max-level", "2"]) == 2


def test_missing_file_is_fatal(capsys):
    assert main(["check", "/nonexistent/game.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_bad_expression_is_fatal(tmp_path, capsys):
    doc = dict(ZERO_SUM_DOC, prior="theta1*")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 1
    assert "ExprSyntaxError" in capsys.readouterr().err


def test_invalid_json_is_fatal(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["check", str(path)]) == 1
