"""Command-line surface of the toolkit.

Exit codes: 0 success / certified, 2 exhausted without a certificate,
1 fatal error or usage error (for run, also every level failed; the
report still says why).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .certificate import check_tolerances
from .discretize import build_finite
from .driver import RunConfig, certify_level, run, solve_level
from .errors import BnecertError
from .model import load_game_file
from .prop1 import check_prop1

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_UNCERTIFIED = 2

# `solve` has no --epsilon; fp aims at a finite gap of SOLVE_EPSILON / 10
SOLVE_EPSILON = 0.01
# points of the theta grid in the --emit-curves CSV files
CURVE_POINTS = 1001


def cmd_check(g, args):
    return {
        "actions1": list(g.actions1),
        "actions2": list(g.actions2),
        "prior_norm": g.prior_norm,
        "multiplier_condition": check_prop1(g).kind,
    }, EXIT_OK


def cmd_discretize(g, args):
    fg = build_finite(g, args.level)
    return {
        "n": fg.n,
        "actions1": list(fg.actions1),
        "actions2": list(fg.actions2),
        "U": fg.U.tolist(),
        "V": fg.V.tolist(),
    }, EXIT_OK


def cmd_solve(g, args):
    result, note = solve_level(g, args.level, check_prop1(g), SOLVE_EPSILON)
    return {
        "backend": result.backend,
        "iterations": result.iterations,
        "note": note,
        "finite_gap1": result.finite_gap1,
        "finite_gap2": result.finite_gap2,
        "objective": result.objective,
        "s": result.profile.s.tolist(),
        "t": result.profile.t.tolist(),
    }, EXIT_OK


def cmd_certify(g, args):
    check_tolerances(args.epsilon)
    *_, cert = certify_level(g, args.level, check_prop1(g), args.epsilon)
    return cert.to_dict(), EXIT_OK if cert.certified else EXIT_UNCERTIFIED


def _write_curves(base, report):
    grid = np.linspace(0.0, 1.0, CURVE_POINTS)
    for n, F, G, _ in report.level_strategies:
        for player, strat in ((1, F), (2, G)):
            table = strat.values(grid)
            path = f"{base}.curves.level{n}.player{player}.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["theta", "action", "F"])
                for theta, row in zip(grid.tolist(), table.tolist()):
                    for action, value in zip(strat.actions, row):
                        writer.writerow([repr(theta), action, repr(value)])


def cmd_run(g, args):
    cfg = RunConfig(epsilon=args.epsilon, max_level=args.max_level)
    report = run(g, cfg)
    if args.emit_curves:  # main has checked that --output is set
        _write_curves(args.output, report)
    codes = {"certified": EXIT_OK, "failed": EXIT_FATAL}
    return report.to_dict(), codes.get(report.status, EXIT_UNCERTIFIED)


# argparse keywords of each option, which any subcommand may take
OPTIONS = {
    "--level": dict(type=int, required=True),
    "--epsilon": dict(type=float, required=True),
    "--max-level": dict(type=int, default=RunConfig.max_level),
    "--output": {},
    "--emit-curves": dict(action="store_true"),
}

# name, function, help and options of each subcommand, in help order;
# main passes each function (game, args) and gets (document, exit code)
SUBCOMMANDS = (
    ("check", cmd_check, "validate a game spec", ()),
    ("discretize", cmd_discretize, "dump level-n payoff tensors",
     ("--level", "--output")),
    ("solve", cmd_solve, "solve the level-n finite game", ("--level",)),
    ("certify", cmd_certify, "solve one level and certify it",
     ("--level", "--epsilon")),
    ("run", cmd_run, "full certification loop",
     ("--epsilon", "--max-level", "--output", "--emit-curves")),
)


class _Parser(argparse.ArgumentParser):
    """argparse's usage errors, with the fatal exit code instead of 2
    (which means "exhausted without a certificate" here)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_FATAL, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="bnecert",
        description="Compute and certify epsilon-equilibria of "
                    "continuous-type Bayesian games by discretization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, options in SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("spec", help="path to the JSON game spec")
        for option in options:
            p.add_argument(option, **OPTIONS[option])
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "emit_curves", False) and not args.output:
        parser.error("--emit-curves writes files next to the report, "
                     "so it needs --output")
    try:
        doc, code = args.func(load_game_file(args.spec), args)
        text = json.dumps(doc, indent=2, sort_keys=True)
        if getattr(args, "output", None):
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        return code
    except BnecertError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FATAL
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
