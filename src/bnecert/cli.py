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
from .solver import check_prop1

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_UNCERTIFIED = 2

# `solve` has no --epsilon; fp aims at a finite gap of SOLVE_EPSILON / 10
SOLVE_EPSILON = 0.01
# points of the theta grid in the --emit-curves CSV files
CURVE_POINTS = 1001


def cmd_check(args):
    g = load_game_file(args.spec)
    prop1 = check_prop1(g)
    print(json.dumps({
        "actions1": list(g.actions1),
        "actions2": list(g.actions2),
        "prior_norm": g.prior_norm,
        "multiplier_condition": prop1.kind,
    }, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_discretize(args):
    g = load_game_file(args.spec)
    fg = build_finite(g, args.level)
    doc = {
        "n": fg.n,
        "actions1": list(fg.actions1),
        "actions2": list(fg.actions2),
        "U": fg.U.tolist(),
        "V": fg.V.tolist(),
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_solve(args):
    g = load_game_file(args.spec)
    result, note = solve_level(g, args.level, check_prop1(g), SOLVE_EPSILON)
    print(json.dumps({
        "backend": result.backend,
        "iterations": result.iterations,
        "note": note,
        "finite_gap1": result.finite_gap1,
        "finite_gap2": result.finite_gap2,
        "objective": result.objective,
        "s": result.profile.s.tolist(),
        "t": result.profile.t.tolist(),
    }, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_certify(args):
    check_tolerances(args.epsilon)
    g = load_game_file(args.spec)
    *_, cert = certify_level(g, args.level, check_prop1(g), args.epsilon)
    print(json.dumps(cert.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK if cert.certified else EXIT_UNCERTIFIED


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


def cmd_run(args):
    cfg = RunConfig(epsilon=args.epsilon, max_level=args.max_level)
    report = run(load_game_file(args.spec), cfg)
    text = report.to_json()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        if args.emit_curves:
            _write_curves(args.output, report)
    else:
        print(text)
    if report.status == "failed":
        return EXIT_FATAL
    return EXIT_OK if report.status == "certified" else EXIT_UNCERTIFIED


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

    def add_common(p):
        p.add_argument("spec", help="path to the JSON game spec")

    p = sub.add_parser("check", help="validate a game spec")
    add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("discretize", help="dump level-n payoff tensors")
    add_common(p)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_discretize)

    p = sub.add_parser("solve", help="solve the level-n finite game")
    add_common(p)
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("certify", help="solve one level and certify it")
    add_common(p)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("run", help="full certification loop")
    add_common(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--max-level", type=int, default=RunConfig.max_level)
    p.add_argument("--output")
    p.add_argument("--emit-curves", action="store_true")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "emit_curves", False) and not args.output:
        parser.error("--emit-curves writes files next to the report, "
                     "so it needs --output")
    try:
        return args.func(args)
    except BnecertError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FATAL
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
