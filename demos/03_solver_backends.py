"""Compare the two finite-game solver backends on small games.

The LP backend applies whenever the multiplier condition makes the
slack program linear (constant-sum raw utilities, or user-supplied
multipliers).  Fictitious play covers the general-sum case.  `run` and
the command line pick the backend from the game; calling solve_fp
directly, as below, runs fictitious play on a game that the LP solves.
"""

import os

import numpy as np

import bnecert as bc
from bnecert.errors import NoConvergence

HERE = os.path.dirname(__file__)


def main():
    g = bc.load_game_file(os.path.join(HERE, "specs", "zero_sum_match.json"))
    prop1 = bc.check_prop1(g)
    print(f"multiplier condition: {prop1.kind}")

    n = 2
    fg = bc.build_finite(g, n)

    # the LP reads player 1's strategy from its duals, which is sound
    # only under the game's own per-type weights
    lp = bc.solve_lp(fg, *bc.default_alphas(fg, g, prop1))
    print(f"\nlp: gaps ({lp.finite_gap1:.2e}, {lp.finite_gap2:.2e}) "
          f"in {lp.iterations} pivots")

    try:
        fp = bc.solve_fp(fg, max_iters=5000, target_gap=1e-6)
    except NoConvergence as exc:
        fp = exc.result
    print(f"fp: gaps ({fp.finite_gap1:.2e}, {fp.finite_gap2:.2e}) "
          f"in {fp.iterations} iterations")

    print("\nplayer 1 behavioral rows (one per grid type):")
    for name, res in (("lp", lp), ("fp", fp)):
        print(f"  {name} {np.round(res.profile.s, 3).tolist()}")

    # with user multipliers the weights are marginal over multiplier,
    # from the spec's m1/m2; uniform ones would give a non-equilibrium
    g2 = bc.load_game_file(
        os.path.join(HERE, "specs", "linear_prior_multipliers.json"))
    prop2 = bc.check_prop1(g2)
    fg2 = bc.build_finite(g2, 4)
    alpha1, alpha2 = bc.default_alphas(fg2, g2, prop2)
    res = bc.solve_lp(fg2, alpha1, alpha2)
    print(f"\nuser-multiplier game: condition={prop2.kind}, "
          f"gaps ({res.finite_gap1:.2e}, {res.finite_gap2:.2e})")


if __name__ == "__main__":
    main()
