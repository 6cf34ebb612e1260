"""Discretize a game and lift a finite-game profile to step strategies.

The level-n finite game samples the prior-assimilated payoffs at the
grid {1/n, ..., 1}.  Any behavioral profile of that game lifts to one
right-continuous step CDF per action; each grid type contributes an
atom of mass weights/n.
"""

import os

import numpy as np

import bnecert as bc

HERE = os.path.dirname(__file__)


def main():
    g = bc.load_game_file(os.path.join(HERE, "specs", "zero_sum_match.json"))

    n = 4
    fg = bc.build_finite(g, n)
    print(f"level-{n} payoff tensor shape: {fg.U.shape}")
    print("U for the matching pair (x1, y1):")
    print(np.round(fg.U[0, 0], 4))

    # a threshold policy: low types play x2, high types x1
    s = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
    profile = bc.BehavioralProfile(s, s.copy())
    F = bc.lift(profile, 1, actions=g.actions1)

    print("\nstep CDFs of player 1 (threshold at theta = 1/2):")
    print("theta   F_x1     F_x2     sum")
    for theta in (0.0, 0.25, 0.49, 0.5, 0.75, 1.0):
        fx1, fx2 = F.values(theta)
        print(f"{theta:5.2f}   {fx1:.4f}   {fx2:.4f}   {fx1 + fx2:.4f}")
    # the per-action CDFs always sum to floor(n*theta)/n -- the lifted
    # strategy spreads each grid type's mass across its chosen actions


if __name__ == "__main__":
    main()
