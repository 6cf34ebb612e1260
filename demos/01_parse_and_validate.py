"""Load a game spec, validate it, and inspect the normalized model.

A game is four ingredients: two action sets, one utility expression per
action pair and player, and a joint prior density over the unit square.
Loading normalizes the prior, takes each payoff as prior x utility, and
rejects anything that is negative, non-finite, or degenerate.
"""

import os

import bnecert as bc

HERE = os.path.dirname(__file__)


def main():
    path = os.path.join(HERE, "specs", "linear_prior_multipliers.json")
    g = bc.load_game_file(path)

    print(f"actions: {g.actions1} vs {g.actions2}")
    print(f"prior normalization constant: {g.prior_norm:.6f}")
    # each payoff is the normalized prior times the raw utility
    t = 0.75
    raw, = g.tables(t, t, (1,), assimilated=False)
    print(f"u[0][0] at ({t}, {t}): payoff {g.payoff(1, t, t)[0, 0]:.4f} = "
          f"prior {g.prior(t, t):.4f} x utility {raw[0, 0]:.4f}")

    # the prior is now a proper density; its marginals integrate to one
    for theta in (0.0, 0.5, 1.0):
        m = bc.marginal(g, 1, theta)
        print(f"marginal density of player 1 at theta={theta}: {m:.4f}")

    # conditional beliefs shift with one's own type under this prior
    print("belief about the opponent given theta1=0 vs theta1=1:")
    for own in (0.0, 1.0):
        row = [g.prior(own, other) / bc.marginal(g, 1, own)
               for other in (0.25, 0.75)]
        print(f"  theta1={own}: b(0.25|.)={row[0]:.3f}  b(0.75|.)={row[1]:.3f}")

    # malformed expressions are rejected with a position
    try:
        bc.parse("theta1 * ")
    except bc.errors.ExprSyntaxError as exc:
        print(f"parse error as expected: {exc}")


if __name__ == "__main__":
    main()
