"""Seeded game generator for the benchmark.

Every game is a JSON spec in the schema the README documents, so the
program under test receives it as plain input.  Two families:

  * constant-sum: v is the negation of u, cell by cell, so check_prop1
    classifies the game as 'zero_sum' and the LP backend solves it;
  * general-sum: u and v are drawn independently, so the game is not
    linearizable and fictitious play solves it.

Each payoff cell is a constant plus TERMS_PER_CELL coefficient-weighted
terms from TERMS.  The terms cycle through TERMS from an offset set by
the game's index, so a game evaluates the same terms whatever the seed,
and the seed moves the coefficients and the prior, not the amount of
work.  Every term is
finite on [0, 1]^2 and every prior is 1 + a*theta1 + b*theta2 with
a, b >= 0, so each spec is valid by construction.  Games are never
re-drawn or dropped, whatever a solver does with them.
"""

from __future__ import annotations

import itertools

import numpy as np

# Smooth, transcendental and kinked terms of the expression language.
# min and abs kink along the diagonal, which forces adaptive quadrature
# refinement during certification.
TERMS = (
    "theta1*theta2",
    "theta1^2",
    "sqrt(theta1)",
    "sqrt(theta2)",
    "exp(theta1 - theta2)",
    "log(1 + theta1)",
    "log(1 + theta2)",
    "sin(3*theta1*theta2)",
    "min(theta1, theta2)",
    "abs(theta1 - theta2)",
)
TERMS_PER_CELL = 3

FAMILIES = ("constant_sum", "general_sum")


def _table(rng, L, H, slots):
    """L x H expression table; `slots` yields the index of each term."""
    def cell():
        parts = [f"{rng.uniform(-1.0, 1.0):.4f}"]
        for _ in range(TERMS_PER_CELL):
            parts.append(f"{rng.uniform(-1.0, 1.0):.4f}*{TERMS[next(slots)]}")
        return " + ".join(parts)

    return [[cell() for _ in range(H)] for _ in range(L)]


def game_spec(seed, index, family, L, H):
    """Spec dict of game `index` of a workload drawn from `seed`.

    Each (seed, index) pair has its own random stream, so one game does
    not depend on how many others a workload draws.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    rng = np.random.default_rng([seed, index])
    offset = index % len(TERMS)
    slots = ((offset + k) % len(TERMS) for k in itertools.count())
    u = _table(rng, L, H, slots)
    if family == "constant_sum":
        v = [[f"-({e})" for e in row] for row in u]
    else:
        v = _table(rng, L, H, slots)
    a, b = rng.uniform(0.0, 1.0, size=2)
    return {
        "actions1": [f"x{i + 1}" for i in range(L)],
        "actions2": [f"y{j + 1}" for j in range(H)],
        "u": u,
        "v": v,
        "prior": f"1 + {a:.4f}*theta1 + {b:.4f}*theta2",
    }
