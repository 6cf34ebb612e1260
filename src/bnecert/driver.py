"""End-to-end certification loop over discretization levels.

Levels double, 1, 2, 4, ..., up to the cap, which is the last level when
it is not a power of two; each level is discretized, solved, lifted, and
certified by certify_level, the one level op that `bnecert certify` runs
too, and the loop stops at the first level of this sequence that
certifies, which need not be the smallest level that would.  Failed
levels are recorded and skipped; a run where every level fails reports
status "failed" with each level's error.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .certificate import certify, check_tolerances
from .discretize import build_finite, check_count, lift
from .errors import BnecertError, NoConvergence
from .prop1 import check_prop1, default_alphas
from .solver import solve_fp, solve_lp

# fictitious play's iteration budget per level
FP_MAX_ITERS = 2000


@dataclass(frozen=True)
class RunConfig:
    epsilon: float
    max_level: int = 32
    schedule: str = "doubling"  # the only value: levels always double

    def __post_init__(self):
        check_tolerances(self.epsilon)
        check_count("max_level", self.max_level)
        # numpy numbers pass the checks but not json.dumps
        object.__setattr__(self, "epsilon", float(self.epsilon))
        object.__setattr__(self, "max_level", int(self.max_level))
        if self.schedule != "doubling":
            raise ValueError(f"levels always double; schedule must be "
                             f"'doubling', got {self.schedule!r}")


@dataclass
class RunReport:
    config: RunConfig
    status: str = "exhausted"  # or "certified", or "failed" (no level solved)
    certified_level: int | None = None
    levels: list = field(default_factory=list)
    strategies: dict | None = None
    diagnostics: list = field(default_factory=list)
    # (n, F, G, certificate) per solved level; not serialized
    level_strategies: list = field(default_factory=list, repr=False)

    def to_dict(self):
        return {
            "config": asdict(self.config),
            "status": self.status,
            "certified_level": self.certified_level,
            "levels": self.levels,
            "strategies": self.strategies,
            "diagnostics": self.diagnostics,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def schedule_levels(max_level):
    """Levels 1, 2, 4, 8, ... up to max_level, then max_level itself when
    it is not a power of two."""
    # (max_level - 1).bit_length() powers of two lie below max_level
    return [2**k for k in range((max_level - 1).bit_length())] + [max_level]


def sup_distance(A, B):
    """Exact max over theta in [0, 1] and all actions of |F_A - F_B|.

    Both CDFs are right-continuous steps that jump only at their atoms,
    so the supremum is attained at an atom of A's or B's level grid (a
    point k/n_B equal to an atom j/n_A is the same double).
    """
    atoms = np.concatenate([A.atom_points, B.atom_points])
    return float(np.max(np.abs(A.values(atoms) - B.values(atoms))))


def convergence_diagnostic(level_strategies):
    """Sup-distances between consecutive solved levels (weak-convergence
    proxy; no assertion is attached -- convergence is only guaranteed
    along a subsequence)."""
    table = []
    for (na, Fa, Ga), (nb, Fb, Gb) in zip(level_strategies,
                                          level_strategies[1:]):
        table.append({
            "level_a": na,
            "level_b": nb,
            "sup_distance1": sup_distance(Fa, Fb),
            "sup_distance2": sup_distance(Ga, Gb),
        })
    return table


def solve_level(g, n, prop1, epsilon):
    """Build and solve the level-n game: the LP when check_prop1's result
    prop1 finds the multiplier condition, fictitious play otherwise.

    Returns (result, note).  Fictitious play aims at a finite gap of
    epsilon / 10 within FP_MAX_ITERS iterations and falls back to its best
    iterate, with a note, when that target is out of reach.
    """
    fg = build_finite(g, n)
    if prop1.linearizable:
        alpha1, alpha2 = default_alphas(fg, g, prop1)
        return solve_lp(fg, alpha1, alpha2), None
    try:
        return solve_fp(fg, max_iters=FP_MAX_ITERS,
                        target_gap=epsilon / 10.0), None
    except NoConvergence as exc:
        return exc.result, "fp did not reach the target gap; best iterate used"


def certify_level(g, n, prop1, epsilon):
    """solve_level, then lift both players with the game's action labels
    and certify them: (result, note, F, G, certificate)."""
    result, note = solve_level(g, n, prop1, epsilon)
    F = lift(result.profile, 1, g.actions1)
    G = lift(result.profile, 2, g.actions2)
    return result, note, F, G, certify(g, F, G, epsilon)


def run(g, cfg):
    """Schedule levels, solve, lift, certify; stop on the first success."""
    report = RunReport(config=cfg)
    prop1 = check_prop1(g)
    backend = "lp" if prop1.linearizable else "fp"

    solved = []  # (n, F, G, certificate)
    for n in schedule_levels(cfg.max_level):
        record = {"n": n, "backend": backend}
        start = time.perf_counter()
        try:
            result, note, F, G, cert = certify_level(g, n, prop1, cfg.epsilon)
            record.update({
                "finite_gap1": result.finite_gap1,
                "finite_gap2": result.finite_gap2,
                "solver_iterations": result.iterations,
                "certificate": cert.to_dict(),
                "note": note,
                "error": None,
            })
            solved.append((n, F, G, cert))
        except BnecertError as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["wall_time"] = time.perf_counter() - start
        report.levels.append(record)
        if record["error"] is None and cert.certified:
            report.status = "certified"
            report.certified_level = n
            break

    if not solved:
        report.status = "failed"
        return report

    report.level_strategies = solved
    report.diagnostics = convergence_diagnostic(
        [(n, F, G) for n, F, G, _ in solved]
    )
    if report.status == "certified":
        n, F, G, _ = solved[-1]
    else:
        # best uncertified attempt by conservative worst-case gap
        n, F, G, _ = min(
            solved,
            key=lambda item: max(item[3].gap1 + item[3].quad_error1,
                                 item[3].gap2 + item[3].quad_error2),
        )
    report.strategies = {
        "player1": F.serialize(1),
        "player2": G.serialize(2),
    }
    return report
