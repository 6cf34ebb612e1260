"""Checks on the benchmark's seeded game generator.

Run with: PYTHONPATH=src python -m pytest bench
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bnecert as bc  # noqa: E402

import games  # noqa: E402
import harness  # noqa: E402

SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3))
EXPECTED_KIND = {"constant_sum": "zero_sum", "general_sum": "none"}


@pytest.mark.parametrize("family", games.FAMILIES)
@pytest.mark.parametrize("seed", (0, 1, 7))
def test_specs_load_and_classify(seed, family):
    for index, (L, H) in enumerate(SHAPES):
        spec = games.game_spec(seed, index, family, L, H)
        g = bc.load_game(bc.GameSpec.from_dict(spec), grid_check=21)
        assert (g.L, g.H) == (L, H)
        assert bc.check_prop1(g).kind == EXPECTED_KIND[family]


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_workload_specs_pass_load_game(name):
    for game in harness.WORKLOADS[name](3):
        bc.load_game(bc.GameSpec.from_dict(game.spec))


def test_same_seed_same_specs():
    for name, make in harness.WORKLOADS.items():
        assert make(5) == make(5), name
    assert games.game_spec(5, 0, "general_sum", 2, 3) != \
        games.game_spec(6, 0, "general_sum", 2, 3)


def test_every_term_appears():
    spec = games.game_spec(0, 0, "general_sum", 3, 3)
    text = " ".join(e for table in (spec["u"], spec["v"])
                    for row in table for e in row)
    for term in games.TERMS:
        assert term in text
