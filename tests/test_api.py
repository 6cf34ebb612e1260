"""The public surface: what the benchmark scripts use of the package, and
submodules that stay reachable under their own names."""

import ast
import importlib
import pkgutil

import bnecert
from bnecert.errors import NoConvergence

from conftest import ROOT

BENCH_SCRIPTS = sorted((ROOT / "bench").glob("*.py"))


def bench_uses():
    """Every bc.<name> in the bench scripts (read, never changed), and the
    names they import from bnecert submodules."""
    attrs, imports = set(), set()
    for path in BENCH_SCRIPTS:
        aliases = set()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                aliases.update(a.asname or a.name for a in node.names
                               if a.name == "bnecert")
            elif (isinstance(node, ast.ImportFrom) and node.module
                  and node.module.startswith("bnecert")):
                imports.update((node.module, a.name) for a in node.names)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                attrs.add(node.attr)
    return attrs, imports


def test_bench_names_exist():
    attrs, imports = bench_uses()
    # the bench's names when this test was written: a scan that misses
    # one of them has stopped reading the scripts
    assert attrs >= {"GameSpec", "RunConfig", "build_finite", "certify",
                     "check_prop1", "convergence_diagnostic",
                     "default_alphas", "lift", "load_game",
                     "load_game_file", "run", "solve_fp", "solve_lp"}
    for name in sorted(attrs):
        assert hasattr(bnecert, name), f"bnecert.{name} is gone"
    assert ("bnecert.errors", "NoConvergence") in imports
    for module, name in sorted(imports):
        assert hasattr(importlib.import_module(module), name), (module, name)
    assert NoConvergence.__module__ == "bnecert.errors"


def test_bench_run_config_constructs():
    cfg = bnecert.RunConfig(epsilon=0.004, max_level=64, schedule="doubling")
    assert (cfg.epsilon, cfg.max_level, cfg.schedule) == (0.004, 64,
                                                          "doubling")


def test_no_submodule_is_shadowed():
    # a package attribute named like a submodule must be that submodule
    for info in pkgutil.iter_modules(bnecert.__path__):
        module = importlib.import_module(f"bnecert.{info.name}")
        assert getattr(bnecert, info.name) is module, info.name
