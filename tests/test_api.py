"""The public surface: what the benchmark scripts use of the package,
submodules that stay reachable under their own names, and no name in
src/ that only the tests use."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import bnecert
from bnecert.errors import NoConvergence

from conftest import ROOT, src_env

BENCH_SCRIPTS = sorted((ROOT / "bench").glob("*.py"))
CALLER_DIRS = ("src", "bench", "demos")


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


def bench_time_to_cert():
    """The literal TIME_TO_CERT of bench/run.py, read without running it."""
    tree = ast.parse((ROOT / "bench" / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "TIME_TO_CERT"):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py has no TIME_TO_CERT")


def test_bench_run_config_constructs():
    # the keywords the bench passes to RunConfig, whatever they become
    config = bench_time_to_cert()
    cfg = bnecert.RunConfig(**config)
    for name, value in config.items():
        assert getattr(cfg, name) == value


def test_signatures_take_no_tuning_options():
    # the quadrature tolerance and panel budget, fp's budget, the LP's
    # weights and the CLI's validation grid are fixed rules; only the
    # library calls the bench makes keep them, with no default
    want = {
        bnecert.certify: ["g", "F", "G", "epsilon"],
        bnecert.driver.certify_level: ["g", "n", "prop1", "epsilon"],
        bnecert.driver.solve_level: ["g", "n", "prop1", "epsilon"],
        bnecert.lift: ["profile", "player", "actions"],
        bnecert.load_game_file: ["path"],
        bnecert.check_prop1: ["g"],
        bnecert.load_game: ["spec", "grid_check"],
        bnecert.solve_lp: ["fg", "alpha1", "alpha2"],
        bnecert.solve_fp: ["fg", "max_iters", "target_gap"],
        bnecert.certificate.interim_values: ["g", "player", "opponent"],
        bnecert.quadrature.integrate_many: ["f", "count", "tol", "edges"],
    }
    for func, params in want.items():
        assert list(inspect.signature(func).parameters) == params, func
    for func in (bnecert.solve_lp, bnecert.solve_fp):
        assert all(p.default is inspect.Parameter.empty
                   for p in inspect.signature(func).parameters.values()), func
    fg = bnecert.build_finite(bnecert.load_game_file(
        ROOT / "demos" / "specs" / "zero_sum_match.json"), 2)
    with pytest.raises(TypeError):
        bnecert.solve_lp(fg)


# each public call that takes a player, on a game g with multipliers and
# a level-2 step strategy F (two actions, so either player's opponent)
PLAYER_CALLS = {
    "lift": lambda g, F, p: bnecert.lift(
        bnecert.BehavioralProfile(F.weights, F.weights), p,
        g.actions1).weights,
    "marginal": lambda g, F, p: bnecert.marginal(g, p, 0.5),
    "payoff": lambda g, F, p: g.payoff(p, 0.3, 0.7),
    "tables": lambda g, F, p: g.tables(0.3, 0.7, (p,), assimilated=False)[0],
    "multiplier": lambda g, F, p: g.multiplier(p, 0.5),
    "interim_values": lambda g, F, p: bnecert.certificate.interim_values(
        g, p, F)(np.array([0.5])),
}


@pytest.fixture(scope="module")
def game_and_strategy():
    g = bnecert.load_game_file(
        ROOT / "demos" / "specs" / "linear_prior_multipliers.json")
    profile = bnecert.BehavioralProfile(np.array([[1.0, 0.0], [0.25, 0.75]]),
                                        np.full((2, 2), 0.5))
    return g, bnecert.lift(profile, 1, g.actions1)


@pytest.mark.parametrize("player", [0, 3, "1", 1.5, True])
@pytest.mark.parametrize("call", PLAYER_CALLS)
def test_a_player_other_than_1_or_2_is_rejected(game_and_strategy, call,
                                                player):
    # each of these read any player but 1 as player 2
    with pytest.raises(ValueError,
                       match=f"^player must be 1 or 2, got {player!r}$"):
        PLAYER_CALLS[call](*game_and_strategy, player)


@pytest.mark.parametrize("call", PLAYER_CALLS)
def test_numpy_integer_players_are_players(game_and_strategy, call):
    for player in (1, 2):
        want = PLAYER_CALLS[call](*game_and_strategy, player)
        got = PLAYER_CALLS[call](*game_and_strategy, np.int64(player))
        np.testing.assert_array_equal(got, want)


def test_lookahead_is_a_module_constant_and_no_parameter():
    # the pass schedule is a fixed rule of the quadrature, not an option
    quadrature = bnecert.quadrature
    assert type(quadrature.LOOKAHEAD) is int and quadrature.LOOKAHEAD >= 1
    for module in (quadrature, bnecert.certificate, bnecert.model):
        for name, func in inspect.getmembers(module, inspect.isfunction):
            params = inspect.signature(func).parameters
            assert not any(p.lower() == "lookahead" for p in params), name


def src_definitions():
    """(name, where) of every module-level function, class and constant
    of src/bnecert, and of every method of its classes, dunders too."""
    for path in sorted((ROOT / "src" / "bnecert").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            targets = []
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node.name, path.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield item.name, f"{path.name}:{node.name}"
            elif isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id, path.name


def loaded_names():
    """Every name that code under src/, bench/ or demos/ loads: a Name
    read, an attribute, or a name imported from a module.  Test files
    (test_*.py) do not count."""
    names = set()
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name.startswith("test_"):
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                             ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(a.name for a in node.names)
    return names


# the dunders the scan checks: Python calls the others (__init__,
# __post_init__, __all__) for syntax of their own, but a renderer that
# only a test or a debugger reads is not part of the pipeline
RENDERERS = ("__str__", "__repr__")


def test_every_src_name_has_a_caller():
    """Code that only tests call is not part of the pipeline, so it goes.

    The scan matches names, not bindings: a method whose name is also
    loaded for something else counts as called wherever that name
    appears, so such methods can escape it.  Known escapes of this kind:
    value, index and run, and a method named uniform, which the bench
    loads as rng.uniform.
    """
    loaded = loaded_names()
    unused = sorted(f"{where}:{name}" for name, where in src_definitions()
                    if (not name.startswith("__") or name in RENDERERS)
                    and name not in loaded)
    assert unused == []


def test_no_submodule_is_shadowed():
    # a package attribute named like a submodule must be that submodule
    for info in pkgutil.iter_modules(bnecert.__path__):
        module = importlib.import_module(f"bnecert.{info.name}")
        assert getattr(bnecert, info.name) is module, info.name


def test_no_private_name_is_read_across_modules():
    """A name with a leading underscore belongs to the module that
    defines it: no module of src/bnecert reads one off an object other
    than self unless it defines that name itself."""
    reads = []
    for path in sorted((ROOT / "src" / "bnecert").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx,
                                                           ast.Store):
                defined.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                                ast.Store):
                defined.add(node.attr)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and node.attr.startswith("_")
                    and not node.attr.startswith("__")
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id == "self")
                    and node.attr not in defined):
                reads.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert reads == []


def test_certificate_imports_only_the_trusted_core():
    """certify is the part of the pipeline a reader must trust, so
    certificate.py imports from the package only errors, expr, model and
    quadrature: never a solver or the code that drives one.  import
    bnecert itself would load all of them."""
    path = ROOT / "src" / "bnecert" / "certificate.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "bnecert":
                continue
            inner = parts[1:] if node.level == 0 else parts
            if inner and inner[0]:
                imported.add(inner[0])  # from .model import ...
            else:
                imported.update(a.name for a in node.names)  # from . import
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names
                            if a.name.split(".")[0] == "bnecert")
    assert "quadrature" in imported  # the scan reads the imports
    assert imported <= {"errors", "expr", "model", "quadrature"}
    assert not imported & {"solver", "driver", "discretize", "cli"}


def test_quadrature_imports_only_math_numpy_and_errors():
    """The quadrature is the trusted core's numerics: quadrature.py
    imports only math, numpy and the package's errors."""
    path = ROOT / "src" / "bnecert" / "quadrature.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.add("." * node.level + (node.module or ""))
    assert "numpy" in imported  # the scan reads the imports
    assert imported <= {"math", "numpy", ".errors"}


def test_import_loads_no_scipy():
    """import bnecert loads no scipy module, directly or through another
    package, so a short run does not pay for scipy's start-up."""
    if importlib.util.find_spec("scipy") is None:
        pytest.skip("scipy is not installed, so nothing can load it")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, bnecert; print(sorted("
         "m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=src_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_a_run_loads_no_numpy_ma():
    """np.union1d and np.unique import numpy.ma, which costs a run more
    than a megabyte of peak RSS; this run compares levels 1, 2 and 4."""
    spec = ROOT / "demos" / "specs" / "zero_sum_match.json"
    code = ("import sys, bnecert as bc; "
            f"g = bc.load_game_file({str(spec)!r}); "
            "r = bc.run(g, bc.RunConfig(epsilon=1e-3, max_level=4)); "
            "assert len(r.diagnostics) == 2, r.diagnostics; "
            "print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
