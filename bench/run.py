"""Fixed-work certification benchmark.

    python3 bench/run.py --workload lp-ladder --seed 1 --seconds 30 --trace 0

Runs ROUNDS whole passes of one workload (see harness.py and README.md),
checks every level op's outputs, and prints the end-to-end metrics
(--trace 0) or the per-layer metrics of a traced run (--trace 1).  A run
is a fixed amount of work; --seconds is the run length BENCHMARK.json
declares for it, and a run that takes much longer says so.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A JSON record of the run, with every
item and reference time, per-op fingerprints and, when traced, every
span, is written under bench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"

# Recorded, not gated: time to a certificate depends on where the atomic
# semantics of certify end the run, not on how fast the stages are.
TIME_TO_CERT = {"epsilon": 0.004, "max_level": 64, "schedule": "doubling"}

# Untraced passes per run; a traced run makes as many traced ones too.
ROUNDS = 3

# About the median time of harness.reference() on the 2-core development
# VM; times are scaled to a machine on which it takes exactly this long.
REFERENCE_S = 0.009


def import_program():
    """Import bnecert from this checkout's src/, or exit with an error."""
    if not (SRC / "bnecert" / "__init__.py").is_file():
        sys.exit(f"error: no bnecert package under {SRC}")
    sys.path.insert(0, str(SRC))
    import bnecert
    if Path(bnecert.__file__).resolve().parent != SRC / "bnecert":
        sys.exit(f"error: imported bnecert from {bnecert.__file__}, "
                 f"not from {SRC}")


def environment():
    import numpy as np
    from importlib import metadata

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "numpy_blas": blas,
        **{var: os.environ.get(var, "unset")
           for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": commit,
    }


def peak_rss_mb():
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # kilobytes on Linux, bytes on macOS
    return rss / 1024.0 ** (2 if sys.platform == "darwin" else 1)


def speed_factor(p):
    """REFERENCE_S over the median time of the reference in pass `p`."""
    return REFERENCE_S / statistics.median(p.reference_s)


def scaled_items(p):
    """(kind, op, scaled seconds) of each item of pass `p`: its time times
    REFERENCE_S over the median of the three reference times just before
    it and the three just after it.  One reference time can be caught by
    a burst of interference; the median of six is not."""
    ref = p.reference_s
    return [(kind, op, t * REFERENCE_S
             / statistics.median(ref[max(0, i - 2):i + 4]))
            for i, (kind, op, t) in enumerate(p.items)]


def fixed_work(passes):
    """Setup times, level-op times and pass time of a run, in scaled
    seconds, each item at its fastest over the passes.  An item is a
    game's setup, a part of a level op or a game's diagnostic; a level
    op's time is the sum of its parts.

    A shared machine's speed drifts by tens of percent within seconds to
    minutes; scaling each item by the reference runs around it removes
    most of that.  Every pass does the same work, so an item's fastest
    scaled time is its cost without the bursts of interference that the
    scaling misses.  The pass time is the sum over its items (each
    game's setup, level ops and diagnostic); the loop around them takes
    well under a millisecond.
    """
    fastest = [(*column[0][:2], min(t for _, _, t in column))
               for column in zip(*map(scaled_items, passes))]
    setup = [t for kind, _, t in fastest if kind == "setup"]
    ops = [0.0] * len(passes[0].ops)
    for _, op, t in fastest:
        if op is not None:
            ops[op] += t
    return setup, ops, sum(t for _, _, t in fastest)


def end_to_end(passes):
    """End-to-end metrics of a run's untraced passes."""
    setup, ops, pass_s = fixed_work(passes)
    return {
        "setup_s": sum(setup),
        "level_s.p50": statistics.median(ops),
        "pass_s": pass_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def worst_gap(op):
    return max(op.finite_gap1, op.finite_gap2)


def layer_sums(p, harness):
    """Per-layer metrics of one traced pass."""
    sums = dict.fromkeys(harness.SPANS, 0.0)
    for s in p.spans:
        sums[s.name] += s.end - s.start
    # ops whose solve returned, whatever a later stage did
    lp = [op for op in p.ops if op.backend == "lp"]
    lp_solved = [op for op in lp if op.iterations is not None]
    fp = [op for op in p.ops if op.backend == "fp"]
    fp_solved = [op for op in fp if op.iterations is not None]
    certified = [op.certificate for op in p.ops if op.certificate]
    return {
        **sums,
        "discretize.entries": sum(op.entries for op in p.ops),
        "solver.lp_pivots": sum(op.iterations for op in lp_solved),
        "solver.lp_failed": sum(op.error_stage == "solve" for op in lp),
        "solver.lp_finite_gap_max": max(map(worst_gap, lp_solved),
                                        default=0.0),
        "solver.fp_iters": sum(op.iterations for op in fp_solved),
        "solver.fp_converged_frac": (
            sum(bool(op.converged) for op in fp) / len(fp) if fp else 0.0),
        "solver.fp_best_gap_max": max(map(worst_gap, fp_solved),
                                      default=0.0),
        "certify.quad_error_max": max(
            (max(c["quad_error1"], c["quad_error2"]) for c in certified),
            default=0.0),
        # spans do not nest, so their sum is the covered part of the pass
        "bench.glue_s": p.wall_s - sum(sums.values()) - sum(p.reference_s),
    }


def per_layer(traced, untraced, harness):
    rows = [layer_sums(p, harness) for p in traced]
    out = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    out["trace.overhead_frac"] = (
        fixed_work(traced)[2] / fixed_work(untraced)[2] - 1.0)
    return out


def fingerprint_digest(ops):
    text = json.dumps([op.fingerprint() for op in ops], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def time_to_certificate():
    """One bnecert.run per demo spec; recorded, never gated."""
    import bnecert as bc
    import harness

    out = []
    cfg = bc.RunConfig(**TIME_TO_CERT)
    for name in harness.DEMO_SPECS:
        start = time.perf_counter()
        rec = {"spec": name}
        try:
            g = bc.load_game_file(harness.DEMO_DIR / f"{name}.json")
            report = bc.run(g, cfg)
            rec.update(status=report.status,
                       certified_level=report.certified_level,
                       levels_attempted=len(report.levels))
        except Exception as exc:  # recorded against the spec, never raised
            rec.update(status="error", error=f"{type(exc).__name__}: {exc}")
        rec["wall_s"] = time.perf_counter() - start
        out.append(rec)
    return out


def declared_units():
    """Name -> unit of the end-to-end and of the per-layer metrics that
    BENCHMARK.json declares."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    return [{m["name"]: m["unit"] for m in doc[kind]}
            for kind in ("end_to_end", "per_layer")]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import harness  # imports bnecert, so only once src/ is on the path

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(harness.WORKLOADS)}")
    e2e_units, layer_units = declared_units()
    env = environment()
    print("env", json.dumps(env, sort_keys=True))

    inputs = harness.WORKLOADS[args.workload](args.seed)
    harness.warm_up()
    untraced, traced = [], []
    start = time.perf_counter()
    # A traced run alternates untraced and traced passes; the ratio of
    # their times is the tracing overhead.
    for _ in range(ROUNDS):
        untraced.append(harness.run_pass(inputs, traced=False))
        if args.trace:
            traced.append(harness.run_pass(inputs, traced=True))
    elapsed = time.perf_counter() - start

    passes = untraced + traced
    all_ops = [op for p in passes for op in p.ops]
    failed = [op for op in all_ops if op.failed]
    digests = sorted({fingerprint_digest(p.ops) for p in passes})
    e2e = end_to_end(untraced)
    per_pass = len(passes[0].ops)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(untraced)} untraced and {len(traced)} traced passes, "
          f"each {per_pass} level ops over {len(inputs)} games, "
          f"in {elapsed:.1f} s")
    print("  unscaled pass wall times (s): "
          + ", ".join(f"{p.wall_s - sum(p.reference_s):.3f}"
                      for p in untraced)
          + "; speed factors: "
          + ", ".join(f"{speed_factor(p):.3f}" for p in untraced))
    if elapsed > 1.5 * args.seconds * (2 if args.trace else 1):
        print(f"  note: the passes took {elapsed:.1f} s, well over the "
              f"declared {args.seconds:g} s; this machine is slower than "
              f"the one the workloads were sized on")
    for name, value in e2e.items():
        print(f"  {name:<12} {value:12.6f} {e2e_units[name]}")
    print(f"  failed_frac  {len(failed) / len(all_ops):12.6f} ratio "
          f"({len(failed)} failed of {len(all_ops)} level ops attempted)")
    print(f"  throughput   {per_pass / e2e['pass_s']:12.6f} ops/s "
          f"({per_pass} ops per pass)")
    by_type = dict(Counter((op.error or op.check).split(":")[0]
                           for op in failed))
    print(f"  failed ops by type: {by_type}")
    failures = Counter(f"{op.game} n={op.n}: "
                       + (f"{op.error_stage}: {op.error}" if op.error
                          else op.check)
                       for op in failed)
    for text, count in failures.items():
        print(f"  failed op, in {count} of {len(passes)} passes: {text}")
    if len(digests) > 1:
        print("  warning: passes over the same inputs gave different results")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "elapsed_s": elapsed, "env": env,
        "games": [vars(g) for g in inputs],
        "pass_wall_s": {
            "untraced": [p.wall_s - sum(p.reference_s) for p in untraced],
            "traced": [p.wall_s - sum(p.reference_s) for p in traced]},
        "speed_factor": {"untraced": list(map(speed_factor, untraced)),
                         "traced": list(map(speed_factor, traced))},
        "passes": [{"traced": p.spans != [], "items": p.items,
                    "reference_s": p.reference_s} for p in passes],
        "end_to_end": e2e,
        "failed_frac": len(failed) / len(all_ops),
        "failed_by_type": by_type,
        "failed_ops": failures,
        "fingerprints": [op.fingerprint() for op in passes[0].ops],
        "fingerprint_digests": digests,
    }
    if args.trace:
        layers = per_layer(traced, untraced, harness)
        for name, value in layers.items():
            print(f"  {name:<26} {value:14.6g} {layer_units[name]}")
        print(f"  fingerprint digest {' '.join(digests)}")
        record["per_layer"] = layers
        record["spans"] = [vars(s) for p in traced for s in p.spans]
        if args.workload == "lp-ladder":
            record["time_to_certificate"] = time_to_certificate()
            for rec in record["time_to_certificate"]:
                print("  time to certificate", json.dumps(rec, sort_keys=True))
        values, units = layers, layer_units
    else:
        values, units = e2e, e2e_units

    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / (f"{args.workload}-seed{args.seed}"
                          f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(f"record written to {path.relative_to(ROOT)}")

    print(json.dumps({
        "correct": not any(op.check for op in all_ops),
        "attempted": len(all_ops),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
