"""Closed-loop planning benchmark for armplan.

    python3 perfbench/run.py --workload shelf.roadmap_opt --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` the run times set-up and the case loop with tracing off and
reports the end-to-end metrics, scaled to a reference host speed
(speed.py). With ``--trace 1`` it makes the same timed
pass, then a traced pass over the same inputs, and reports the per-layer
metrics and the tracing overhead. Both modes check every output and print
one JSON object as the last line of standard output; any violation makes
the exit code non-zero. See perfbench/README.md.
"""

from __future__ import annotations

import os

# one process, one BLAS/OpenMP thread: must be set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

try:
    import numpy as np

    import armplan
    from armplan import bench, roadmap
except ImportError as exc:
    sys.stderr.write(f"perfbench: cannot import armplan from {HERE.parent / 'src'}: {exc}\n")
    sys.exit(2)

import checks
import layers
import speed
import workloads
from tracer import Capture

CACHE_DIR = HERE / ".cache"
TAIL = 75  # reported tail percentile; see workloads.MIN_CASES


def _timed_setup(w, inp):
    """The set-up; returns its state and its start and end times."""
    gc.collect()
    t0 = time.perf_counter()
    state = workloads.setup(w, inp)
    return state, t0, time.perf_counter()


def _timed_pass(w, inp, state):
    """The case loop; returns results, wall seconds and the captured
    planner return values for the output checks."""
    if w.requery:
        inp.requery_ops = workloads.requery_ops(state, workloads.FIXED_SUITE_SEED, inp.n_cases)
    gc.collect()
    with Capture(bench) as cap:
        t0 = time.perf_counter()
        results = workloads.run_cases(w, inp, state, cap)
        wall = time.perf_counter() - t0
    return results, wall, cap.by_case


def _check(w, inp, state, results, captured) -> list[str]:
    cases = [case for _, case in workloads.cases_of(w, inp, state)]
    violations = checks.check_paths(inp.arm, inp.scene, cases, results, captured)
    if w.requery:
        violations += checks.check_requeries(state, results)
    return violations


def _failure_rate(results) -> float:
    return sum(r.record.outcome != bench.OUTCOME_OK for r in results) / len(results)


def end_to_end(setups, case_s, results) -> dict:
    """The end-to-end metrics from set-up seconds and per-case seconds."""
    ms = 1e3 * np.array(case_s)
    finals = [r.record.final_length for r in results if r.record.outcome == bench.OUTCOME_OK]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "case_ms.p50": {"value": float(np.percentile(ms, 50)), "unit": "ms"},
        f"case_ms.p{TAIL}": {"value": float(np.percentile(ms, TAIL)), "unit": "ms"},
        "cases_per_s": {"value": len(results) / sum(case_s), "unit": "1/s"},
        "ok_rate": {"value": 1.0 - _failure_rate(results), "unit": "fraction"},
        "path_len_rad": {"value": float(np.mean(finals)) if finals else 0.0, "unit": "rad"},
        "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
    }


def run_timed(w, inp):
    """End-to-end metrics scaled to the reference host speed (speed.py),
    and the same metrics unscaled."""
    speedo = speed.Speedometer()
    spans = []
    with speedo.sampling():
        for _ in range(w.setup_repeats):
            state, t0, t1 = _timed_setup(w, inp)
            spans.append((t0, t1))
        results, _, captured = _timed_pass(w, inp, state)
    raw_setups, setups = zip(*(speedo.scaled(t0, t1) for t0, t1 in spans))
    raw_s, case_s = zip(*(speedo.scaled(r.start, r.start + r.seconds) for r in results))
    raw = end_to_end(raw_setups, raw_s, results)
    raw["speed.kernel_ms"] = {"value": 1e3 * speedo.median_s(), "unit": "ms"}
    return (end_to_end(setups, case_s, results), raw, results,
            _check(w, inp, state, results, captured))


def run_traced(w, inp):
    state, t0, t1 = _timed_setup(w, inp)
    setup_s = t1 - t0
    timed, wall, captured = _timed_pass(w, inp, state)
    violations = _check(w, inp, state, timed, captured)

    tracer = layers.new_tracer()
    tracer.install(armplan)
    try:
        traced_state, t0, t1 = _timed_setup(w, inp)
        traced_setup_s = t1 - t0
        if w.roadmap_nodes:
            CACHE_DIR.mkdir(parents=True, exist_ok=True)
            saved = CACHE_DIR / f"roadmap-{w.name}-{os.getpid()}.npz"
            try:
                roadmap.save_roadmap(traced_state, saved)
            finally:
                saved.unlink(missing_ok=True)
        traced, traced_wall, captured = _timed_pass(w, inp, traced_state)
    finally:
        tracer.uninstall()
    violations += _check(w, inp, traced_state, traced, captured)
    violations += checks.check_same_records(timed, traced)
    metrics = layers.layer_metrics(
        tracer, _failure_rate(traced), overhead=traced_wall / wall,
        setup_overhead=traced_setup_s / setup_s)
    return metrics, traced, violations


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    w = workloads.WORKLOADS[args.workload]
    inp = workloads.prepare(w, args.seed, args.seconds, CACHE_DIR)
    raw = {}
    if args.trace:
        metrics, results, violations = run_traced(w, inp)
    else:
        metrics, raw, results, violations = run_timed(w, inp)

    print(f"workload {w.name}  seed {args.seed}  cases {len(results)}  trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<58} {m['value']:>14.6g} {m['unit']}")
    if raw:
        print("  unscaled:")
        for name, m in raw.items():
            print(f"  {name:<58} {m['value']:>14.6g} {m['unit']}")
    outcomes = dict(Counter(r.record.outcome for r in results))
    print(f"  outcomes: {outcomes}  failure_rate {_failure_rate(results):.4f}")
    for v in violations:
        print(f"  VIOLATION {v}")
    bad_cases = {v.split(":")[0] for v in violations}
    print(json.dumps({
        "correct": not violations,
        "attempted": len(results),
        "failed": len(bad_cases),
        "metrics": metrics,
    }))
    return 0 if not violations else 1


if __name__ == "__main__":
    sys.exit(main())
