"""Per-layer counters read at layer boundaries, and the per-layer metrics
computed from a traced pass.

Every count comes from the arguments and return values of a public function
(batch rows, IK solutions, ``QueryResult.failure``, ``OptResult`` fields);
the package itself carries no counter.
"""

from __future__ import annotations

import os

import numpy as np

from tracer import Tracer

# configs_in_collision batch-size buckets by their largest row count: RRT
# extensions are small, roadmap edges (102 rows) and query prescreens
# mid-sized, sampling batches (1024) and trajectory validation large.
BUCKETS = (("small", 64), ("mid", 511), ("large", None))


def _bucket(rows: int) -> str:
    return next(name for name, hi in BUCKETS if hi is None or rows <= hi)


def _configs_in_collision(tr, args, kwargs, flags, dt):
    rows = len(flags)
    b = _bucket(rows)
    tr.count(f"cic.{b}.calls")
    tr.count(f"cic.{b}.configs", rows)
    tr.count(f"cic.{b}.s", dt)


def _pair_signed_distances(tr, args, kwargs, sd, dt):
    tr.count("psd.configs", sd.shape[0])
    if tr.scope() == "optimize":
        tr.count("optimize.sd_configs", sd.shape[0])


def _edge_in_collision(tr, args, kwargs, blocked, dt):
    scope = tr.scope()
    if scope is not None:
        tr.count(f"{scope}.edge_checks")
        tr.count(f"{scope}.edge_free", not blocked)


def _trajectory_in_collision(tr, args, kwargs, result, dt):
    traj = args[2] if len(args) > 2 else kwargs["traj"]
    n_interp = args[3] if len(args) > 3 else kwargs.get("n_interp", 100)
    tr.count("tic.configs", (len(traj) - 1) * (n_interp + 2))


def _solve_ik(tr, args, kwargs, sols, dt):
    tr.count("ik.solutions", len(sols))
    tr.count("ik.empty", not sols)


def _save_roadmap(tr, args, kwargs, result, dt):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tr.count("save_roadmap.bytes", os.path.getsize(path))


def _query(tr, args, kwargs, res, dt):
    if res.failure is not None:
        tr.count(f"query.failure.{res.failure}")


def _requery(tr, args, kwargs, path, dt):
    tr.count("requery.found", path is not None)


def _rrt_plan(tr, args, kwargs, path, dt):
    tr.count("rrt.none", path is None)
    if tr.scope() == "generate_test_suite":
        tr.count("gts.rrt_calls")


def _generate_test_suite(tr, args, kwargs, suite, dt):
    tr.count("gts.cases", len(suite))


def _resample_path(tr, args, kwargs, path, dt):
    tr.count("resample.waypoints_out", len(path))


def _optimize(tr, args, kwargs, res, dt):
    tr.count("opt.iterations", res.iterations)
    tr.count("opt.rounds", len(res.merit_log))
    tr.count("opt.converged", res.converged)
    tr.count("opt.collision_free", res.collision_free)


HOOKS = {
    "configs_in_collision": _configs_in_collision,
    "pair_signed_distances": _pair_signed_distances,
    "edge_in_collision": _edge_in_collision,
    "trajectory_in_collision": _trajectory_in_collision,
    "solve_ik": _solve_ik,
    "save_roadmap": _save_roadmap,
    "query": _query,
    "invalidate_and_requery": _requery,
    "rrt_plan": _rrt_plan,
    "generate_test_suite": _generate_test_suite,
    "resample_path": _resample_path,
    "optimize": _optimize,
}


def new_tracer() -> Tracer:
    return Tracer(HOOKS, keep_samples=("invalidate_and_requery",))


def _div(a: float, b: float) -> float:
    """a / b, or 0 when the layer never ran (b == 0)."""
    return a / b if b else 0.0


def layer_metrics(tr: Tracer, failure_rate: float, overhead: float,
                  setup_overhead: float) -> dict[str, dict]:
    """Every per-layer metric as ``{name: {"value", "unit"}}``. Rates of a
    layer that never ran on the workload read 0."""
    s = tr.stats
    c = tr.counters
    out: dict[str, dict] = {}

    def put(name, unit, value):
        out[name] = {"value": float(value), "unit": unit}

    cic = s["configs_in_collision"]
    cic_configs = sum(c[f"cic.{b}.configs"] for b, _ in BUCKETS)
    put("collision.configs_in_collision.calls", "count", cic.calls)
    put("collision.configs_in_collision.configs", "count", cic_configs)
    put("collision.configs_in_collision.us_per_config", "us/config", 1e6 * _div(cic.total, cic_configs))
    for b, _ in BUCKETS:
        put(f"collision.configs_in_collision.{b}.calls", "count", c[f"cic.{b}.calls"])
        put(f"collision.configs_in_collision.{b}.configs", "count", c[f"cic.{b}.configs"])
        put(f"collision.configs_in_collision.{b}.us_per_config", "us/config",
            1e6 * _div(c[f"cic.{b}.s"], c[f"cic.{b}.configs"]))

    psd = s["pair_signed_distances"]
    put("collision.pair_signed_distances.calls", "count", psd.calls)
    put("collision.pair_signed_distances.configs", "count", c["psd.configs"])
    put("collision.pair_signed_distances.us_per_config", "us/config", 1e6 * _div(psd.total, c["psd.configs"]))

    eic = s["edge_in_collision"]
    put("collision.edge_in_collision.calls", "count", eic.calls)
    put("collision.edge_in_collision.self_us_per_call", "us/call", 1e6 * _div(eic.self, eic.calls))

    tic = s["trajectory_in_collision"]
    put("collision.trajectory_in_collision.calls", "count", tic.calls)
    put("collision.trajectory_in_collision.configs", "count", c["tic.configs"])
    put("collision.trajectory_in_collision.ms_per_call", "ms/call", 1e3 * _div(tic.total, tic.calls))

    ik = s["solve_ik"]
    put("robot.solve_ik.calls", "count", ik.calls)
    put("robot.solve_ik.ms_per_call", "ms/call", 1e3 * _div(ik.total, ik.calls))
    put("robot.solve_ik.solutions_per_call", "count/call", _div(c["ik.solutions"], ik.calls))
    put("robot.solve_ik.empty", "count", c["ik.empty"])

    build = s["build_roadmap"]
    put("roadmap.build_roadmap.calls", "count", build.calls)
    put("roadmap.build_roadmap.self_s_per_call", "s/call", _div(build.self, build.calls))
    put("roadmap.build_roadmap.edge_checks", "count", c["build_roadmap.edge_checks"])
    put("roadmap.build_roadmap.edge_accept_ratio", "fraction",
        _div(c["build_roadmap.edge_free"], c["build_roadmap.edge_checks"]))
    put("roadmap.save_roadmap.bytes", "bytes", c["save_roadmap.bytes"])

    q = s["query"]
    put("roadmap.query.calls", "count", q.calls)
    put("roadmap.query.self_ms_per_call", "ms/call", 1e3 * _div(q.self, q.calls))
    for reason in ("no_ik", "start_connect", "goal_connect"):
        put(f"roadmap.query.failure.{reason}", "count", c[f"query.failure.{reason}"])

    ksp = s["k_shortest_paths"]
    put("roadmap.k_shortest_paths.calls", "count", ksp.calls)
    put("roadmap.k_shortest_paths.ms_per_call", "ms/call", 1e3 * _div(ksp.total, ksp.calls))

    rq = s["invalidate_and_requery"]
    lat = sorted(rq.samples)
    put("roadmap.invalidate_and_requery.calls", "count", rq.calls)
    put("roadmap.invalidate_and_requery.ms_p50", "ms/call", 1e3 * float(np.percentile(lat, 50)) if lat else 0.0)
    put("roadmap.invalidate_and_requery.ms_p90", "ms/call", 1e3 * float(np.percentile(lat, 90)) if lat else 0.0)
    put("roadmap.invalidate_and_requery.found_ratio", "fraction", _div(c["requery.found"], rq.calls))

    rrt = s["rrt_plan"]
    put("baselines.rrt_plan.calls", "count", rrt.calls)
    put("baselines.rrt_plan.self_ms_per_call", "ms/call", 1e3 * _div(rrt.self, rrt.calls))
    put("baselines.rrt_plan.edge_checks_per_call", "count/call", _div(c["rrt_plan.edge_checks"], rrt.calls))
    put("baselines.rrt_plan.success_ratio", "fraction", _div(rrt.calls - c["rrt.none"], rrt.calls))
    put("baselines.rrt_plan.none", "count", c["rrt.none"])

    gts = s["generate_test_suite"]
    put("scenarios.generate_test_suite.ms_per_case", "ms/case", 1e3 * _div(gts.total, c["gts.cases"]))
    put("scenarios.generate_test_suite.rrt_calls_per_case", "count/case", _div(c["gts.rrt_calls"], c["gts.cases"]))

    rs = s["resample_path"]
    put("seedprep.resample_path.waypoints_out_per_call", "count/call", _div(c["resample.waypoints_out"], rs.calls))

    opt = s["optimize"]
    put("optimizer.optimize.calls", "count", opt.calls)
    put("optimizer.optimize.self_ms_per_call", "ms/call", 1e3 * _div(opt.self, opt.calls))
    put("optimizer.optimize.iterations_per_call", "count/call", _div(c["opt.iterations"], opt.calls))
    put("optimizer.optimize.rounds_per_call", "count/call", _div(c["opt.rounds"], opt.calls))
    put("optimizer.optimize.converged_ratio", "fraction", _div(c["opt.converged"], opt.calls))
    put("optimizer.optimize.collision_free_ratio", "fraction", _div(c["opt.collision_free"], opt.calls))
    put("optimizer.optimize.sd_configs_per_iter", "count/iter", _div(c["optimize.sd_configs"], c["opt.iterations"]))

    rc = s["run_case"]
    put("bench.run_case.calls", "count", rc.calls)
    put("bench.run_case.self_ms_per_call", "ms/call", 1e3 * _div(rc.self, rc.calls))
    put("bench.failure_rate", "fraction", failure_rate)
    put("trace.overhead", "ratio", overhead)
    put("trace.setup_overhead", "ratio", setup_overhead)
    return out
