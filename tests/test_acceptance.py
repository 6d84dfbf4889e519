"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line. Expensive artifacts
(full-size roadmaps, 200-case suites, benchmark runs) are module-scoped
fixtures shared across criteria. Wall-clock numbers from the original
experiments are never asserted; ordering relations are.
"""

import time

import numpy as np
import pytest

from armplan.bench import (
    BenchParams, run_benchmark, summarize, write_records,
    OUTCOME_OK, OUTCOME_PLANNER_FAILURE,
)
from armplan.collision import pair_signed_distances
from armplan.geometry import Pose2, signed_distance
from armplan.optimizer import (
    D_SAFE, collision_penalty, merit_gradient, optimize, smoothness_cost,
)
from armplan.roadmap import (
    RoadmapParams, build_roadmap, k_shortest_paths, save_roadmap,
)
from armplan.robot import ArmModel, ee_jacobian, forward_kinematics
from armplan.scenarios import (
    SCENE_NAMES, build_scene, default_arm, generate_test_suite, save_suite,
)
from armplan.seedprep import resample_path, straight_line_seed

from conftest import random_convex_polygon
from test_geometry import oracle_signed_distance
from test_robot import complex_fk_oracle
from test_roadmap import adjacency_lists, all_simple_paths_sorted, floyd_warshall, graph_roadmap

_T0 = time.perf_counter()

FULL_NODES = 1000
SUITE_SIZES = {
    "tabletop_pole": 200,
    "shelf_boxes": 200,
    "tabletop_container": 100,
    "kitchen": 100,
}


def report(num, ok, detail):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def the_arm():
    return default_arm()


@pytest.fixture(scope="module")
def scenes():
    return {name: build_scene(name) for name in SCENE_NAMES}


@pytest.fixture(scope="module")
def full_roadmaps(scenes, the_arm):
    out = {}
    for name, scene in scenes.items():
        t0 = time.perf_counter()
        rm = build_roadmap(scene, the_arm, RoadmapParams(n_nodes=FULL_NODES, rng_seed=11))
        out[name] = (rm, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def suites(scenes, the_arm):
    return {
        name: generate_test_suite(scenes[name], the_arm, SUITE_SIZES[name], rng_seed=7)
        for name in SCENE_NAMES
    }


@pytest.fixture(scope="module")
def bench_records(scenes, suites, full_roadmaps):
    params = BenchParams()
    records = {}
    for name in SCENE_NAMES:
        records[("roadmap+opt", name)] = run_benchmark(
            suites[name], "roadmap+opt", params=params,
            scene=scenes[name], roadmap=full_roadmaps[name][0],
        )
    for name in ("tabletop_pole", "shelf_boxes"):
        records[("straightline+opt", name)] = run_benchmark(
            suites[name], "straightline+opt", params=params, scene=scenes[name]
        )
        records[("rrt", name)] = run_benchmark(
            suites[name], "rrt", params=params, scene=scenes[name]
        )
        records[("roadmap", name)] = run_benchmark(
            suites[name], "roadmap", params=params,
            scene=scenes[name], roadmap=full_roadmaps[name][0],
        )
    return records


def _rate(records, outcome):
    return sum(r.outcome == outcome for r in records) / len(records)


def _collision_rate(records):
    seeded = [r for r in records if r.outcome != OUTCOME_PLANNER_FAILURE]
    bad = sum(r.outcome not in (OUTCOME_OK, OUTCOME_PLANNER_FAILURE) for r in seeded)
    return bad / max(1, len(seeded)), len(seeded)


# ---------------------------------------------------------------------------

def test_criterion_1_geometry_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    worst_sd = 0.0
    for _ in range(1000):
        a = random_convex_polygon(rng, center=rng.uniform(-1.5, 1.5, 2))
        b = random_convex_polygon(rng, center=rng.uniform(-1.5, 1.5, 2))
        worst_sd = max(worst_sd, abs(signed_distance(a, b) - oracle_signed_distance(a, b)))

    worst_fk = 0.0
    for k in range(3, 9):
        arm = ArmModel(
            base=Pose2(0.1, -0.2, 0.5),
            links=tuple((rng.uniform(0.2, 0.8), 0.03) for _ in range(k)),
            joint_limits=tuple((-3.0, 3.0) for _ in range(k)),
        )
        for _ in range(40):
            q = rng.uniform(-3, 3, k)
            _, ee = forward_kinematics(arm, q)
            z, _ = complex_fk_oracle(arm, q)
            worst_fk = max(worst_fk, abs(ee.x - z.real), abs(ee.y - z.imag))

    arm = default_arm()
    h = 1e-6
    worst_jac = 0.0
    for _ in range(100):
        q = rng.uniform(arm.lower, arm.upper)
        jac = ee_jacobian(arm, q)
        for j in range(arm.dof):
            qp, qm = q.copy(), q.copy()
            qp[j] += h
            qm[j] -= h
            _, ep = forward_kinematics(arm, qp)
            _, em = forward_kinematics(arm, qm)
            fd = np.array([(ep.x - em.x) / (2 * h), (ep.y - em.y) / (2 * h)])
            scale = max(1.0, float(np.abs(jac[:2, j]).max()))
            worst_jac = max(worst_jac, float(np.abs(jac[:2, j] - fd).max()) / scale)

    dt = time.perf_counter() - t0
    ok = worst_sd < 1e-3 and worst_fk < 1e-9 and worst_jac < 1e-5 and dt < 30.0
    report(1, ok, f"sd err {worst_sd:.2e} (<1e-3), fk err {worst_fk:.2e} (<1e-9), "
                  f"jac err {worst_jac:.2e} (<1e-5), {dt:.1f}s (<30s)")


def test_criterion_2_graph_oracles(scenes, the_arm):
    t0 = time.perf_counter()
    worst_apsp = 0.0
    for n in (50, 200):
        rm = build_roadmap(
            scenes["tabletop_pole"], the_arm, RoadmapParams(n_nodes=n, rng_seed=n)
        )
        fw = floyd_warshall(rm.n_nodes, rm.edge_list, rm.edge_weights)
        worst_apsp = max(worst_apsp, float(np.abs(rm.apsp_dist - fw).max()))

    rng = np.random.default_rng(200)
    import itertools
    from armplan.roadmap import _yen

    n_graphs = 0
    yen_ok = True
    while n_graphs < 20:
        n = int(rng.integers(4, 9))
        edges, weights = [], []
        for i, j in itertools.combinations(range(n), 2):
            if rng.random() < 0.45:
                edges.append((i, j))
                weights.append(float(rng.integers(1, 6)))
        rm = graph_roadmap(n, edges, weights)
        adj = adjacency_lists(n, rm.edge_list, rm.edge_weights)
        want = all_simple_paths_sorted(adj, 0, n - 1)
        got = _yen(rm.graph, 0, n - 1, 5)
        yen_ok &= [tuple(p) for p in got] == [p for _, p in want[:5]]
        n_graphs += 1

    dt = time.perf_counter() - t0
    ok = worst_apsp < 1e-9 and yen_ok and dt < 60.0
    report(2, ok, f"apsp vs floyd-warshall err {worst_apsp:.2e} (<1e-9), "
                  f"yen == enumeration on {n_graphs} graphs: {yen_ok}, {dt:.1f}s (<60s)")


def test_criterion_3_roadmap_connectivity(full_roadmaps):
    details = []
    ok = True
    for name, (rm, dt) in full_roadmaps.items():
        pruned = FULL_NODES - rm.n_nodes
        details.append(f"{name}: pruned {pruned}, {dt:.0f}s")
        ok &= pruned <= 10 and dt < 300.0
    report(3, ok, "; ".join(details) + " (prune <= 10, build < 5 min each)")


def test_criterion_4_seeding_ordering(bench_records):
    details = []
    ok = True
    for name in ("tabletop_pole", "shelf_boxes"):
        sl, _ = _collision_rate(bench_records[("straightline+opt", name)])
        ro, _ = _collision_rate(bench_records[("roadmap+opt", name)])
        details.append(f"{name}: straightline+opt {100 * sl:.1f}% vs roadmap+opt {100 * ro:.1f}%")
        ok &= sl > ro
    report(4, ok, "; ".join(details) + " (strict ordering required)")


def test_criterion_5_shortening(bench_records):
    details = []
    ok = True
    for name in SCENE_NAMES:
        recs = [r for r in bench_records[("roadmap+opt", name)] if r.outcome == OUTCOME_OK]
        seed = float(np.mean([r.seed_length for r in recs]))
        final = float(np.mean([r.final_length for r in recs]))
        ratio = final / seed
        details.append(f"{name}: {ratio:.3f}")
        ok &= ratio <= 0.95
    report(5, ok, "final/seed length " + ", ".join(details)
           + " (required <= 0.95; original reports better than 0.90)")


def test_criterion_6_optimizer_success(bench_records):
    details = []
    ok = True
    for name, floor in (("tabletop_pole", 0.95), ("shelf_boxes", 0.90)):
        recs = [
            r for r in bench_records[("roadmap+opt", name)]
            if r.outcome != OUTCOME_PLANNER_FAILURE
        ]
        success = sum(r.outcome == OUTCOME_OK for r in recs) / max(1, len(recs))
        details.append(f"{name}: {100 * success:.1f}% of {len(recs)} (need >= {100 * floor:.0f}%)")
        ok &= success >= floor
    report(6, ok, "; ".join(details))


def test_criterion_7_speed_ordering(bench_records):
    details = []
    ok = True
    for name in ("tabletop_pole", "shelf_boxes"):
        t_query = float(np.mean([r.planner_time for r in bench_records[("roadmap", name)]]))
        t_rrt = float(np.mean([r.planner_time for r in bench_records[("rrt", name)]]))
        ratio = t_query / t_rrt
        details.append(f"{name}: query {1e3 * t_query:.1f}ms / rrt {1e3 * t_rrt:.0f}ms = {ratio:.3f}")
        ok &= ratio <= 0.1
    report(7, ok, "; ".join(details) + " (need <= 0.1)")


def test_criterion_8_redundancy_monotone(scenes, the_arm):
    ks = (1, 2, 3, 5)
    params = RoadmapParams(n_nodes=300, k_paths=max(ks), rng_seed=4)
    rm = build_roadmap(scenes["tabletop_pole"], the_arm, params)
    rng = np.random.default_rng(8)
    edges = rm.edge_list
    successes = {k: 0 for k in ks}
    n_trials = 100
    for _ in range(n_trials):
        u, v = (int(x) for x in rng.integers(0, rm.n_nodes, 2))
        while u == v:
            v = int(rng.integers(0, rm.n_nodes))
        idx = rng.choice(len(edges), size=len(edges) // 10, replace=False)
        blocked = {edges[i] for i in idx}
        paths = k_shortest_paths(rm, u, v)
        for k in ks:
            hit = any(
                all(tuple(sorted(e)) not in blocked for e in zip(p[:-1], p[1:]))
                for p in paths[:k]
            )
            successes[k] += hit
    rates = [successes[k] / n_trials for k in ks]
    ok = all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))
    report(8, ok, "success rates at k=1,2,3,5 under 10% blocking: "
           + ", ".join(f"{100 * r:.0f}%" for r in rates) + " (non-decreasing)")


def test_criterion_9_optimizer_numerics(scenes, suites, the_arm):
    scene = scenes["tabletop_pole"]
    suite = suites["tabletop_pole"]
    from armplan.scenarios import ik_goal_configs

    n_runs = 0
    monotone = True
    preserved = True
    for case in suite.cases:
        if n_runs >= 100:
            break
        goals = ik_goal_configs(the_arm, scene, case.goal)
        if not goals:
            continue
        nearest = goals[int(np.argmin([np.linalg.norm(g - case.start_config) for g in goals]))]
        seed = resample_path(straight_line_seed(case.start_config, nearest))
        res = optimize(seed, the_arm, scene)
        n_runs += 1
        for merits in res.merit_log:
            monotone &= bool((np.diff(np.array(merits)) <= 1e-12).all())
        preserved &= res.trajectory.shape == seed.shape
        preserved &= bool(np.array_equal(res.trajectory[0], seed[0]))
        preserved &= bool(np.array_equal(res.trajectory[-1], seed[-1]))

    # gradient check away from hinge kinks
    rng = np.random.default_rng(9)
    mu, h = 10.0, 1e-6
    grad_ok = True
    checked = 0
    while checked < 5:
        traj = rng.uniform(the_arm.lower * 0.9, the_arm.upper * 0.9, size=(5, the_arm.dof))
        sd = pair_signed_distances(the_arm, scene, traj)
        if np.abs(sd - D_SAFE).min() < 1e-3:
            continue
        g = merit_gradient(traj, the_arm, scene, mu)
        fd = np.zeros_like(g)
        for t in range(1, 4):
            for j in range(the_arm.dof):
                tp, tm = traj.copy(), traj.copy()
                tp[t, j] += h
                tm[t, j] -= h
                fd[t - 1, j] = (
                    smoothness_cost(tp) + mu * collision_penalty(tp, the_arm, scene)
                    - smoothness_cost(tm) - mu * collision_penalty(tm, the_arm, scene)
                ) / (2 * h)
        scale = max(1.0, float(np.abs(fd).max()))
        grad_ok &= float(np.abs(g - fd).max()) / scale < 1e-4
        checked += 1

    ok = monotone and preserved and grad_ok and n_runs >= 100
    report(9, ok, f"{n_runs} runs: merit monotone {monotone}, "
                  f"endpoints/shape preserved {preserved}, gradient checks {grad_ok}")


def test_rrt_failure_rate_and_roadmap_pipeline_rates(bench_records):
    """Suite-scale rate checks: the sampling baseline solves at least 85% of
    the hardest scene with a generous budget, every roadmap path survives
    independent validation, and the full roadmap+opt pipeline stays under a
    2% failure rate on the easiest scene."""
    rrt_fail = _rate(bench_records[("rrt", "shelf_boxes")], OUTCOME_PLANNER_FAILURE)
    assert rrt_fail < 0.15, f"rrt shelf failure rate {rrt_fail:.3f}"

    roadmap_recs = bench_records[("roadmap", "tabletop_pole")]
    assert all(
        r.outcome in (OUTCOME_OK, OUTCOME_PLANNER_FAILURE) for r in roadmap_recs
    ), "a roadmap query path failed independent validation"

    rows = summarize(bench_records[("roadmap+opt", "tabletop_pole")])
    assert rows[0].failure_rate <= 0.02, f"roadmap+opt pole failure rate {rows[0].failure_rate:.3f}"


def test_resampled_seeds_reduce_optimizer_collisions(scenes, suites, full_roadmaps, the_arm):
    """Directional check: feeding raw roadmap paths (long edges between
    waypoints) to the optimizer yields at least as many collision failures
    on the shelf scene as feeding the 0.16 rad resampled versions."""
    scene = scenes["shelf_boxes"]
    rm = full_roadmaps["shelf_boxes"][0]
    from armplan.roadmap import query as rm_query

    raw_fail = resampled_fail = n_runs = 0
    for case in suites["shelf_boxes"].cases[:100]:
        res = rm_query(rm, the_arm, scene, case.start_config, case.goal)
        if not res.ok or len(res.path) < 3:
            continue
        n_runs += 1
        raw_fail += not optimize(res.path, the_arm, scene).collision_free
        resampled_fail += not optimize(resample_path(res.path), the_arm, scene).collision_free
    assert n_runs >= 50
    print(f"\nraw-seed failures {raw_fail}/{n_runs} vs resampled {resampled_fail}/{n_runs}")
    assert raw_fail >= resampled_fail


def test_criterion_10_determinism_and_budget(scenes, the_arm, tmp_path):
    scene = scenes["tabletop_pole"]

    def pipeline(tag):
        suite = generate_test_suite(scene, the_arm, 20, rng_seed=13)
        sp = tmp_path / f"suite_{tag}.json"
        save_suite(suite, sp)
        rm = build_roadmap(scene, the_arm, RoadmapParams(n_nodes=100, rng_seed=17))
        rp = tmp_path / f"rm_{tag}.bin"
        save_roadmap(rm, rp)
        records = run_benchmark(
            suite, "roadmap+opt", params=BenchParams(), scene=scene, roadmap=rm
        )
        cp = tmp_path / f"records_{tag}.csv"
        write_records(records, cp)
        stripped = [
            (r.case_id, r.scene_name, r.planner_id, r.outcome, r.seed_length, r.final_length)
            for r in records
        ]
        return sp.read_bytes(), rp.read_bytes(), stripped

    a = pipeline("a")
    b = pipeline("b")
    same_suite = a[0] == b[0]
    same_roadmap = a[1] == b[1]
    same_records = a[2] == b[2]
    elapsed = time.perf_counter() - _T0
    ok = same_suite and same_roadmap and same_records and elapsed < 1200.0
    report(10, ok, f"suite bytes {same_suite}, roadmap bytes {same_roadmap}, "
                   f"records {same_records}, module elapsed {elapsed:.0f}s (<1200s)")
