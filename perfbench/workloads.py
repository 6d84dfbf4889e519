"""The three planning workloads.

Each workload has an untimed input step (cases and their order, made from
the seed; an expensive suite is cached on disk), a timed set-up step (what
must happen before the first query can be answered) and a closed loop of
cases: one client, the next case starts only when the previous one returned.
All calls go through module attributes (``bench.run_case``, not a name
imported here), so the tracer's patches see them.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import armplan
from armplan import bench, collision, roadmap, robot, scenarios


# The case sets do not change with --seed, which only orders their cases.
# Each case's RRT stream is seeded from its index in the suite, and each
# kitchen query keeps its requery, so the work is tied to the case and not
# to the run. With 40 to 80 cases a run on shelf and pole, case difficulty
# and RRT luck otherwise dominate the run-to-run spread. On kitchen, 300
# fresh queries a run moved case_ms.p50 by about 13% from seed to seed.
FIXED_SUITE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    scene: str
    planner: str
    cases_per_second: float   # nominal rate: cases in a run = seconds * rate
    # where cases come from: "cached" (a fixed RRT-validated suite, generated
    # once and cached), "setup" (the fixed suite that set-up generates) or
    # "sampled" (start/goal pairs without the RRT filter)
    cases: str
    roadmap_nodes: int = 0    # set-up builds a roadmap of this size
    requery: bool = False     # each case also requeries around a blocked edge
    setup_repeats: int = 1
    # the case loop runs over the ordered cases this many times; every run
    # of a case does the same work, so a second pass doubles the timed work
    # without a longer set-up (NOISE.md)
    passes: int = 1


WORKLOADS = {w.name: w for w in (
    Workload(
        name="shelf.roadmap_opt",
        scene="shelf_boxes", planner="roadmap+opt", cases_per_second=4.0,
        cases="cached", roadmap_nodes=1000,
    ),
    Workload(
        name="pole.rrt",
        scene="tabletop_pole", planner="rrt", cases_per_second=8.0,
        cases="setup", setup_repeats=2, passes=2,
    ),
    Workload(
        name="kitchen.query",
        scene="kitchen", planner="roadmap", cases_per_second=20.0,
        cases="sampled", roadmap_nodes=1000, requery=True,
    ),
)}

# every workload runs at least this many cases, so the reported p75 has ten
# cases beyond it
MIN_CASES = 40


def case_count(w: Workload, seconds: int) -> int:
    """Cases in a run: fixed by --seconds, so counts repeat exactly."""
    return max(MIN_CASES, int(math.ceil(seconds * w.cases_per_second)))


@dataclass
class Inputs:
    arm: robot.ArmModel
    scene: collision.Scene
    seed: int
    n_cases: int
    cases: list[tuple[int, scenarios.TestCase]] = field(default_factory=list)
    requery_ops: list = field(default_factory=list)


@dataclass
class CaseResult:
    record: bench.RunRecord
    seconds: float
    start: float                  # perf_counter at the case's start
    requery: tuple | None = None  # (u, v, blocked_edge, path or None)


def _source_digest() -> str:
    """Digest of the package source (defaults such as the RRT budget and IK
    restarts included) and the numpy version (its random streams)."""
    h = hashlib.sha256(np.__version__.encode())
    for path in sorted(Path(armplan.__file__).parent.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cached_suite(cache_dir: Path, scene, arm, count: int, seed: int) -> scenarios.TestSuite:
    key = json.dumps({
        "scene": scenarios.scene_to_dict(scene), "arm": repr(arm.fingerprint()),
        "count": count, "seed": seed, "source": _source_digest(),
    }, sort_keys=True)
    path = cache_dir / f"suite-{hashlib.sha256(key.encode()).hexdigest()[:24]}.json"
    if path.exists():
        return scenarios.load_suite(path)
    suite = scenarios.generate_test_suite(scene, arm, count, rng_seed=seed)
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    scenarios.save_suite(suite, tmp)
    tmp.replace(path)
    return suite


def _sampled_queries(scene, arm, count: int, seed: int) -> scenarios.TestSuite:
    """Query cases without the RRT feasibility filter: a collision-free start
    and the tip pose of another collision-free configuration. A multi-query
    roadmap answers such queries as they come; infeasible ones fail inside
    ``query`` and are counted by reason."""
    rng = np.random.default_rng([seed, 7])
    cases = []
    while len(cases) < count:
        start, goal_q = rng.uniform(arm.lower, arm.upper, size=(2, arm.dof))
        if collision.configs_in_collision(arm, scene, np.stack([start, goal_q])).any():
            continue
        _, ee = robot.forward_kinematics(arm, goal_q)
        cases.append(scenarios.TestCase(
            id=f"{scene.name}-{seed}-{len(cases):04d}", start=tuple(start.tolist()),
            goal=robot.EEPose(ee.x, ee.y, ee.heading), scene_name=scene.name,
        ))
    return scenarios.TestSuite(scene.name, seed, arm, tuple(cases))


def _seeded_order(suite: scenarios.TestSuite, seed: int) -> list[tuple[int, scenarios.TestCase]]:
    """The suite's cases in a seeded order, each with its index in the suite."""
    order = np.random.default_rng([seed, 3]).permutation(len(suite))
    return [(int(i), suite.cases[i]) for i in order]


def prepare(w: Workload, seed: int, seconds: int, cache_dir: Path) -> Inputs:
    """Untimed input preparation."""
    arm = scenarios.default_arm()
    scene = scenarios.build_scene(w.scene)
    inp = Inputs(arm=arm, scene=scene, seed=seed, n_cases=case_count(w, seconds))
    if w.cases == "sampled":
        inp.cases = _seeded_order(_sampled_queries(scene, arm, inp.n_cases, FIXED_SUITE_SEED), seed)
    elif w.cases == "cached":
        inp.cases = _seeded_order(_cached_suite(cache_dir, scene, arm, inp.n_cases, FIXED_SUITE_SEED), seed)
    return inp


def setup(w: Workload, inp: Inputs):
    """Timed set-up: the roadmap build (package-default sampling seed), or
    suite generation on pole.rrt."""
    if w.cases == "setup":
        return scenarios.generate_test_suite(inp.scene, inp.arm, inp.n_cases, rng_seed=FIXED_SUITE_SEED)
    return roadmap.build_roadmap(inp.scene, inp.arm, roadmap.RoadmapParams(n_nodes=w.roadmap_nodes))


def cases_of(w: Workload, inp: Inputs, state) -> list[tuple[int, scenarios.TestCase]]:
    """(index in its suite, case) pairs in the order the case loop runs
    them: the seeded order, ``passes`` times over."""
    order = _seeded_order(state, inp.seed) if w.cases == "setup" else inp.cases
    return order * w.passes


def requery_ops(rm: roadmap.Roadmap, seed: int, count: int) -> list[tuple[int, int, tuple[int, int]]]:
    """Distinct node pairs, each with one seeded edge of its cached shortest
    path blocked, so every requery has to leave the APSP path. Untimed."""
    rng = np.random.default_rng([seed, 11])
    seen = set()
    ops = []
    while len(ops) < count:
        u, v = (int(x) for x in rng.integers(0, rm.n_nodes, 2))
        if u == v or (min(u, v), max(u, v)) in seen:
            continue
        seen.add((min(u, v), max(u, v)))
        path = rm.shortest_node_path(u, v)
        j = int(rng.integers(0, len(path) - 1))
        ops.append((u, v, (path[j], path[j + 1])))
    return ops


def run_cases(w: Workload, inp: Inputs, state, capture) -> list[CaseResult]:
    """The closed loop over every case; returns per-case records and times."""
    rm = state if w.roadmap_nodes else None
    params = bench.BenchParams(rng_seed=FIXED_SUITE_SEED)
    clock = time.perf_counter
    out = []
    for i, (index, case) in enumerate(cases_of(w, inp, state)):
        capture.case = i
        t0 = clock()
        rec = bench.run_case(inp.arm, inp.scene, case, index, w.planner, params, rm)
        rq = None
        if w.requery:
            u, v, edge = inp.requery_ops[index]
            rq = (u, v, edge, roadmap.invalidate_and_requery(rm, [edge], u, v))
        out.append(CaseResult(rec, clock() - t0, t0, rq))
    return out
