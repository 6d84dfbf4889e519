"""Benchmark harness: runs planner pipelines over test suites and aggregates
failure rates, runtimes, and joint-space path lengths.

Failure accounting follows two channels: sampling-style planners fail by not
returning a solution (planner_failure), optimizer pipelines fail when the
returned trajectory does not survive the independent fine-grained collision
check (collision_failure). Cost values are never used to decide collisions.
"""

from __future__ import annotations

import csv
import io
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baselines import rrt_plan, rrt_seed
from .collision import Scene, trajectory_in_collision
from .optimizer import optimize
from .roadmap import Roadmap, query
from .robot import ArmModel
from .scenarios import TestCase, TestSuite, build_scene, ik_goal_configs
from .seedprep import path_length, resample_path, straight_line_seed

PLANNERS = ("rrt", "roadmap", "straightline+opt", "rrt+opt", "roadmap+opt")

OUTCOME_OK = "ok"
OUTCOME_PLANNER_FAILURE = "planner_failure"
OUTCOME_COLLISION_FAILURE = "collision_failure"

RECORD_FIELDS = (
    "case_id", "scene", "planner", "outcome",
    "planner_time_s", "opt_time_s", "seed_len_rad", "final_len_rad",
)

REPORT_HEADER = "scene,planner,cases,failure_rate,avg_runtime_s,avg_seed_len_rad,avg_path_len_rad,collision_rate"


@dataclass(frozen=True)
class BenchParams:
    """Benchmark seed. Every other pipeline setting is its module's default
    or constant: IK restarts (``solve_ik``), the RRT budget
    (``baselines.RRT_MAX_ITERS``), the straight-line seed and its resampling
    (``seedprep``) and the optimizer's constants (``optimizer.D_SAFE`` and
    the rest)."""

    rng_seed: int = 0


@dataclass(frozen=True)
class RunRecord:
    case_id: str
    scene_name: str
    planner_id: str
    outcome: str
    planner_time: float
    opt_time: float
    seed_length: float | None
    final_length: float | None


@dataclass(frozen=True)
class SummaryRow:
    scene: str
    planner: str
    cases: int
    failure_rate: float
    avg_runtime: float
    avg_seed_length: float
    avg_path_length: float
    collision_rate: float


def run_case(
    arm: ArmModel,
    scene: Scene,
    case: TestCase,
    case_index: int,
    planner: str,
    params: BenchParams,
    roadmap: Roadmap | None = None,
) -> RunRecord:
    """Execute one planner pipeline on one test case.

    The seed planner is a roadmap query, or IK goals followed by an RRT or a
    straight line. No seed path is a planner failure. Plain planners
    validate the seed with the independent trajectory check; ``+opt``
    pipelines resample and optimize it instead.
    """
    if planner not in PLANNERS:
        raise ValueError(f"unknown planner {planner!r}; expected one of {PLANNERS}")
    seed_planner, _, opt = planner.partition("+")
    if seed_planner == "roadmap" and roadmap is None:
        raise ValueError(f"planner {planner!r} requires a roadmap")
    start = case.start_config

    def record(outcome, planner_time, opt_time=0.0, seed_len=None, final_len=None):
        return RunRecord(
            case_id=case.id, scene_name=scene.name, planner_id=planner, outcome=outcome,
            planner_time=planner_time, opt_time=opt_time,
            seed_length=seed_len, final_length=final_len,
        )

    t0 = time.perf_counter()
    seed_path = None
    if seed_planner == "roadmap":
        seed_path = query(roadmap, arm, scene, start, case.goal).path
    else:
        goals = ik_goal_configs(arm, scene, case.goal)
        if goals and seed_planner == "rrt":
            seed_path = rrt_plan(scene, arm, start, goals, rrt_seed(params.rng_seed, case_index))
        elif goals:
            best = min(goals, key=lambda g: float(np.linalg.norm(g - start)))
            seed_path = straight_line_seed(start, best)
    planner_time = time.perf_counter() - t0
    if seed_path is None:
        return record(OUTCOME_PLANNER_FAILURE, planner_time)
    seed_path = np.asarray(seed_path)
    seed_len = path_length(seed_path)
    if not opt:
        if trajectory_in_collision(arm, scene, seed_path)[0]:
            return record(OUTCOME_COLLISION_FAILURE, planner_time, seed_len=seed_len)
        return record(OUTCOME_OK, planner_time, seed_len=seed_len, final_len=seed_len)

    t1 = time.perf_counter()
    result = optimize(resample_path(seed_path), arm, scene)
    opt_time = time.perf_counter() - t1
    if result.collision_free:
        return record(OUTCOME_OK, planner_time, opt_time, seed_len, path_length(result.trajectory))
    return record(OUTCOME_COLLISION_FAILURE, planner_time, opt_time, seed_len=seed_len)


_WORKER_CTX: dict = {}


def _worker_init(arm, scene, planner, params, roadmap):
    _WORKER_CTX.update(arm=arm, scene=scene, planner=planner, params=params, roadmap=roadmap)


def _worker_run(item):
    idx, case = item
    c = _WORKER_CTX
    return run_case(c["arm"], c["scene"], case, idx, c["planner"], c["params"], c["roadmap"])


def run_benchmark(
    suite: TestSuite,
    planner_spec: str,
    params: BenchParams = BenchParams(),
    parallelism: int = 1,
    scene: Scene | None = None,
    roadmap: Roadmap | None = None,
) -> list[RunRecord]:
    """Run one planner pipeline over every case of a suite.

    Cases are independent and seeded per index, so any parallelism degree
    produces the same records (timings aside). The suite must belong to the
    scene by name, and the roadmap, if given, to the scene and the suite's arm.
    """
    if planner_spec not in PLANNERS:
        raise ValueError(f"unknown planner {planner_spec!r}; expected one of {PLANNERS}")
    if planner_spec in ("roadmap", "roadmap+opt") and roadmap is None:
        raise ValueError(f"planner {planner_spec!r} requires a roadmap")
    scene = scene or build_scene(suite.scene_name)
    if suite.scene_name != scene.name:
        raise ValueError(f"suite is for scene {suite.scene_name!r}, not {scene.name!r}")
    arm = suite.arm
    if roadmap is not None:
        roadmap.check_binding(scene, arm)
    if parallelism <= 1:
        return [run_case(arm, scene, case, idx, planner_spec, params, roadmap)
                for idx, case in enumerate(suite.cases)]
    with ProcessPoolExecutor(
        max_workers=parallelism,
        initializer=_worker_init,
        initargs=(arm, scene, planner_spec, params, roadmap),
    ) as pool:
        return list(pool.map(_worker_run, enumerate(suite.cases), chunksize=8))


def summarize(records: list[RunRecord]) -> list[SummaryRow]:
    """Aggregate records per (scene, planner).

    failure_rate counts both failure channels over all cases. collision_rate
    is the fraction of collision failures among cases where the seed planner
    produced a solution. avg_runtime sums seed-planner and optimizer time.
    """
    if not records:
        raise ValueError("no records to summarize")
    groups: dict[tuple[str, str], list[RunRecord]] = {}
    for r in records:
        groups.setdefault((r.scene_name, r.planner_id), []).append(r)
    rows = []
    for (scene_name, planner), recs in sorted(groups.items()):
        n = len(recs)
        n_fail = sum(r.outcome != OUTCOME_OK for r in recs)
        n_coll = sum(r.outcome == OUTCOME_COLLISION_FAILURE for r in recs)
        seeded = [r for r in recs if r.seed_length is not None]
        finals = [r.final_length for r in recs if r.final_length is not None]
        rows.append(SummaryRow(
            scene=scene_name,
            planner=planner,
            cases=n,
            failure_rate=n_fail / n,
            avg_runtime=sum(r.planner_time + r.opt_time for r in recs) / n,
            avg_seed_length=sum(r.seed_length for r in seeded) / len(seeded) if seeded else float("nan"),
            avg_path_length=sum(finals) / len(finals) if finals else float("nan"),
            collision_rate=n_coll / len(seeded) if seeded else 0.0,
        ))
    return rows


def emit_report(rows: list[SummaryRow], format: str = "csv") -> str:
    """Render summary rows as CSV or a markdown table; output is byte-stable."""
    if format == "csv":
        lines = [REPORT_HEADER]
        for r in rows:
            lines.append(
                f"{r.scene},{r.planner},{r.cases},{r.failure_rate:.6f},{r.avg_runtime:.6f},"
                f"{r.avg_seed_length:.6f},{r.avg_path_length:.6f},{r.collision_rate:.6f}"
            )
        return "\n".join(lines) + "\n"
    if format == "markdown":
        lines = [
            "| Scene | Planner | Cases | Failure Rate | Avg Runtime (s) | "
            "Avg Seed Length (rad) | Avg Path Length (rad) | Collision Rate |",
            "|---|---|---|---|---|---|---|---|",
        ]
        for r in rows:
            lines.append(
                f"| {r.scene} | {r.planner} | {r.cases} | {100 * r.failure_rate:.2f}% "
                f"| {r.avg_runtime:.3f} | {r.avg_seed_length:.3f} | {r.avg_path_length:.3f} "
                f"| {100 * r.collision_rate:.2f}% |"
            )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {format!r}")


def write_records(records: list[RunRecord], path) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RECORD_FIELDS)
    for r in records:
        writer.writerow([
            r.case_id, r.scene_name, r.planner_id, r.outcome,
            repr(r.planner_time), repr(r.opt_time),
            "" if r.seed_length is None else repr(r.seed_length),
            "" if r.final_length is None else repr(r.final_length),
        ])
    Path(path).write_text(buf.getvalue())


def read_records(path) -> list[RunRecord]:
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != RECORD_FIELDS:
            raise ValueError(f"unexpected record columns in {path}")
        for row in reader:
            records.append(RunRecord(
                case_id=row["case_id"],
                scene_name=row["scene"],
                planner_id=row["planner"],
                outcome=row["outcome"],
                planner_time=float(row["planner_time_s"]),
                opt_time=float(row["opt_time_s"]),
                seed_length=float(row["seed_len_rad"]) if row["seed_len_rad"] else None,
                final_length=float(row["final_len_rad"]) if row["final_len_rad"] else None,
            ))
    return records
