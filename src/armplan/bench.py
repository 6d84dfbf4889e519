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
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baselines import rrt_plan, rrt_seed
from .collision import Scene, trajectory_in_collision
from .optimizer import optimize
from .roadmap import Roadmap, query
from .robot import ArmModel, _check_config, _check_int, _check_kind
from .scenarios import TestCase, TestSuite, build_scene, ik_goal_configs
from .seedprep import path_length, resample_path, straight_line_seed

PLANNERS = ("rrt", "roadmap", "straightline+opt", "rrt+opt", "roadmap+opt")

OUTCOME_OK = "ok"
OUTCOME_PLANNER_FAILURE = "planner_failure"
OUTCOME_COLLISION_FAILURE = "collision_failure"
OUTCOMES = (OUTCOME_OK, OUTCOME_PLANNER_FAILURE, OUTCOME_COLLISION_FAILURE)

RECORD_FIELDS = (
    "case_id", "scene", "planner", "outcome",
    "planner_time_s", "opt_time_s", "seed_len_rad", "final_len_rad",
)

REPORT_HEADER = "scene,planner,cases,failure_rate,avg_runtime_s,avg_seed_len_rad,avg_path_len_rad,collision_rate"


@dataclass(frozen=True)
class BenchParams:
    """Benchmark seed. Every other pipeline setting is a constant of the
    module that reads it: IK restarts (``robot._IK_RESTARTS``), the RRT
    budget (``baselines.RRT_MAX_ITERS``), the seed (``seedprep``), the final
    check (``collision.DEFAULT_EDGE_INTERP``) and the optimizer's constants
    (``optimizer.D_SAFE`` and the rest). Raises ValueError unless
    ``rng_seed`` is an integer >= 0."""

    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "rng_seed", _check_int("rng_seed", self.rng_seed, 0))


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


def _check_planner(planner: str, roadmap: Roadmap | None) -> None:
    """Raise ValueError for a planner not in ``PLANNERS``, or for a
    ``roadmap`` one without a roadmap."""
    if planner not in PLANNERS:
        raise ValueError(f"unknown planner {planner!r}; expected one of {PLANNERS}")
    if planner.startswith("roadmap") and roadmap is None:
        raise ValueError(f"planner {planner!r} requires a roadmap")


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
    straight line. No seed path is a planner failure, and a one-waypoint
    plan (the start already reaches the goal) is the arm staying put: that
    waypoint twice, of length 0.0. Plain planners validate the seed with the
    independent trajectory check; ``+opt`` pipelines resample and optimize
    it instead. Raises ValueError, before any planning, for a planner
    ``_check_planner`` rejects, a case of another scene than ``scene``, or a
    start that is not one angle per joint of ``arm``.
    """
    _check_kind("arm", arm, ArmModel)
    _check_kind("scene", scene, Scene)
    _check_planner(planner, roadmap)
    if case.scene_name != scene.name:
        raise ValueError(f"case is for scene {case.scene_name!r}, not {scene.name!r}")
    start = _check_config(arm, case.start_config)
    seed_planner, _, opt = planner.partition("+")

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
    if len(seed_path) == 1:
        seed_path = np.repeat(seed_path, 2, axis=0)    # the arm stays put
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
    Raises ValueError unless ``parallelism`` is an integer >= 1.
    """
    parallelism = _check_int("parallelism", parallelism, 1)
    if scene is not None:
        _check_kind("scene", scene, Scene)
    _check_planner(planner_spec, roadmap)
    scene = scene or build_scene(suite.scene_name)
    if suite.scene_name != scene.name:
        raise ValueError(f"suite is for scene {suite.scene_name!r}, not {scene.name!r}")
    arm = suite.arm
    if roadmap is not None:
        roadmap.check_binding(scene, arm)
    if parallelism == 1:
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


def _record_number(name: str, text: str, optional: bool = False) -> float | None:
    """A number column of a records row: finite and >= 0, or empty when
    ``optional``."""
    if optional and text == "":
        return None
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} {text!r} is not a finite number >= 0")
    return value


def _record_from_row(row: list[str]) -> RunRecord:
    if len(row) != len(RECORD_FIELDS):
        raise ValueError(f"{len(row)} fields, not {len(RECORD_FIELDS)}")
    case_id, scene_name, planner, outcome, *numbers = row
    if planner not in PLANNERS:
        raise ValueError(f"unknown planner {planner!r}; expected one of {PLANNERS}")
    if outcome not in OUTCOMES:
        raise ValueError(f"unknown outcome {outcome!r}; expected one of {OUTCOMES}")
    # two times, then two lengths, which may be empty
    planner_time, opt_time, seed_length, final_length = (
        _record_number(*column) for column in zip(RECORD_FIELDS[4:], numbers, (False, False, True, True)))
    # a seed length on every row but a planner failure's, a final length on ok rows only
    carried = (outcome != OUTCOME_PLANNER_FAILURE, outcome == OUTCOME_OK)
    for name, length, want in zip(RECORD_FIELDS[6:], (seed_length, final_length), carried):
        if (length is not None) != want:
            article = "an" if outcome == OUTCOME_OK else "a"
            raise ValueError(f"{article} {outcome!r} row has {'no' if want else 'a'} {name}")
    return RunRecord(case_id, scene_name, planner, outcome, planner_time, opt_time, seed_length, final_length)


def read_records(path) -> list[RunRecord]:
    """Read a records file under ``write_records``' rules. Raises ValueError
    naming the file and line for a header other than ``RECORD_FIELDS``, and
    for a row whose field count is not eight, whose planner is not in
    ``PLANNERS`` or outcome not in ``OUTCOMES``, whose times are not finite
    numbers >= 0 or lengths neither empty nor such a number, or whose
    lengths are not those its outcome carries: an ``ok`` row has a seed and
    a final length, a ``collision_failure`` row a seed length only, and a
    ``planner_failure`` row neither."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if tuple(header) != RECORD_FIELDS:
            raise ValueError(f"records file {path} line 1: columns {header}, not {list(RECORD_FIELDS)}")
        for row in reader:
            if not row:
                continue    # a blank line, as csv.DictReader skips
            try:
                records.append(_record_from_row(row))
            except ValueError as exc:
                raise ValueError(f"records file {path} line {reader.line_num}: {exc}") from None
    return records
