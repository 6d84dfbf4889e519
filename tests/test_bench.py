import gc
import weakref

import numpy as np
import pytest

from armplan.bench import (
    BenchParams, RunRecord, emit_report, read_records, run_benchmark,
    summarize, write_records, OUTCOME_COLLISION_FAILURE, OUTCOME_OK,
    OUTCOME_PLANNER_FAILURE,
)
from armplan.collision import Scene
from armplan.geometry import ConvexShape
from armplan.roadmap import RoadmapParams, build_roadmap
from armplan.scenarios import generate_test_suite


def rec(case_id, outcome, pt, ot, seed, final, planner="p", scene="sceneA"):
    return RunRecord(
        case_id=case_id, scene_name=scene, planner_id=planner, outcome=outcome,
        planner_time=pt, opt_time=ot, seed_length=seed, final_length=final,
    )


FIXTURE = [
    rec("c1", OUTCOME_OK, 0.1, 0.2, 2.0, 1.5),
    rec("c2", OUTCOME_OK, 0.3, 0.1, 3.0, 2.5),
    rec("c3", OUTCOME_COLLISION_FAILURE, 0.2, 0.3, 2.5, None),
    rec("c4", OUTCOME_PLANNER_FAILURE, 0.4, 0.0, None, None),
]


def test_summarize_hand_computed_fixture():
    rows = summarize(FIXTURE)
    assert len(rows) == 1
    r = rows[0]
    assert r.scene == "sceneA" and r.planner == "p" and r.cases == 4
    assert r.failure_rate == pytest.approx(0.5)
    assert r.avg_runtime == pytest.approx(0.4)
    assert r.avg_seed_length == pytest.approx(2.5)
    assert r.avg_path_length == pytest.approx(2.0)
    assert r.collision_rate == pytest.approx(1.0 / 3.0)


def test_summarize_constant_lengths():
    records = [rec(f"c{i}", OUTCOME_OK, 0.1, 0.0, 1.0, 1.0) for i in range(10)]
    row = summarize(records)[0]
    assert row.failure_rate == 0.0
    assert row.avg_path_length == pytest.approx(1.0)


def test_summarize_one_failure_in_200():
    records = [rec(f"c{i}", OUTCOME_OK, 0.1, 0.0, 1.0, 1.0) for i in range(199)]
    records.append(rec("c199", OUTCOME_PLANNER_FAILURE, 0.1, 0.0, None, None))
    row = summarize(records)[0]
    assert row.failure_rate == pytest.approx(0.005)


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([])


def test_emit_report_empty_rows():
    doc = emit_report([], format="csv")
    assert doc == (
        "scene,planner,cases,failure_rate,avg_runtime_s,"
        "avg_seed_len_rad,avg_path_len_rad,collision_rate\n"
    )


def test_emit_report_single_row_golden():
    doc = emit_report(summarize(FIXTURE), format="csv")
    lines = doc.splitlines()
    assert lines[1] == "sceneA,p,4,0.500000,0.400000,2.500000,2.000000,0.333333"
    # byte-stable across calls
    assert doc == emit_report(summarize(FIXTURE), format="csv")


def test_emit_report_markdown():
    doc = emit_report(summarize(FIXTURE), format="markdown")
    lines = doc.splitlines()
    assert lines[0].startswith("| Scene | Planner |")
    assert "| sceneA | p | 4 | 50.00% |" in lines[2]
    with pytest.raises(ValueError):
        emit_report([], format="latex")


def test_records_roundtrip(tmp_path):
    p = tmp_path / "records.csv"
    write_records(FIXTURE, p)
    assert read_records(p) == FIXTURE


# ---------------------------------------------------------------------------
# pipeline runs

@pytest.fixture(scope="module")
def tiny_suite(empty_scene, arm):
    return generate_test_suite(empty_scene, arm, 6, rng_seed=2)


def _empty_scene_of(suite):
    return Scene(suite.scene_name, (), workspace_bounds=(-3.0, -3.0, 3.0, 3.0))


def test_straightline_opt_in_empty_scene(tiny_suite):
    records = run_benchmark(
        tiny_suite, "straightline+opt",
        params=BenchParams(),
        scene=_empty_scene_of(tiny_suite),
    )
    assert all(r.outcome == OUTCOME_OK for r in records)
    assert all(r.final_length is not None for r in records)


def test_roadmap_planner_requires_roadmap(tiny_suite):
    with pytest.raises(ValueError):
        run_benchmark(tiny_suite, "roadmap+opt", scene=_empty_scene_of(tiny_suite))
    with pytest.raises(ValueError):
        run_benchmark(tiny_suite, "warp-drive", scene=_empty_scene_of(tiny_suite))


def test_run_benchmark_rejects_suite_of_another_scene(tiny_suite):
    other = Scene("other", (), workspace_bounds=(-3.0, -3.0, 3.0, 3.0))
    with pytest.raises(ValueError, match="suite is for scene 'empty'"):
        run_benchmark(tiny_suite, "straightline+opt", scene=other)


def test_run_benchmark_rejects_roadmap_of_another_scene(tiny_suite, arm):
    other = Scene("other", (), workspace_bounds=(-3.0, -3.0, 3.0, 3.0))
    rm = build_roadmap(other, arm, RoadmapParams(n_nodes=30, k_neighbors=4, rng_seed=1))
    for planner in ("roadmap", "roadmap+opt", "rrt"):
        with pytest.raises(ValueError, match="roadmap is for scene 'other'"):
            run_benchmark(tiny_suite, planner, scene=_empty_scene_of(tiny_suite), roadmap=rm)


def test_run_benchmark_rejects_roadmap_of_same_name_scene_with_moved_obstacle(tiny_suite, arm):
    # one box out of the arm's reach, so only the binding can tell the scenes apart
    def scene_with_box(x):
        box = ConvexShape.box(x, 2.5, x + 0.2, 2.7)
        return Scene(tiny_suite.scene_name, (box,), workspace_bounds=(-3.0, -3.0, 3.0, 3.0))

    rm = build_roadmap(scene_with_box(2.6), arm, RoadmapParams(n_nodes=30, k_neighbors=4, rng_seed=1))
    assert run_benchmark(tiny_suite, "roadmap", scene=scene_with_box(2.6), roadmap=rm)
    for planner in ("roadmap", "roadmap+opt"):
        with pytest.raises(ValueError, match="roadmap is for scene 'empty'"):
            run_benchmark(tiny_suite, planner, scene=scene_with_box(2.5), roadmap=rm)


def test_record_determinism_and_parallel_equivalence(tiny_suite, arm):
    scene = _empty_scene_of(tiny_suite)
    rm = build_roadmap(scene, arm, RoadmapParams(n_nodes=30, k_neighbors=4, rng_seed=1))
    kwargs = dict(params=BenchParams(), scene=scene, roadmap=rm)
    a = run_benchmark(tiny_suite, "roadmap+opt", **kwargs)
    b = run_benchmark(tiny_suite, "roadmap+opt", **kwargs)
    c = run_benchmark(tiny_suite, "roadmap+opt", parallelism=2, **kwargs)

    def strip_times(records):
        return [
            (r.case_id, r.scene_name, r.planner_id, r.outcome, r.seed_length, r.final_length)
            for r in records
        ]

    assert strip_times(a) == strip_times(b) == strip_times(c)


def test_serial_run_keeps_no_reference_to_its_inputs(tiny_suite, arm):
    # the serial path used to leave its roadmap and scene in the worker context
    scene = _empty_scene_of(tiny_suite)
    rm = build_roadmap(scene, arm, RoadmapParams(n_nodes=30, k_neighbors=4, rng_seed=1))
    run_benchmark(tiny_suite, "roadmap", scene=scene, roadmap=rm)
    refs = [weakref.ref(rm), weakref.ref(scene)]
    del rm, scene
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_all_planners_produce_records(tiny_suite, arm):
    scene = _empty_scene_of(tiny_suite)
    rm = build_roadmap(scene, arm, RoadmapParams(n_nodes=30, k_neighbors=4, rng_seed=1))
    for planner in ("rrt", "roadmap", "rrt+opt"):
        records = run_benchmark(
            tiny_suite, planner, params=BenchParams(), scene=scene, roadmap=rm
        )
        assert len(records) == len(tiny_suite.cases)
        for r in records:
            assert r.planner_id == planner
            assert (r.final_length is not None) == (r.outcome == OUTCOME_OK)
