import dataclasses
import gc
import weakref

import numpy as np
import pytest

from armplan import bench, scenarios
from armplan.bench import (
    BenchParams, RunRecord, emit_report, read_records, run_benchmark,
    summarize, write_records, OUTCOME_COLLISION_FAILURE, OUTCOME_OK,
    OUTCOME_PLANNER_FAILURE,
)
from armplan.collision import Scene
from armplan.geometry import ConvexShape
from armplan.roadmap import Roadmap, RoadmapParams, build_roadmap, load_roadmap, query
from armplan.robot import EEPose, forward_kinematics
from armplan.scenarios import generate_test_suite

from test_roadmap import NARROW_NODES, write_narrow_node_roadmap


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


# FIXTURE under a planner run_case runs, the only ones read_records takes
RECORDS = [dataclasses.replace(r, planner_id="roadmap+opt") for r in FIXTURE]


def test_records_roundtrip(tmp_path):
    p = tmp_path / "records.csv"
    write_records(RECORDS, p)
    assert read_records(p) == RECORDS
    p.write_text(p.read_text() + "\n")    # a blank line is no row
    assert read_records(p) == RECORDS


def _set(index, text):
    return lambda fields: fields[:index] + [text] + fields[index + 1:]


# case -> (edit of the fields of the file's line 3, an ok row; message)
MALFORMED_RECORDS = {
    "short_row": (lambda f: f[:3], "3 fields, not 8"),
    "long_row": (lambda f: f + ["1.0"], "9 fields, not 8"),
    "unknown_planner": (_set(2, "p"), "unknown planner 'p'"),
    "unknown_outcome": (_set(3, "weird"), "unknown outcome 'weird'"),
    "weird_outcome_nan_time": (lambda f: _set(4, "nan")(_set(3, "weird")(f)), "unknown outcome 'weird'"),
    "time_not_number": (_set(4, "abc"), "planner_time_s 'abc' is not a finite number >= 0"),
    "time_nan": (_set(4, "nan"), "planner_time_s 'nan' is not a finite number >= 0"),
    "time_empty": (_set(5, ""), "opt_time_s '' is not a finite number >= 0"),
    "time_negative": (_set(5, "-0.1"), "opt_time_s '-0.1' is not a finite number >= 0"),
    "seed_len_inf": (_set(6, "inf"), "seed_len_rad 'inf' is not a finite number >= 0"),
    "final_len_negative": (_set(7, "-2.5"), "final_len_rad '-2.5' is not a finite number >= 0"),
    "ok_without_final_len": (_set(7, ""), "an 'ok' row has no final_len_rad"),
    "ok_without_seed_len": (_set(6, ""), "an 'ok' row has no seed_len_rad"),
    "collision_failure_with_final_len": (
        _set(3, "collision_failure"), "a 'collision_failure' row has a final_len_rad"),
    "collision_failure_without_seed_len": (
        lambda f: _set(3, "collision_failure")(f[:6] + ["", ""]), "a 'collision_failure' row has no seed_len_rad"),
    "planner_failure_with_seed_len": (
        lambda f: _set(3, "planner_failure")(f[:7] + [""]), "a 'planner_failure' row has a seed_len_rad"),
    "planner_failure_with_final_len": (
        lambda f: _set(3, "planner_failure")(f[:6] + ["", f[7]]), "a 'planner_failure' row has a final_len_rad"),
}


def write_malformed_records(tmp_path, case):
    """Write RECORDS with line 3 edited as ``case`` says. Returns the file's
    path and the message reading it must raise."""
    edit, message = MALFORMED_RECORDS[case]
    write_records(RECORDS, tmp_path / "r.csv")
    lines = (tmp_path / "r.csv").read_text().splitlines()
    lines[2] = ",".join(edit(lines[2].split(",")))
    (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
    return tmp_path / "bad.csv", message


@pytest.mark.parametrize("case", sorted(MALFORMED_RECORDS))
def test_read_records_rejects_what_write_records_never_writes(tmp_path, case):
    path, message = write_malformed_records(tmp_path, case)
    with pytest.raises(ValueError) as exc:
        read_records(path)
    assert str(exc.value).startswith(f"records file {path} line 3: {message}")


def test_read_records_rejects_other_columns(tmp_path):
    write_records(RECORDS, tmp_path / "r.csv")
    text = (tmp_path / "r.csv").read_text()
    (tmp_path / "bad.csv").write_text(text.replace("outcome", "result", 1))
    with pytest.raises(ValueError, match=r"bad\.csv line 1: columns \['case_id', 'scene', 'planner', 'res"):
        read_records(tmp_path / "bad.csv")
    (tmp_path / "empty.csv").write_text("")
    with pytest.raises(ValueError, match=r"empty\.csv line 1: columns \[\], not"):
        read_records(tmp_path / "empty.csv")


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


def test_roadmap_planner_requires_roadmap(tiny_suite, arm):
    # run_case checks the planner as run_benchmark does, with the same messages
    scene = _empty_scene_of(tiny_suite)
    for planner, message in (("roadmap+opt", r"planner 'roadmap\+opt' requires a roadmap"),
                             ("roadmap", "planner 'roadmap' requires a roadmap"),
                             ("warp-drive", "unknown planner 'warp-drive'; expected one of")):
        with pytest.raises(ValueError, match=message):
            run_benchmark(tiny_suite, planner, scene=scene)
        with pytest.raises(ValueError, match=message):
            bench.run_case(arm, scene, tiny_suite.cases[0], 0, planner, BenchParams())


@pytest.mark.parametrize("planner", bench.PLANNERS)
def test_run_case_rejects_a_case_of_another_scene_or_arm(small_pole_roadmap, pole_scene, arm, planner, monkeypatch):
    """A start with 2 angles for the 4-joint arm used to raise numpy's
    broadcast error under straightline+opt, and a kitchen case ran on the
    pole scene unchecked; both now fail before any planning."""
    for name in ("query", "ik_goal_configs", "rrt_plan", "optimize"):
        monkeypatch.setattr(bench, name, lambda *a: pytest.fail("a planner ran"))
    good = small_pole_roadmap.nodes[5]
    _, ee = forward_kinematics(arm, good)
    goal = EEPose(ee.x, ee.y, ee.heading)
    short = scenarios.TestCase("short", (0.1, 0.2), goal, pole_scene.name)
    with pytest.raises(ValueError, match=r"configuration must have 4 joint angles, got shape \(2,\)"):
        bench.run_case(arm, pole_scene, short, 0, planner, BenchParams(), small_pole_roadmap)
    kitchen = scenarios.TestCase("kitchen", tuple(good), goal, "kitchen")
    with pytest.raises(ValueError, match="case is for scene 'kitchen', not 'tabletop_pole'"):
        bench.run_case(arm, pole_scene, kitchen, 0, planner, BenchParams(), small_pole_roadmap)


@pytest.mark.parametrize("planner", ["roadmap", "roadmap+opt"])
def test_one_waypoint_plan_is_the_arm_staying_put(small_pole_roadmap, pole_scene, arm, planner):
    """A start on a roadmap node whose own tip is the goal gets a one-waypoint
    plan from ``query``; the run records it as ok, with length 0.0."""
    q = small_pole_roadmap.nodes[5]
    _, ee = forward_kinematics(arm, q)
    case = scenarios.TestCase("stay", tuple(q), EEPose(ee.x, ee.y, ee.heading), pole_scene.name)
    assert len(query(small_pole_roadmap, arm, pole_scene, q, case.goal).path) == 1
    suite = scenarios.TestSuite(pole_scene.name, 0, arm, (case,))
    [r] = run_benchmark(suite, planner, scene=pole_scene, roadmap=small_pole_roadmap)
    assert (r.outcome, r.seed_length, r.final_length) == (OUTCOME_OK, 0.0, 0.0)


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


def test_run_benchmark_rejects_roadmap_nodes_of_another_width(
        small_pole_roadmap, small_pole_suite, pole_scene, tmp_path, monkeypatch):
    # such a file now fails at load, naming the file
    with pytest.raises(ValueError, match=rf"narrow\.npz: {NARROW_NODES}"):
        load_roadmap(write_narrow_node_roadmap(small_pole_roadmap, tmp_path))
    rm = small_pole_roadmap
    narrow = Roadmap(rm.nodes[:, :3], rm.edge_list, rm.edge_weights, rm.params, rm.binding)
    monkeypatch.setattr(bench, "run_case", lambda *a: pytest.fail("a case ran"))
    with pytest.raises(ValueError, match=NARROW_NODES):
        run_benchmark(small_pole_suite, "roadmap", scene=pole_scene, roadmap=narrow)


@pytest.mark.parametrize("bad", [True, 1.5, -5, "3"])
def test_params_reject_bad_rng_seed(bad):
    # True ran as seed 1, -5 was accepted, and 1.5 died in rrt_seed with TypeError
    with pytest.raises(ValueError, match="rng_seed must be an integer >= 0"):
        BenchParams(rng_seed=bad)


def test_params_store_a_numpy_seed_as_an_int():
    params = BenchParams(rng_seed=np.int64(3))
    assert type(params.rng_seed) is int and params == BenchParams(rng_seed=3)


@pytest.mark.parametrize("bad", [0, -3, 1.5, True])
def test_run_benchmark_rejects_bad_parallelism(tiny_suite, monkeypatch, bad):
    # 0 and -3 used to run serially, True ran as 1, and 1.5 reached the pool
    monkeypatch.setattr(bench, "run_case", lambda *a: pytest.fail("a case ran"))
    with pytest.raises(ValueError, match="parallelism must be an integer >= 1"):
        run_benchmark(tiny_suite, "straightline+opt", parallelism=bad, scene=_empty_scene_of(tiny_suite))


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
