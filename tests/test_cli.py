import dataclasses
import json

import numpy as np
import pytest

from armplan.cli import main
from armplan.roadmap import RoadmapParams, build_roadmap, load_roadmap, save_roadmap
from armplan.scenarios import (
    build_scene, default_arm, load_suite, save_suite, scene_from_dict, scene_to_dict,
)

from test_bench import write_malformed_records
from test_roadmap import (
    MALFORMED_GRAPHS, forbid_dijkstra, rewrite_roadmap_file, within_seconds,
    write_malformed_roadmap,
)


def test_gen_cases_and_reload(tmp_path):
    out = tmp_path / "suite.json"
    rc = main([
        "bench", "gen-cases", "--scene", "tabletop_pole",
        "--count", "4", "--seed", "3", "--out", str(out),
    ])
    assert rc == 0
    suite = load_suite(out)
    assert len(suite) == 4
    assert suite.scene_name == "tabletop_pole"


def test_roadmap_build_and_bench_run_and_report(tmp_path, capsys):
    suite_path = tmp_path / "suite.json"
    rm_path = tmp_path / "roadmap.npz"
    results = tmp_path / "results.csv"
    report = tmp_path / "report.md"

    assert main([
        "bench", "gen-cases", "--scene", "tabletop_pole",
        "--count", "4", "--seed", "3", "--out", str(suite_path),
    ]) == 0
    assert main([
        "roadmap", "build", "--scene", "tabletop_pole", "--nodes", "80",
        "--k", "6", "--kpaths", "3", "--seed", "5", "--out", str(rm_path),
    ]) == 0
    rm = load_roadmap(rm_path)
    assert rm.binding["scene_name"] == "tabletop_pole"
    assert rm.params.k_paths == 3

    assert main([
        "bench", "run", "--suite", str(suite_path), "--planner", "roadmap+opt",
        "--roadmap", str(rm_path), "--seed", "42", "--out", str(results),
    ]) == 0
    lines = results.read_text().splitlines()
    assert lines[0].startswith("case_id,scene,planner,outcome")
    assert len(lines) == 5

    assert main([
        "bench", "report", "--in", str(results),
        "--format", "markdown", "--out", str(report),
    ]) == 0
    assert report.read_text().startswith("| Scene | Planner |")

    capsys.readouterr()
    assert main(["bench", "report", "--in", str(results), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("scene,planner,cases,")


def test_unknown_scene_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "gen-cases", "--scene", "garage", "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2


def test_missing_results_file_is_an_error(tmp_path, capsys):
    rc = main(["bench", "report", "--in", str(tmp_path / "nope.csv")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "case", ["short_row", "time_not_number", "weird_outcome_nan_time", "collision_failure_with_final_len"])
def test_bench_report_rejects_malformed_records_file(tmp_path, capsys, case):
    path, message = write_malformed_records(tmp_path, case)
    capsys.readouterr()
    rc = main(["bench", "report", "--in", str(path), "--out", str(tmp_path / "report.md")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"armplan: error: records file {path} line 3: {message}")
    assert not (tmp_path / "report.md").exists()


def test_bench_run_needs_scene_or_suite(tmp_path, capsys):
    rc = main([
        "bench", "run", "--planner", "rrt", "--out", str(tmp_path / "r.csv"),
    ])
    assert rc == 2


def test_bench_run_rejects_roadmap_of_another_scene(tmp_path, capsys):
    suite_path = tmp_path / "suite.json"
    rm_path = tmp_path / "roadmap.npz"
    assert main([
        "bench", "gen-cases", "--scene", "tabletop_pole",
        "--count", "2", "--seed", "3", "--out", str(suite_path),
    ]) == 0
    assert main([
        "roadmap", "build", "--scene", "kitchen", "--nodes", "40",
        "--k", "4", "--seed", "5", "--out", str(rm_path),
    ]) == 0
    capsys.readouterr()
    rc = main([
        "bench", "run", "--suite", str(suite_path), "--planner", "roadmap",
        "--roadmap", str(rm_path), "--out", str(tmp_path / "r.csv"),
    ])
    assert rc == 1
    assert "roadmap is for scene 'kitchen'" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_bench_run_rejects_roadmap_of_moved_obstacle_scene(tmp_path, capsys):
    suite_path = tmp_path / "suite.json"
    rm_path = tmp_path / "roadmap.npz"
    assert main([
        "bench", "gen-cases", "--scene", "tabletop_pole",
        "--count", "2", "--seed", "3", "--out", str(suite_path),
    ]) == 0
    data = scene_to_dict(build_scene("tabletop_pole"))
    data["obstacles"][2]["vertices"] = [[x + 0.1, y] for x, y in data["obstacles"][2]["vertices"]]
    moved = scene_from_dict(data)
    rm = build_roadmap(moved, default_arm(), RoadmapParams(n_nodes=40, k_neighbors=4, rng_seed=5))
    save_roadmap(rm, rm_path)
    capsys.readouterr()
    rc = main([
        "bench", "run", "--suite", str(suite_path), "--planner", "roadmap",
        "--roadmap", str(rm_path), "--out", str(tmp_path / "r.csv"),
    ])
    assert rc == 1
    assert "roadmap is for scene 'tabletop_pole'" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_bench_run_rejects_scene_other_than_the_suites(tmp_path, capsys):
    suite_path = tmp_path / "suite.json"
    assert main([
        "bench", "gen-cases", "--scene", "tabletop_pole",
        "--count", "2", "--seed", "3", "--out", str(suite_path),
    ]) == 0
    capsys.readouterr()
    rc = main([
        "bench", "run", "--suite", str(suite_path), "--scene", "kitchen",
        "--planner", "rrt", "--out", str(tmp_path / "r.csv"),
    ])
    assert rc == 1
    assert "suite is for scene 'tabletop_pole', not 'kitchen'" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("fault", ["meta", "edge_weights", "negative_weight", "self_loop",
                                   "edges_float"])
def test_bench_run_rejects_bad_roadmap_file(small_pole_roadmap, tmp_path, monkeypatch, capsys, fault):
    # a missing array or a malformed graph
    if fault in MALFORMED_GRAPHS:
        bad, message = write_malformed_roadmap(small_pole_roadmap, tmp_path, fault)
        forbid_dijkstra(monkeypatch)
    else:
        save_roadmap(small_pole_roadmap, tmp_path / "rm.npz")
        bad, message = tmp_path / "bad.npz", f"has no {fault} array"
        rewrite_roadmap_file(tmp_path / "rm.npz", bad, drop=[fault])
    capsys.readouterr()
    rc = main([
        "bench", "run", "--scene", "tabletop_pole", "--cases", "1", "--planner", "roadmap",
        "--roadmap", str(bad), "--out", str(tmp_path / "r.csv"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("armplan: error: ") and message in err
    assert not (tmp_path / "r.csv").exists()


def _corrupt(good: bytes, how: str) -> bytes:
    if how == "truncated":
        return good[: len(good) // 2]
    if how == "zip_garbage":
        return b"PK\x03\x04" + bytes(range(256)) * 4
    if how == "empty":
        return b""
    return good[:200] + b"\xff" * 60 + good[260:]    # a member's compressed data overwritten


@pytest.mark.parametrize("how", ["truncated", "zip_garbage", "empty", "overwritten"])
def test_bench_run_rejects_corrupt_roadmap_before_generating_cases(
        small_pole_roadmap, tmp_path, monkeypatch, capsys, how):
    save_roadmap(small_pole_roadmap, tmp_path / "rm.npz")
    bad = tmp_path / "bad.npz"
    bad.write_bytes(_corrupt((tmp_path / "rm.npz").read_bytes(), how))
    with pytest.raises(ValueError) as exc:
        load_roadmap(bad)
    assert str(exc.value).startswith(f"roadmap file {bad} is corrupt: ")

    def no_generation(*args, **kwargs):
        raise AssertionError("generated a suite before loading the roadmap")

    monkeypatch.setattr("armplan.cli.generate_test_suite", no_generation)
    capsys.readouterr()
    rc = main([
        "bench", "run", "--scene", "tabletop_pole", "--cases", "2", "--planner", "roadmap",
        "--roadmap", str(bad), "--out", str(tmp_path / "r.csv"),
    ])
    assert rc == 1
    assert capsys.readouterr().err == f"armplan: error: {exc.value}\n"
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--workers", "0", "parallelism must be an integer >= 1, got 0"),
    ("--workers", "-3", "parallelism must be an integer >= 1, got -3"),
    ("--seed", "-5", "rng_seed must be an integer >= 0, got -5"),
], ids=["workers-0", "workers--3", "seed--5"])
def test_bench_run_rejects_bad_integers(small_pole_suite, tmp_path, capsys, flag, value, message):
    # --workers 0 or -3 used to run serially, and --seed -5 was accepted
    save_suite(small_pole_suite, tmp_path / "suite.json")
    out = tmp_path / "r.csv"
    rc = main([
        "bench", "run", "--suite", str(tmp_path / "suite.json"), "--planner", "rrt",
        flag, value, "--out", str(out),
    ])
    assert rc == 1
    assert capsys.readouterr().err == f"armplan: error: {message}\n"
    assert not out.exists()


def test_bench_run_rejects_bad_workers_before_generating_cases(tmp_path, monkeypatch, capsys):
    # the worker count used to be checked only after the whole suite was
    # generated, about 10 s of RRT-validated generation at 200 cases
    def no_generation(*args, **kwargs):
        raise AssertionError("generated a suite before checking the worker count")

    monkeypatch.setattr("armplan.cli.generate_test_suite", no_generation)
    out = tmp_path / "r.csv"
    rc = main([
        "bench", "run", "--scene", "tabletop_pole", "--cases", "200", "--planner", "rrt",
        "--workers", "0", "--out", str(out),
    ])
    assert rc == 1
    assert capsys.readouterr().err == "armplan: error: parallelism must be an integer >= 1, got 0\n"
    assert not out.exists()


def test_roadmap_build_defaults_are_roadmap_params_defaults(tmp_path, monkeypatch):
    @dataclasses.dataclass(frozen=True)
    class OtherDefaults(RoadmapParams):
        n_nodes: int = 40
        k_neighbors: int = 4
        k_paths: int = 2
        rng_seed: int = 3

    seen = []

    def capture(scene, arm, params):
        seen.append(params)
        raise RuntimeError("captured")

    monkeypatch.setattr("armplan.cli.RoadmapParams", OtherDefaults)
    monkeypatch.setattr("armplan.cli.build_roadmap", capture)
    assert main(["roadmap", "build", "--scene", "tabletop_pole", "--out", str(tmp_path / "rm.npz")]) == 1
    assert dataclasses.asdict(seen[0]) == dataclasses.asdict(OtherDefaults())


_DROP = object()


def _edited(data, path, value):
    """``data`` with the item at ``path`` (a tuple of keys and indices)
    replaced by ``value``, or removed when ``value`` is ``_DROP``."""
    data = json.loads(json.dumps(data))
    *parents, last = path
    holder = data
    for key in parents:
        holder = holder[key]
    if value is _DROP:
        del holder[last]
    else:
        holder[last] = value
    return data


# case -> (item edited, its new value or _DROP, message)
MALFORMED_METAS = {
    "no_binding": (("binding",), _DROP, "meta has keys ['format_version', 'params'], not"),
    "no_params": (("params",), _DROP, "meta has keys ['binding', 'format_version'], not"),
    "unknown_key": (("extra",), 1, "meta has keys ['binding', 'extra', 'format_version', 'params']"),
    "params_unknown_key": (("params", "extra"), 1, "meta.params has keys ['extra', 'k_neighbors',"),
    "params_missing_key": (("params", "k_paths"), _DROP,
                           "meta.params has keys ['k_neighbors', 'n_nodes', 'rng_seed']"),
    "params_not_object": (("params",), [120, 8, 3, 5], "meta.params is list, not dict"),
    "params_float": (("params", "n_nodes"), 120.0, "meta.params.n_nodes is float, not int"),
    "params_bool": (("params", "k_paths"), True, "meta.params.k_paths is bool, not int"),
    "params_string": (("params", "rng_seed"), "5", "meta.params.rng_seed is str, not int"),
    "binding_not_object": (("binding",), "tabletop_pole", "meta.binding is str, not dict"),
    "binding_no_scene_name": (("binding", "scene_name"), _DROP,
                              "meta.binding has keys ['arm_fingerprint', 'scene_sha256']"),
    "binding_no_scene_sha256": (("binding", "scene_sha256"), _DROP,
                                "meta.binding has keys ['arm_fingerprint', 'scene_name']"),
    "binding_no_arm_fingerprint": (("binding", "arm_fingerprint"), _DROP,
                                   "meta.binding has keys ['scene_name', 'scene_sha256']"),
    "binding_sha256_not_string": (("binding", "scene_sha256"), 7, "meta.binding.scene_sha256 is int, not str"),
    "not_object": ((), None, "meta is list, not dict"),
    "not_json": (None, None, "Expecting"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_METAS))
def test_bench_run_rejects_roadmap_with_malformed_meta(
        small_pole_roadmap, small_pole_suite, tmp_path, capsys, case):
    path, value, message = MALFORMED_METAS[case]
    save_roadmap(small_pole_roadmap, tmp_path / "rm.npz")
    with np.load(tmp_path / "rm.npz") as data:
        meta = json.loads(bytes(data["meta"]).decode())
    if path is None:
        raw = json.dumps(meta)[:-20]
    else:
        raw = json.dumps([meta] if not path else _edited(meta, path, value))
    bad = tmp_path / "bad.npz"
    rewrite_roadmap_file(tmp_path / "rm.npz", bad, meta=np.frombuffer(raw.encode(), dtype=np.uint8))
    with within_seconds(1.0):
        with pytest.raises(ValueError) as exc:
            load_roadmap(bad)
    assert str(exc.value).startswith(f"roadmap file {bad}: {message}")
    save_suite(small_pole_suite, tmp_path / "suite.json")
    capsys.readouterr()
    rc = main([
        "bench", "run", "--suite", str(tmp_path / "suite.json"), "--planner", "roadmap",
        "--roadmap", str(bad), "--out", str(tmp_path / "r.csv"),
    ])
    assert rc == 1
    assert capsys.readouterr().err == f"armplan: error: {exc.value}\n"
    assert not (tmp_path / "r.csv").exists()


# case -> (item edited, its new value or _DROP, message)
MALFORMED_SUITES = {
    "no_goal": (("cases", 2, "goal"), _DROP, "suite.cases[2] has keys ['id', 'start'], not"),
    "arm_null": (("arm",), None, "suite.arm is NoneType, not dict"),
    "no_rng_seed": (("rng_seed",), _DROP,
                    "suite has keys ['arm', 'cases', 'format_version', 'scene_name'], not"),
    "unknown_key": (("extra",), 1, "suite has keys ['arm', 'cases', 'extra',"),
    "scene_name_not_string": (("scene_name",), 3, "suite.scene_name is int, not str"),
    "rng_seed_float": (("rng_seed",), 21.0, "suite.rng_seed is float, not int"),
    "rng_seed_negative": (("rng_seed",), -1, "rng_seed must be an integer >= 0, got -1"),
    "no_cases": (("cases",), [], "suite has no cases"),
    "cases_not_list": (("cases",), {}, "suite.cases is dict, not list"),
    "links_not_list": (("arm", "links"), "0.5 0.04", "suite.arm.links is str, not list"),
    "link_string": (("arm", "links", 1, 0), "0.4", "suite.arm.links[1][0] is str, not a number"),
    "link_short": (("arm", "links", 1), [0.4], "not enough values to unpack"),
    "start_string": (("cases", 1, "start"), "0 0 0 0", "suite.cases[1].start is str, not list"),
    "start_null": (("cases", 1, "start", 0), None,
                   "suite.cases[1].start[0] is NoneType, not a number"),
    "id_not_string": (("cases", 0, "id"), 7, "suite.cases[0].id is int, not str"),
    "goal_bool": (("cases", 4, "goal", "x"), True, "suite.cases[4].goal.x is bool, not a number"),
    "heading_matters_string": (("cases", 4, "goal", "heading_matters"), "no",
                               "suite.cases[4].goal.heading_matters is str, not bool"),
    "not_object": ((), None, "suite is list, not dict"),
    "not_json": (None, None, "Expecting"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SUITES))
def test_bench_run_rejects_malformed_suite_file(small_pole_suite, tmp_path, capsys, case):
    path, value, message = MALFORMED_SUITES[case]
    save_suite(small_pole_suite, tmp_path / "suite.json")
    data = json.loads((tmp_path / "suite.json").read_text())
    bad = tmp_path / "bad.json"
    if path is None:
        bad.write_text((tmp_path / "suite.json").read_text()[:-20])
    else:
        bad.write_text(json.dumps([data] if not path else _edited(data, path, value)))
    with within_seconds(1.0):
        with pytest.raises(ValueError) as exc:
            load_suite(bad)
    assert str(exc.value).startswith(f"suite file {bad}: ") and message in str(exc.value)
    capsys.readouterr()
    rc = main([
        "bench", "run", "--suite", str(bad), "--planner", "rrt", "--out", str(tmp_path / "r.csv"),
    ])
    assert rc == 1
    assert capsys.readouterr().err == f"armplan: error: {exc.value}\n"
    assert not (tmp_path / "r.csv").exists()
