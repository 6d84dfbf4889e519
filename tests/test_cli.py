import pytest

from armplan.cli import main
from armplan.roadmap import RoadmapParams, build_roadmap, load_roadmap, save_roadmap
from armplan.scenarios import build_scene, default_arm, load_suite, scene_from_dict, scene_to_dict

from test_roadmap import (
    MALFORMED_GRAPHS, forbid_dijkstra, rewrite_roadmap_file, write_malformed_roadmap,
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


def test_gen_cases_rejects_rrt_budget_below_one(tmp_path, capsys):
    out = tmp_path / "suite.json"
    rc = main([
        "bench", "gen-cases", "--scene", "tabletop_pole", "--count", "4",
        "--seed", "3", "--rrt-iters", "0", "--out", str(out),
    ])
    assert rc == 1
    assert "rrt_max_iters" in capsys.readouterr().err
    assert not out.exists()


def test_missing_results_file_is_an_error(tmp_path, capsys):
    rc = main(["bench", "report", "--in", str(tmp_path / "nope.csv")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


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


@pytest.mark.parametrize("fault", ["meta", "edge_weights", "negative_weight", "self_loop"])
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
