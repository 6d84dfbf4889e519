import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from armplan.baselines import rrt_plan
from armplan.collision import Scene, config_in_collision, configs_in_collision
from armplan.geometry import Pose2, signed_distance
from armplan.roadmap import SAMPLED_JOINTS
from armplan.robot import ArmModel, within_limits
from armplan.scenarios import (
    DEFAULT_BASE, DEFAULT_JOINT_LIMITS, DEFAULT_LINKS, SCENE_NAMES, GenerationError, _free_configs,
    build_scene, default_arm, generate_test_suite, ik_goal_configs, load_scene, load_suite, save_scene,
    save_suite, scene_to_dict, suite_to_dict,
)
from test_roadmap import within_seconds


def test_unknown_scene_name():
    with pytest.raises(ValueError):
        build_scene("garage")


def test_tabletop_pole_structure():
    scene = build_scene("tabletop_pole")
    assert len(scene.obstacles) == 3  # table edge, pole, box


def test_shelf_structure_and_slot_gap():
    scene = build_scene("shelf_boxes")
    assert len(scene.obstacles) >= 10
    max_link_width = 2.0 * default_arm().half_widths.max()
    gaps = []
    obs = scene.obstacles
    for i in range(len(obs)):
        for j in range(i + 1, len(obs)):
            d = signed_distance(obs[i], obs[j])
            if d > 1e-9:
                gaps.append(d)
    assert min(gaps) < 2.0 * max_link_width


@pytest.mark.parametrize("name", SCENE_NAMES)
def test_zero_configuration_free_everywhere(name, arm):
    scene = build_scene(name)
    assert not config_in_collision(arm, scene, np.zeros(arm.dof))


@pytest.mark.parametrize("name", SCENE_NAMES)
def test_scene_roundtrip(name, tmp_path):
    scene = build_scene(name)
    p = tmp_path / f"{name}.json"
    save_scene(scene, p)
    loaded = load_scene(p)
    assert loaded.name == scene.name
    assert loaded.workspace_bounds == scene.workspace_bounds
    assert len(loaded.obstacles) == len(scene.obstacles)
    for a, b in zip(loaded.obstacles, scene.obstacles):
        assert np.array_equal(a.vertices, b.vertices)


def test_scene_file_schema(tmp_path):
    scene = build_scene("tabletop_pole")
    p = tmp_path / "scene.json"
    save_scene(scene, p)
    data = json.loads(p.read_text())
    assert set(data) == {"format_version", "name", "workspace_bounds", "obstacles"}
    assert all(set(ob) == {"vertices"} for ob in data["obstacles"])


def _without_obstacles(data):
    del data["obstacles"]
    return data


def _set(data, value, *keys):
    item = data
    for key in keys[:-1]:
        item = item[key]
    item[keys[-1]] = value
    return data


MALFORMED_SCENES = {
    "no_obstacles": (_without_obstacles, "scene has keys ['format_version', 'name', 'workspace_bounds'], "
                                         "not ['format_version', 'name', 'obstacles', 'workspace_bounds']"),
    "top_level_list": (lambda d: [d], "scene is list, not dict"),
    "three_bounds": (lambda d: _set(d, [-1.6, -0.6, 1.6], "workspace_bounds"),
                     "scene.workspace_bounds has 3 numbers, not 4"),
    "string_bound": (lambda d: _set(d, "1.6", "workspace_bounds", 2),
                     "scene.workspace_bounds[2] is str, not a number"),
    "bool_bound": (lambda d: _set(d, True, "workspace_bounds", 0),
                   "scene.workspace_bounds[0] is bool, not a number"),
    "string_bounds": (lambda d: _set(d, "-1.6 -0.6 1.6 1.6", "workspace_bounds"),
                      "scene.workspace_bounds is str, not list"),
    "string_vertex": (lambda d: _set(d, "x", "obstacles", 1, "vertices", 2),
                      "scene.obstacles[1].vertices[2] is str, not list"),
    "string_coordinate": (lambda d: _set(d, "0.5", "obstacles", 0, "vertices", 1, 0),
                          "scene.obstacles[0].vertices[1][0] is str, not a number"),
    "obstacle_key": (lambda d: _set(d, "box", "obstacles", 0, "kind"),
                     "scene.obstacles[0] has keys ['kind', 'vertices'], not ['vertices']"),
    "flat_vertices": (lambda d: _set(d, [[0.0, 0.0, 1.0]], "obstacles", 0, "vertices"),
                      "a convex shape needs at least 3 planar vertices"),
    "empty_bounds": (lambda d: _set(d, [1.0, -0.6, -1.0, 1.6], "workspace_bounds"),
                     "workspace bounds must satisfy xmin < xmax"),
    "version": (lambda d: _set(d, 2, "format_version"), "unsupported scene format version 2"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SCENES))
def test_load_scene_rejects_malformed_file(tmp_path, case):
    edit, message = MALFORMED_SCENES[case]
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(edit(scene_to_dict(build_scene("kitchen")))))
    with within_seconds(1.0):
        with pytest.raises(ValueError) as err:
            load_scene(path)
    assert str(err.value).startswith(f"scene file {path}: ")
    assert message in str(err.value)


def test_load_scene_keeps_file_bytes_and_unbounded_scenes(tmp_path):
    for scene in (build_scene("kitchen"), Scene("open", build_scene("kitchen").obstacles)):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_scene(scene, first)
        save_scene(load_scene(first), second)
        assert first.read_bytes() == second.read_bytes()
        assert load_scene(first).workspace_bounds == scene.workspace_bounds


# ---------------------------------------------------------------------------
# suite generation

def test_generate_contract(small_pole_suite, arm, pole_scene):
    suite = small_pole_suite
    assert len(suite) == 12
    ids = [c.id for c in suite.cases]
    assert len(set(ids)) == len(ids)
    for case in suite.cases:
        assert within_limits(arm, case.start_config)
        assert not config_in_collision(arm, pole_scene, case.start_config)


def test_generate_deterministic(pole_scene, arm):
    a = generate_test_suite(pole_scene, arm, 5, rng_seed=9)
    b = generate_test_suite(pole_scene, arm, 5, rng_seed=9)
    assert json.dumps(suite_to_dict(a), sort_keys=True) == json.dumps(
        suite_to_dict(b), sort_keys=True
    )


def test_generate_count_validation(pole_scene, arm):
    with pytest.raises(ValueError):
        generate_test_suite(pole_scene, arm, 0, rng_seed=1)


@pytest.mark.parametrize("name, bad", [("count", 1.5), ("count", 2.0), ("count", True)])
def test_generate_rejects_non_integer_counts_before_sampling(pole_scene, arm, monkeypatch, name, bad):
    # count=1.5 used to return 2 cases
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking the counts")

    monkeypatch.setattr("armplan.scenarios.configs_in_collision", no_sampling)
    kwargs = {"count": 3, name: bad}
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        generate_test_suite(pole_scene, arm, rng_seed=1, **kwargs)


@pytest.mark.parametrize("bad", [True, 1.5, -1, "3", None])
def test_generate_rejects_bad_rng_seed_before_sampling(pole_scene, arm, monkeypatch, bad):
    # rng_seed=True used to write a suite that load_suite rejects
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking the seed")

    monkeypatch.setattr("armplan.scenarios.configs_in_collision", no_sampling)
    with pytest.raises(ValueError, match="rng_seed must be an integer >= 0"):
        generate_test_suite(pole_scene, arm, 3, rng_seed=bad)


def test_generate_stores_a_numpy_seed_as_an_int(pole_scene, arm, tmp_path):
    suite = generate_test_suite(pole_scene, arm, 1, rng_seed=np.int64(9))
    assert type(suite.rng_seed) is int
    save_suite(suite, tmp_path / "suite.json")
    assert suite_to_dict(load_suite(tmp_path / "suite.json")) == suite_to_dict(suite)


def test_generate_stops_at_the_sample_cap(arm, monkeypatch):
    # a workspace smaller than the first link leaves no free configuration
    cramped = Scene("cramped", (), workspace_bounds=(-0.2, -0.2, 0.2, 0.2))
    checked = []

    def counting(arm_, scene, qs):
        checked.append(len(qs))
        return configs_in_collision(arm_, scene, qs)

    monkeypatch.setattr("armplan.scenarios.MAX_SAMPLE_ATTEMPTS", 300)
    monkeypatch.setattr("armplan.scenarios.configs_in_collision", counting)
    with pytest.raises(GenerationError, match="exceeded 300 samples .* scene 'cramped'"):
        generate_test_suite(cramped, arm, 2, rng_seed=1)
    assert checked == [300]  # one batch, cut at the cap


# ---------------------------------------------------------------------------
# the rejection sampler against the two it replaced

def one_at_a_time_sampler(scene, arm, rng, n):
    """Suite generation's former sampler: every joint uniform in its limits,
    one configuration drawn and checked at a time."""
    out = []
    while len(out) < n:
        q = rng.uniform(arm.lower, arm.upper)
        if not config_in_collision(arm, scene, q):
            out.append(q)
    return np.array(out)


def whole_batch_sampler(scene, arm, rng, n):
    """Roadmap node sampling's former sampler: the proximal joints uniform,
    the rest at the midpoint of their limits, in whole batches of 1024."""
    n_sampled = min(SAMPLED_JOINTS, arm.dof)
    distal = (arm.lower[n_sampled:] + arm.upper[n_sampled:]) / 2.0
    collected = []
    while sum(len(c) for c in collected) < n:
        batch = np.empty((1024, arm.dof))
        batch[:, :n_sampled] = rng.uniform(arm.lower[:n_sampled], arm.upper[:n_sampled], size=(1024, n_sampled))
        batch[:, n_sampled:] = distal
        collected.append(batch[~configs_in_collision(arm, scene, batch)])
    return np.vstack(collected)[:n]


FIVE_LINK_ARM = ArmModel(DEFAULT_BASE, DEFAULT_LINKS + ((0.15, 0.02),), DEFAULT_JOINT_LIMITS + ((-2.0, 2.4),))
SCENES = {name: build_scene(name) for name in SCENE_NAMES}


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scene_name=st.sampled_from(SCENE_NAMES),
       five_links=st.booleans(), n=st.integers(1, 1200))
def test_free_configs_match_both_former_samplers(seed, scene_name, five_links, n):
    scene, arm = SCENES[scene_name], FIVE_LINK_ARM if five_links else default_arm()
    for sampled, oracle in ((arm.dof, one_at_a_time_sampler), (min(SAMPLED_JOINTS, arm.dof), whole_batch_sampler)):
        free = _free_configs(scene, arm, np.random.default_rng(seed), sampled)
        got = np.array(list(itertools.islice(free, n)))
        assert np.array_equal(got, oracle(scene, arm, np.random.default_rng(seed), n))


def test_suite_roundtrip_and_invariants(small_pole_suite, arm, pole_scene, tmp_path):
    p = tmp_path / "suite.json"
    save_suite(small_pole_suite, p)
    loaded = load_suite(p)
    assert suite_to_dict(loaded) == suite_to_dict(small_pole_suite)
    # reload invariants: collision-free starts, at least one collision-free IK
    for case in loaded.cases:
        assert not config_in_collision(loaded.arm, pole_scene, case.start_config)
        assert ik_goal_configs(loaded.arm, pole_scene, case.goal)


def test_suite_save_rejects_arm_with_other_base(small_pole_suite, tmp_path):
    # the file stores no base pose: saved, this suite would reload as another arm
    arm = dataclasses.replace(small_pole_suite.arm, base=Pose2(0.3, 0.0, 1.0))
    moved = dataclasses.replace(small_pole_suite, arm=arm)
    with pytest.raises(ValueError, match="based at"):
        save_suite(moved, tmp_path / "suite.json")
    assert not (tmp_path / "suite.json").exists()


@pytest.mark.parametrize("edit", ["above", "below", "nan", "inf", "short", "long"])
def test_suite_load_rejects_bad_start(small_pole_suite, tmp_path, edit):
    p = tmp_path / "suite.json"
    save_suite(small_pole_suite, p)
    data = json.loads(p.read_text())
    start = data["cases"][3]["start"]
    if edit == "short":
        start.pop()
    elif edit == "long":
        start.append(0.0)
    else:  # joint 1 limits are +-2.53
        start[1] = {"above": 2.7, "below": -2.7, "nan": float("nan"), "inf": float("inf")}[edit]
    p.write_text(json.dumps(data))  # NaN and Infinity as Python's json writes them
    with pytest.raises(ValueError, match="joint limits"):
        load_suite(p)


@pytest.mark.parametrize("field", ["x", "y", "heading"])
def test_suite_load_rejects_nan_goal(small_pole_suite, tmp_path, field):
    p = tmp_path / "suite.json"
    save_suite(small_pole_suite, p)
    data = json.loads(p.read_text())
    data["cases"][2]["goal"][field] = float("nan")
    p.write_text(json.dumps(data))  # NaN as Python's json writes it
    with pytest.raises(ValueError, match="finite"):
        load_suite(p)


@pytest.mark.parametrize("where, value", [
    (("joint_limits", 2), [float("-inf"), float("inf")]),
    (("joint_limits", 0), [float("nan"), 1.0]),
    (("links", 1), [float("nan"), 0.035]),
    (("links", 3), [0.2, float("inf")]),
])
def test_suite_load_rejects_non_finite_arm(small_pole_suite, tmp_path, where, value):
    p = tmp_path / "suite.json"
    save_suite(small_pole_suite, p)
    data = json.loads(p.read_text())
    key, i = where
    data["arm"][key][i] = value
    p.write_text(json.dumps(data))  # NaN and Infinity as Python's json writes them
    with pytest.raises(ValueError, match=f"suite file {p}: .* must be finite"):
        load_suite(p)


def test_suite_file_schema(small_pole_suite, tmp_path):
    p = tmp_path / "suite.json"
    save_suite(small_pole_suite, p)
    data = json.loads(p.read_text())
    assert set(data) == {"format_version", "scene_name", "rng_seed", "arm", "cases"}
    assert set(data["arm"]) == {"links", "joint_limits"}
    case = data["cases"][0]
    assert set(case) == {"id", "start", "goal"}
    assert set(case["goal"]) == {"x", "y", "heading", "heading_matters"}


def test_kept_cases_solvable_by_rrt(small_pole_suite, arm, pole_scene):
    # the generator's own feasibility oracle, re-run on a sample of kept cases
    for case in small_pole_suite.cases[:4]:
        goals = ik_goal_configs(arm, pole_scene, case.goal)
        assert goals
        path = rrt_plan(pole_scene, arm, case.start_config, goals, rng_seed=1234)
        assert path is not None
