import numpy as np
import pytest

from armplan.baselines import rrt_plan
from armplan.collision import config_in_collision, configs_in_collision, edge_in_collision


def test_start_equals_goal(arm, empty_scene):
    q = 0.2 * np.ones(arm.dof)
    path = rrt_plan(empty_scene, arm, q, [q])
    assert len(path) == 1 and np.array_equal(path[0], q)


def test_colliding_start_rejected(arm, pole_scene):
    bad = np.array([-1.3, -0.5, -0.4, -0.2])
    assert config_in_collision(arm, pole_scene, bad)
    with pytest.raises(ValueError):
        rrt_plan(pole_scene, arm, bad, [np.zeros(arm.dof)])


def test_colliding_goal_rejected(arm, pole_scene):
    # a goal in collision can never be reached: it used to spend the whole budget
    bad = np.array([-1.3, -0.5, -0.4, -0.2])
    start = np.zeros(arm.dof)
    assert config_in_collision(arm, pole_scene, bad) and not config_in_collision(arm, pole_scene, start)
    with pytest.raises(ValueError, match="goal configuration is in collision"):
        rrt_plan(pole_scene, arm, start, [np.full(arm.dof, 0.3), bad], max_iters=200)


def test_start_and_goals_checked_in_one_collision_batch(arm, pole_scene, monkeypatch):
    import armplan.collision
    rows = []

    def counting(arm_, scene, qs):
        rows.append(len(qs))
        return configs_in_collision(arm_, scene, qs)

    monkeypatch.setattr(armplan.collision, "configs_in_collision", counting)
    start = np.zeros(arm.dof)
    rrt_plan(pole_scene, arm, start, [start + 0.1, start - 0.1], max_iters=1)
    # the start and both goals, as many calls as the start check alone; every
    # later call is an edge check of at least 10 interpolated configurations
    assert rows[0] == 3 and all(n >= 12 for n in rows[1:])


def test_configs_outside_limits_rejected(arm, empty_scene):
    q = np.zeros(arm.dof)
    assert rrt_plan(empty_scene, arm, q, [np.full(arm.dof, 0.3)]) is not None
    for bad in (2.7, -2.7, np.nan, np.inf):  # joint 1 limits are +-2.53
        off = q.copy()
        off[1] = bad
        with pytest.raises(ValueError, match="start .* joint limits"):
            rrt_plan(empty_scene, arm, off, [q])
        with pytest.raises(ValueError, match="goal .* joint limits"):
            rrt_plan(empty_scene, arm, q, [np.full(arm.dof, 0.3), off])


def test_requires_goal(arm, empty_scene):
    with pytest.raises(ValueError):
        rrt_plan(empty_scene, arm, np.zeros(arm.dof), [])


def test_quick_success_on_near_goals(arm, empty_scene):
    rng = np.random.default_rng(0)
    for trial in range(100):
        start = rng.uniform(arm.lower * 0.8, arm.upper * 0.8)
        goal = np.clip(start + rng.uniform(-0.4, 0.4, arm.dof), arm.lower, arm.upper)
        path = rrt_plan(empty_scene, arm, start, [goal], rng_seed=trial, max_iters=1000)
        assert path is not None, trial


def test_path_invariants(arm, pole_scene, small_pole_suite):
    from armplan.scenarios import ik_goal_configs

    checked = 0
    for i, case in enumerate(small_pole_suite.cases[:5]):
        goals = ik_goal_configs(arm, pole_scene, case.goal)
        path = rrt_plan(pole_scene, arm, case.start_config, goals, rng_seed=100 + i)
        if path is None:
            continue
        checked += 1
        assert np.array_equal(path[0], case.start_config)
        assert any(np.array_equal(path[-1], g) for g in goals)
        for a, b in zip(path[:-1], path[1:]):
            assert not edge_in_collision(arm, pole_scene, a, b)
    assert checked >= 3


def test_deterministic(arm, pole_scene):
    start = np.zeros(arm.dof)
    goal = np.array([1.0, 0.5, -0.4, 0.3])
    p1 = rrt_plan(pole_scene, arm, start, [goal], rng_seed=77, max_iters=5000)
    p2 = rrt_plan(pole_scene, arm, start, [goal], rng_seed=77, max_iters=5000)
    assert p1 is not None and len(p1) == len(p2)
    for a, b in zip(p1, p2):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("bad", [True, 2.5, 100.0])
def test_rejects_non_integer_iteration_budget(arm, empty_scene, bad):
    # max_iters=True used to run one iteration
    q = np.zeros(arm.dof)
    with pytest.raises(ValueError, match="max_iters must be an integer"):
        rrt_plan(empty_scene, arm, q, [np.full(arm.dof, 0.3)], max_iters=bad)


@pytest.mark.parametrize("bad", [True, 1.5, -1, "3"])
def test_rejects_bad_rng_seed(arm, empty_scene, bad):
    # rng_seed=1.5 used to die in numpy's SeedSequence with a TypeError
    q = np.zeros(arm.dof)
    with pytest.raises(ValueError, match="rng_seed must be an integer >= 0"):
        rrt_plan(empty_scene, arm, q, [np.full(arm.dof, 0.3)], rng_seed=bad)


def test_accepts_numpy_integer_iteration_budget(arm, pole_scene):
    start, goal = np.zeros(arm.dof), np.array([1.0, 0.5, -0.4, 0.3])
    p1 = rrt_plan(pole_scene, arm, start, [goal], rng_seed=77, max_iters=np.int64(5000))
    p2 = rrt_plan(pole_scene, arm, start, [goal], rng_seed=77, max_iters=5000)
    assert p1 is not None and np.array_equal(np.array(p1), np.array(p2))


def test_rejects_iteration_budget_below_one(arm, empty_scene):
    q = np.zeros(arm.dof)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="max_iters"):
            rrt_plan(empty_scene, arm, q, [np.full(arm.dof, 0.3)], max_iters=bad)
