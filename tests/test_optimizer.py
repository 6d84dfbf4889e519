import numpy as np
import pytest

import armplan.optimizer as opt
from armplan.collision import (
    Scene, config_in_collision, pair_signed_distances, trajectory_in_collision,
)
from armplan.geometry import ConvexShape, Pose2
from armplan.optimizer import (
    collision_penalty, merit_gradient, optimize, smoothness_cost,
)
from armplan.robot import ArmModel
from armplan.seedprep import resample_path, straight_line_seed


def flat_arm():
    return ArmModel(
        base=Pose2(0.0, 0.0, 0.0),
        links=((0.5, 0.04), (0.4, 0.04), (0.3, 0.04), (0.2, 0.04)),
        joint_limits=((-2.9, 2.9),) + ((-2.5, 2.5),) * 3,
    )


def sequential_optimize(seed, arm, scene):
    """Reference optimizer: the inner loop with one penalty evaluation per
    trial step and a gradient every iteration, as ``optimize`` ran before
    its line search was batched. Returns (trajectory, merit_log,
    iterations, final_cost, converged, collision_free)."""
    X = np.array(seed, dtype=float)
    X[1:-1] = np.clip(X[1:-1], arm.lower, arm.upper)

    def penalty(traj):
        return collision_penalty(traj[1:-1], arm, scene, opt.D_SAFE)

    def merit(traj, mu):
        return smoothness_cost(traj) + mu * penalty(traj)

    mu, iterations, merit_log, converged = opt._MU0, 0, [], False
    for _ in range(opt._MAX_PENALTY_ROUNDS):
        trust = opt._TRUST_REGION_INIT
        m_cur = merit(X, mu)
        round_merits, stalled = [m_cur], False
        for _ in range(opt._MAX_INNER_ITERS):
            iterations += 1
            g = merit_gradient(X, arm, scene, mu, opt.D_SAFE)
            gmax = float(np.abs(g).max())
            if gmax < 1e-12:
                stalled = True
                break
            accepted, alpha = None, trust / gmax
            for _ in range(6):
                cand = X.copy()
                step = np.clip(-alpha * g, -trust, trust)
                cand[1:-1] = np.clip(X[1:-1] + step, arm.lower, arm.upper)
                m_cand = merit(cand, mu)
                if m_cand < m_cur - 1e-12:
                    accepted = (cand, m_cand)
                    break
                alpha *= 0.5
            if accepted is None:
                trust *= opt._TRUST_SHRINK
                if trust < opt._TRUST_MIN:
                    stalled = True
                    break
                continue
            X, m_new = accepted
            decrease, m_cur = m_cur - m_new, m_new
            round_merits.append(m_cur)
            trust = min(trust * opt._TRUST_EXPAND, 10.0 * opt._TRUST_REGION_INIT)
            if decrease < opt._CONVERGENCE_TOL:
                stalled = True
                break
        merit_log.append(tuple(round_merits))
        if penalty(X) <= 0.0:
            converged = stalled
            break
        mu *= opt._MU_GROWTH
    free = not trajectory_in_collision(arm, scene, X)[0]
    return X, tuple(merit_log), iterations, merit(X, mu), converged, free


def straight_line_cases(arm, scene, count, rng_seed):
    """Resampled straight-line seeds between random collision-free
    configurations."""
    rng = np.random.default_rng(rng_seed)
    seeds = []
    while len(seeds) < count:
        a = rng.uniform(arm.lower, arm.upper)
        b = rng.uniform(arm.lower, arm.upper)
        if not (config_in_collision(arm, scene, a) or config_in_collision(arm, scene, b)):
            seeds.append(resample_path(straight_line_seed(a, b, 30)))
    return seeds


# ---------------------------------------------------------------------------
# cost terms

def test_smoothness_constant_zero():
    assert smoothness_cost(np.tile([0.1, 0.2, 0.3], (5, 1))) == 0.0


def test_smoothness_two_waypoints():
    a = np.zeros(3)
    b = np.array([0.3, 0.4, 0.0])
    assert smoothness_cost(np.vstack([a, b])) == pytest.approx(0.25)


def test_smoothness_halves_with_midpoint():
    a, b = np.zeros(3), np.array([0.3, 0.4, 0.0])
    two = smoothness_cost(np.vstack([a, b]))
    three = smoothness_cost(straight_line_seed(a, b, 3))
    assert three == pytest.approx(two / 2)


def test_penalty_zero_when_clear(arm, empty_scene):
    traj = straight_line_seed(np.zeros(arm.dof), 0.3 * np.ones(arm.dof), 10)
    assert collision_penalty(traj, arm, empty_scene, 0.05) == 0.0


def test_penalty_hinge_arithmetic():
    arm = flat_arm()
    # box intersecting only link 1 at the zero configuration, penetration 0.10
    scene = Scene("pen", (ConvexShape.box(0.15, -0.06, 0.35, 0.50),))
    q_hit = np.zeros(4)
    q_clear = np.array([np.pi / 2, 0.0, 0.0, 0.0])
    from armplan.collision import pair_signed_distances
    sd = pair_signed_distances(arm, scene, q_hit[None])[0]
    assert sd[0, 0] == pytest.approx(-0.10, abs=1e-12)
    assert (sd[1:, 0] > 0.05).all()
    traj = np.vstack([q_hit, q_clear])
    assert collision_penalty(traj, arm, scene, 0.05) == pytest.approx(0.15, abs=1e-12)


def test_penalty_matches_naive_recomputation(arm, shelf_scene):
    from armplan.geometry import signed_distance
    from armplan.robot import link_shapes

    rng = np.random.default_rng(0)
    d_safe = 0.05
    for _ in range(5):
        traj = rng.uniform(arm.lower, arm.upper, size=(4, arm.dof))
        naive = 0.0
        for q in traj:
            for link in link_shapes(arm, q):
                for ob in shelf_scene.obstacles:
                    naive += max(0.0, d_safe - signed_distance(link, ob))
        got = collision_penalty(traj, arm, shelf_scene, d_safe)
        assert got == pytest.approx(naive, abs=1e-12)


# ---------------------------------------------------------------------------
# optimize

def test_fixed_point_in_free_space(arm, empty_scene):
    seed = straight_line_seed(np.zeros(arm.dof), 0.4 * np.ones(arm.dof), 30)
    res = optimize(seed, arm, empty_scene)
    assert res.converged and res.collision_free
    assert np.abs(res.trajectory - seed).max() < 1e-6


def test_rejects_bad_seeds(arm, empty_scene, pole_scene):
    with pytest.raises(ValueError):
        optimize(np.zeros((1, arm.dof)), arm, empty_scene)
    bad = np.array([-1.3, -0.5, -0.4, -0.2])
    seed = straight_line_seed(bad, np.zeros(arm.dof), 5)
    with pytest.raises(ValueError):
        optimize(seed, arm, pole_scene)


def test_rejects_endpoints_outside_limits(arm, empty_scene):
    inside = straight_line_seed(np.zeros(arm.dof), 0.4 * np.ones(arm.dof), 5)
    assert optimize(inside, arm, empty_scene).collision_free
    for end in (0, -1):
        for bad in (2.7, -2.7, np.nan, np.inf):  # joint 1 limits are +-2.53
            seed = inside.copy()
            seed[end, 1] = bad
            with pytest.raises(ValueError, match="joint limits"):
                optimize(seed, arm, empty_scene)


def test_endpoint_shape_and_limit_preservation(arm, pole_scene):
    rng = np.random.default_rng(1)
    from armplan.collision import config_in_collision

    done = 0
    while done < 6:
        a = rng.uniform(arm.lower, arm.upper)
        b = rng.uniform(arm.lower, arm.upper)
        if config_in_collision(arm, pole_scene, a) or config_in_collision(arm, pole_scene, b):
            continue
        seed = resample_path(straight_line_seed(a, b, 30))
        res = optimize(seed, arm, pole_scene)
        assert res.trajectory.shape == seed.shape
        assert np.array_equal(res.trajectory[0], seed[0])
        assert np.array_equal(res.trajectory[-1], seed[-1])
        assert (res.trajectory >= arm.lower - 1e-12).all()
        assert (res.trajectory <= arm.upper + 1e-12).all()
        done += 1


def test_merit_monotone_within_rounds(arm, pole_scene):
    rng = np.random.default_rng(2)
    from armplan.collision import config_in_collision

    done = 0
    while done < 6:
        a = rng.uniform(arm.lower, arm.upper)
        b = rng.uniform(arm.lower, arm.upper)
        if config_in_collision(arm, pole_scene, a) or config_in_collision(arm, pole_scene, b):
            continue
        res = optimize(resample_path(straight_line_seed(a, b, 30)), arm, pole_scene)
        for round_merits in res.merit_log:
            diffs = np.diff(np.array(round_merits))
            assert (diffs <= 1e-12).all()
        done += 1


def test_collision_free_flag_matches_independent_checker(arm, pole_scene):
    rng = np.random.default_rng(3)
    from armplan.collision import config_in_collision

    done = 0
    while done < 8:
        a = rng.uniform(arm.lower, arm.upper)
        b = rng.uniform(arm.lower, arm.upper)
        if config_in_collision(arm, pole_scene, a) or config_in_collision(arm, pole_scene, b):
            continue
        res = optimize(resample_path(straight_line_seed(a, b, 30)), arm, pole_scene)
        flag, _ = trajectory_in_collision(arm, pole_scene, res.trajectory)
        assert res.collision_free == (not flag)
        done += 1


def test_merit_gradient_matches_finite_differences(arm, shelf_scene):
    rng = np.random.default_rng(5)
    d_safe, mu, h = 0.05, 10.0, 1e-6
    from armplan.collision import pair_signed_distances

    checked = 0
    while checked < 3:
        traj = rng.uniform(arm.lower * 0.9, arm.upper * 0.9, size=(5, arm.dof))
        sd = pair_signed_distances(arm, shelf_scene, traj)
        # stay away from hinge kinks so the merit is smooth where probed
        if np.abs(sd - d_safe).min() < 1e-3:
            continue
        g = merit_gradient(traj, arm, shelf_scene, mu, d_safe)

        def merit(t):
            return smoothness_cost(t) + mu * collision_penalty(t, arm, shelf_scene, d_safe)

        fd = np.zeros_like(g)
        for t in range(1, 4):
            for j in range(arm.dof):
                tp, tm = traj.copy(), traj.copy()
                tp[t, j] += h
                tm[t, j] -= h
                fd[t - 1, j] = (merit(tp) - merit(tm)) / (2 * h)
        scale = max(1.0, np.abs(fd).max())
        assert np.abs(g - fd).max() / scale < 1e-4
        checked += 1


def test_two_waypoint_seed_passthrough(arm, empty_scene):
    seed = np.vstack([np.zeros(arm.dof), 0.2 * np.ones(arm.dof)])
    res = optimize(seed, arm, empty_scene)
    assert np.array_equal(res.trajectory, seed)
    assert res.converged and res.collision_free


@pytest.mark.parametrize("scene_fixture", ["pole_scene", "shelf_scene"])
def test_matches_sequential_reference(request, arm, scene_fixture):
    scene = request.getfixturevalue(scene_fixture)
    rounds = []
    for seed in straight_line_cases(arm, scene, 6, rng_seed=32):
        X, merit_log, iterations, final_cost, converged, free = sequential_optimize(seed, arm, scene)
        res = optimize(seed, arm, scene)
        assert np.array_equal(res.trajectory, X)
        assert res.merit_log == merit_log
        assert res.iterations == iterations
        assert res.final_cost == final_cost
        assert res.converged == converged
        assert res.collision_free == free
        rounds.append(len(merit_log))
    assert max(rounds) > 1       # a case that escalates the penalty coefficient


@pytest.mark.parametrize("scene_fixture", ["pole_scene", "shelf_scene"])
def test_signed_distance_calls_per_iteration(request, arm, scene_fixture, monkeypatch):
    """One call for the seed's penalty, one gradient per round start and per
    accepted step, and one batched line search per iteration."""
    scene = request.getfixturevalue(scene_fixture)
    rows = []

    def counting(arm_, scene_, Q, far_cutoff=None):
        rows.append(len(Q))
        return pair_signed_distances(arm_, scene_, Q, far_cutoff=far_cutoff)

    monkeypatch.setattr(opt, "pair_signed_distances", counting)
    rejected_total = 0
    for seed in straight_line_cases(arm, scene, 4, rng_seed=36):
        rows.clear()
        res = optimize(seed, arm, scene)
        n = len(seed) - 2
        penalty_rows, search_rows, gradient_rows = n, 6 * n, 2 * n * arm.dof
        assert len({penalty_rows, search_rows, gradient_rows}) == 3
        assert set(rows) <= {penalty_rows, search_rows, gradient_rows}
        rounds = len(res.merit_log)
        accepted = sum(len(r) - 1 for r in res.merit_log)
        rejected = res.iterations - accepted
        searches = rows.count(search_rows)
        gradients = rows.count(gradient_rows)
        assert rows[0] == penalty_rows and rows.count(penalty_rows) == 1
        assert searches <= res.iterations
        assert gradients <= rounds + accepted
        # calls made by iterations: at most 2 for an accepted step, 1 for a
        # rejected one (which keeps the gradient)
        assert searches + gradients - rounds <= 2 * accepted + rejected
        assert len(rows) <= 2 * res.iterations + rounds + 1
        rejected_total += rejected
    assert rejected_total > 0
