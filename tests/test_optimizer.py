import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import armplan.optimizer as opt
from armplan.collision import (
    _CERTIFY_MARGIN, Scene, config_in_collision, pair_signed_distances, trajectory_in_collision,
)
from armplan.geometry import ConvexShape, Pose2
from armplan.optimizer import (
    D_SAFE, _hinge_sums, _smoothness_gradient_interior, collision_penalty, merit_gradient, optimize,
    smoothness_cost,
)
from armplan.roadmap import RoadmapParams, build_roadmap, query
from armplan.robot import ArmModel
from armplan.scenarios import SCENE_NAMES, generate_test_suite
from armplan.seedprep import resample_path, straight_line_seed

from test_collision import _DENSE_SCENES, _dense_case_scene, five_link_offset_arm


def flat_arm():
    return ArmModel(
        base=Pose2(0.0, 0.0, 0.0),
        links=((0.5, 0.04), (0.4, 0.04), (0.3, 0.04), (0.2, 0.04)),
        joint_limits=((-2.9, 2.9),) + ((-2.5, 2.5),) * 3,
    )


def trial_steps(arm, X, g, trust):
    """The six trial iterates of a line search from ``X`` along ``-g``, each
    step half the last, clipped to the trust box and the joint limits."""
    alpha, cands = trust / float(np.abs(g).max()), []
    for _ in range(6):
        cand = X.copy()
        cand[1:-1] = np.clip(X[1:-1] + np.clip(-alpha * g, -trust, trust), arm.lower, arm.upper)
        cands.append(cand)
        alpha *= 0.5
    return np.array(cands)


def sequential_optimize(seed, arm, scene):
    """Reference optimizer: the inner loop with one penalty evaluation per
    trial step and a gradient every iteration, as ``optimize`` ran before
    its line search was batched. Returns (trajectory, merit_log,
    iterations, final_cost, converged, collision_free)."""
    X = np.array(seed, dtype=float)
    X[1:-1] = np.clip(X[1:-1], arm.lower, arm.upper)

    def penalty(traj):
        return collision_penalty(traj[1:-1], arm, scene)

    def merit(traj, mu):
        return smoothness_cost(traj) + mu * penalty(traj)

    mu, iterations, merit_log, converged = opt._MU0, 0, [], False
    for rnd in range(opt._MAX_PENALTY_ROUNDS):
        if rnd:
            mu *= opt._MU_GROWTH
        trust = opt._TRUST_REGION_INIT
        m_cur = merit(X, mu)
        round_merits, stalled = [m_cur], False
        for _ in range(opt._MAX_INNER_ITERS):
            iterations += 1
            g = merit_gradient(X, arm, scene, mu)
            if np.abs(g).max() < 1e-12:
                stalled = True
                break
            accepted = None
            for j, cand in enumerate(trial_steps(arm, X, g, trust)):
                m_cand = merit(cand, mu)
                if m_cand < m_cur - 1e-12:
                    accepted = (cand, m_cand, j)
                    break
            if accepted is None:
                trust *= opt._TRUST_SHRINK
                if trust < opt._TRUST_MIN:
                    stalled = True
                    break
                continue
            X, m_new, j = accepted
            decrease, m_cur = m_cur - m_new, m_new
            round_merits.append(m_cur)
            trust = min(opt._TRUST_EXPAND * trust * 0.5 ** j, 10.0 * opt._TRUST_REGION_INIT)
            if decrease < opt._CONVERGENCE_TOL:
                stalled = True
                break
        merit_log.append(tuple(round_merits))
        if penalty(X) <= 0.0:
            converged = stalled
            break
    free = not trajectory_in_collision(arm, scene, X)[0]
    return X, tuple(merit_log), iterations, merit(X, mu), converged, free


def iter_straight_line_cases(arm, scene, rng_seed):
    """Resampled straight-line seeds between random collision-free
    configurations, without end."""
    rng = np.random.default_rng(rng_seed)
    while True:
        a = rng.uniform(arm.lower, arm.upper)
        b = rng.uniform(arm.lower, arm.upper)
        if not (config_in_collision(arm, scene, a) or config_in_collision(arm, scene, b)):
            yield resample_path(straight_line_seed(a, b))


def straight_line_cases(arm, scene, count, rng_seed):
    """The first ``count`` seeds of ``iter_straight_line_cases``."""
    return list(itertools.islice(iter_straight_line_cases(arm, scene, rng_seed), count))


def roadmap_cases(arm, scene, count, rng_seed):
    """Resampled roadmap paths, as ``roadmap+opt`` seeds the optimizer: the
    queries of an RRT-validated suite on a 300-node roadmap, the first
    ``count`` of them that the roadmap answers."""
    rm = build_roadmap(scene, arm, RoadmapParams(n_nodes=300, rng_seed=rng_seed))
    suite = generate_test_suite(scene, arm, 2 * count, rng_seed=rng_seed)
    paths = (query(rm, arm, scene, case.start_config, case.goal).path for case in suite.cases)
    seeds = [resample_path(p) for p in paths if p is not None and len(p) > 1]
    assert len(seeds) >= count
    return seeds[:count]


def exact_clearances(arm, scene, Q):
    """Smallest signed distance of each row of ``Q`` over its (link,
    obstacle) pairs, with no far cutoff (inf without pairs)."""
    return pair_signed_distances(arm, scene, Q).min(axis=(1, 2), initial=np.inf)


def dense_penalty_gradient_interior(arm, scene, traj):
    """Test-only dense reference: the penalty gradient as it was before its
    screen, central finite differences of the hinge sums of every interior
    waypoint's 2 * K perturbed rows in one batch."""
    interior = traj[1:-1]
    ti, k = interior.shape
    eye = np.eye(k) * opt._FD_STEP
    plus = interior[:, None, :] + eye[None, :, :]
    minus = interior[:, None, :] - eye[None, :, :]
    batch = np.concatenate([plus.reshape(-1, k), minus.reshape(-1, k)], axis=0)
    sums = _hinge_sums(arm, scene, batch)[0]
    p = sums[: ti * k].reshape(ti, k)
    m = sums[ti * k:].reshape(ti, k)
    return (p - m) / (2.0 * opt._FD_STEP)


def screen_threshold(arm):
    """The clearance bound below which a waypoint keeps its gradient rows."""
    return D_SAFE + 2.0 * arm.joint_reach[0] * opt._FD_STEP


def bound_crossings(arm, scene, below, above, target):
    """Configurations on either side of ``target`` in clearance bound,
    a hair apart: each segment from a row of ``below`` (bound < target) to
    the same row of ``above`` (bound >= target) is bisected 60 times."""
    for _ in range(60):
        mid = 0.5 * (below + above)
        low = (_hinge_sums(arm, scene, mid)[1] < target)[:, None]
        below, above = np.where(low, mid, below), np.where(low, above, mid)
    return below, above


def near_boundary_trajectory(arm, scene, rng):
    """Waypoints whose clearance bounds lie within 3e-3 of ``D_SAFE``:
    uniform draws inside that window, and pairs straddling ``D_SAFE`` and
    the screen threshold inside it, shuffled, between two uniform endpoints. A scene
    without obstacles gets uniform waypoints."""
    pool = rng.uniform(arm.lower, arm.upper, size=(16384, arm.dof))
    bound = _hinge_sums(arm, scene, pool)[1]
    if not np.isfinite(bound).any():
        return pool[:34]
    waypoints = [pool[np.abs(bound - D_SAFE) < 3e-3][:24]]
    below = pool[bound < D_SAFE - 3e-3][:4]
    above = pool[bound > D_SAFE + 3e-3][:4]
    for target in (D_SAFE, screen_threshold(arm)):
        low, high = bound_crossings(arm, scene, below, above, target)
        # the reported bound can jump where a pair passes the far cutoff: keep
        # the crossings whose upper side stays inside the window
        kept = np.abs(_hinge_sums(arm, scene, high)[1] - D_SAFE) < 3e-3
        waypoints += [low[kept], high[kept]]
    waypoints = rng.permutation(np.concatenate(waypoints))
    assert (np.abs(_hinge_sums(arm, scene, waypoints)[1] - D_SAFE) < 3e-3).all()
    return np.concatenate([pool[-2:-1], waypoints, pool[-1:]])


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
    three = smoothness_cost(np.vstack([a, (a + b) / 2, b]))
    assert three == pytest.approx(two / 2)


def test_penalty_zero_when_clear(arm, empty_scene):
    traj = straight_line_seed(np.zeros(arm.dof), 0.3 * np.ones(arm.dof))
    assert collision_penalty(traj, arm, empty_scene) == 0.0


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
    assert collision_penalty(traj, arm, scene) == pytest.approx(D_SAFE + 0.10, abs=1e-12)


def test_penalty_matches_naive_recomputation(arm, shelf_scene):
    from armplan.geometry import signed_distance
    from armplan.robot import link_shapes

    rng = np.random.default_rng(0)
    for _ in range(5):
        traj = rng.uniform(arm.lower, arm.upper, size=(4, arm.dof))
        naive = 0.0
        for q in traj:
            for link in link_shapes(arm, q):
                for ob in shelf_scene.obstacles:
                    naive += max(0.0, D_SAFE - signed_distance(link, ob))
        got = collision_penalty(traj, arm, shelf_scene)
        assert got == pytest.approx(naive, abs=1e-12)


# ---------------------------------------------------------------------------
# optimize

def test_fixed_point_in_free_space(arm, empty_scene):
    seed = straight_line_seed(np.zeros(arm.dof), 0.4 * np.ones(arm.dof))
    res = optimize(seed, arm, empty_scene)
    assert res.converged and res.collision_free
    assert np.abs(res.trajectory - seed).max() < 1e-6


def test_rejects_bad_seeds(arm, empty_scene, pole_scene):
    with pytest.raises(ValueError):
        optimize(np.zeros((1, arm.dof)), arm, empty_scene)
    bad = np.array([-1.3, -0.5, -0.4, -0.2])
    seed = straight_line_seed(bad, np.zeros(arm.dof))
    with pytest.raises(ValueError):
        optimize(seed, arm, pole_scene)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_rejects_non_finite_interior_waypoints(arm, empty_scene, bad):
    # +inf used to be clipped to the joint limit and converge, and NaN died
    # inside the collision module
    seed = straight_line_seed(np.zeros(arm.dof), 0.4 * np.ones(arm.dof))
    seed[2, 1] = bad
    with pytest.raises(ValueError, match="seed interior waypoints must be finite"):
        optimize(seed, arm, empty_scene)


def test_rejects_endpoints_outside_limits(arm, empty_scene):
    inside = straight_line_seed(np.zeros(arm.dof), 0.4 * np.ones(arm.dof))
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
        seed = resample_path(straight_line_seed(a, b))
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
        res = optimize(resample_path(straight_line_seed(a, b)), arm, pole_scene)
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
        res = optimize(resample_path(straight_line_seed(a, b)), arm, pole_scene)
        flag, _ = trajectory_in_collision(arm, pole_scene, res.trajectory)
        assert res.collision_free == (not flag)
        done += 1


def test_merit_gradient_matches_finite_differences(arm, shelf_scene):
    rng = np.random.default_rng(5)
    mu, h = 10.0, 1e-6
    from armplan.collision import pair_signed_distances

    checked = 0
    while checked < 3:
        traj = rng.uniform(arm.lower * 0.9, arm.upper * 0.9, size=(5, arm.dof))
        sd = pair_signed_distances(arm, shelf_scene, traj)
        # stay away from hinge kinks so the merit is smooth where probed
        if np.abs(sd - D_SAFE).min() < 1e-3:
            continue
        g = merit_gradient(traj, arm, shelf_scene, mu)

        def merit(t):
            return smoothness_cost(t) + mu * collision_penalty(t, arm, shelf_scene)

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


_SCREEN_SCENES = [*SCENE_NAMES, "triangle_box_hexagon", "unbounded", "empty"]


@pytest.mark.parametrize("name", _SCREEN_SCENES)
def test_screened_gradient_matches_dense_reference(arm, name, monkeypatch):
    """The gradient is bitwise the dense finite differences over every
    waypoint, on waypoints at both sides of the screen and of the hinge, and
    sends the perturbed rows of exactly the waypoints below the screen
    threshold: for the default arm and a five-link arm on an offset, turned
    base."""
    rows = []

    def counting(arm_, scene_, Q, far_cutoff=None):
        rows.append(len(Q))
        return pair_signed_distances(arm_, scene_, Q, far_cutoff=far_cutoff)

    monkeypatch.setattr(opt, "pair_signed_distances", counting)
    for extra, arm in enumerate((arm, five_link_offset_arm(arm))):
        rng = np.random.default_rng([_SCREEN_SCENES.index(name), 18] + [5] * extra)
        scene = _dense_case_scene(name, rng)
        traj = near_boundary_trajectory(arm, scene, rng)
        mu = 10.0
        dense = dense_penalty_gradient_interior(arm, scene, traj)
        want = _smoothness_gradient_interior(traj) + mu * dense
        near = _hinge_sums(arm, scene, traj[1:-1])[1] < screen_threshold(arm)
        rows.clear()
        assert np.array_equal(merit_gradient(traj, arm, scene, mu), want)
        assert rows == [len(near)] + [2 * arm.dof * int(near.sum())] * int(near.any())
        if scene.obstacles:
            assert near.any() and not near.all()
            assert (dense != 0.0).any()
            assert (dense[~near] == 0.0).all()


def test_gradient_sends_only_near_waypoints(arm, shelf_scene, monkeypatch):
    rng = np.random.default_rng(18)
    traj = near_boundary_trajectory(arm, shelf_scene, rng)
    interior = traj[1:-1]
    bounds = _hinge_sums(arm, shelf_scene, interior)[1]
    near = bounds < screen_threshold(arm)
    assert near.any() and not near.all()
    batches = []

    def recording(arm_, scene_, Q, far_cutoff=None):
        batches.append(np.array(Q))
        return pair_signed_distances(arm_, scene_, Q, far_cutoff=far_cutoff)

    monkeypatch.setattr(opt, "pair_signed_distances", recording)
    # given its bounds, an all-far trajectory makes no signed-distance call
    far = np.concatenate([traj[:1], interior[~near], traj[-1:]])
    g = opt._merit_gradient(arm, shelf_scene, far, 10.0, bounds[~near])
    assert batches == []
    assert np.array_equal(g, _smoothness_gradient_interior(far))
    # a mixed one sends the 2 * K perturbed rows of its near waypoints only
    opt._merit_gradient(arm, shelf_scene, traj, 10.0, bounds)
    eye = np.eye(arm.dof) * opt._FD_STEP
    kept = interior[near]
    plus = (kept[:, None, :] + eye).reshape(-1, arm.dof)
    minus = (kept[:, None, :] - eye).reshape(-1, arm.dof)
    perturbed = np.concatenate([plus, minus])
    assert len(batches) == 1 and np.array_equal(batches[0], perturbed)
    # merit_gradient first takes the bounds from a batch of the interior
    batches.clear()
    merit_gradient(traj, arm, shelf_scene, 10.0)
    assert len(batches) == 2 and np.array_equal(batches[0], interior) and np.array_equal(batches[1], perturbed)


def test_two_waypoint_seed_passthrough(arm, empty_scene):
    seed = np.vstack([np.zeros(arm.dof), 0.2 * np.ones(arm.dof)])
    res = optimize(seed, arm, empty_scene)
    assert np.array_equal(res.trajectory, seed)
    assert res.converged and res.collision_free


@pytest.mark.parametrize("cases", ["pole_scene", "shelf_scene", "shelf_roadmap"])
def test_matches_sequential_reference(request, arm, shelf_scene, cases, monkeypatch):
    """``optimize`` gives the sequential reference's results: on straight-line
    seeds in the pole and shelf scenes, with a case that escalates the
    penalty coefficient, and on roadmap-seeded shelf cases, the traffic of
    the benchmark's ``roadmap+opt``. The line searches certify some trial
    rows, and on the roadmap cases some batch certifies all its rows and
    makes no signed-distance call."""
    if cases == "shelf_roadmap":
        scene, seeds = shelf_scene, roadmap_cases(arm, shelf_scene, 4, rng_seed=3)
    else:
        scene = request.getfixturevalue(cases)
        seeds = straight_line_cases(arm, scene, 6, rng_seed=32)
    hinge_sums, line_search = opt._hinge_sums, opt._line_search
    sent = []                # rows of each signed-distance call of the running search
    certified = silent = 0   # trial rows certified; batches that made no call

    def counting(arm_, scene_, Q):
        sent.append(len(Q))
        return hinge_sums(arm_, scene_, Q)

    def search(arm_, scene_, X, *args):
        nonlocal certified, silent
        sent.clear()
        found = line_search(arm_, scene_, X, *args)
        steps = 2 if found is not None and found[4] < 2 else 6
        certified += steps * (len(X) - 2) - sum(sent)
        silent += (1 if steps == 2 else 2) - len(sent)
        return found

    rounds = []
    for seed in seeds:
        X, merit_log, iterations, final_cost, converged, free = sequential_optimize(seed, arm, scene)
        with monkeypatch.context() as m:
            m.setattr(opt, "_hinge_sums", counting)
            m.setattr(opt, "_line_search", search)
            res = optimize(seed, arm, scene)
        assert np.array_equal(res.trajectory, X)
        assert res.merit_log == merit_log
        assert res.iterations == iterations
        assert res.final_cost == final_cost
        assert res.converged == converged
        assert res.collision_free == free
        rounds.append(len(merit_log))
    assert certified > 0
    if cases == "shelf_roadmap":
        assert silent > 0
    else:
        assert max(rounds) > 1


@pytest.mark.parametrize("scene_fixture", ["pole_scene", "shelf_scene"])
def test_gradient_screens_with_its_iterates_bounds(request, arm, scene_fixture, monkeypatch):
    """Every gradient ``optimize`` takes screens with the clearance bounds of
    its own iterate, carried from the seed's penalty call or the line search
    that accepted it, and is ``merit_gradient``. Each bound is a lower bound
    on the waypoint's exact clearance, and bitwise the bound of a fresh
    batch on every waypoint that search sent to ``_hinge_sums``; the others
    were certified, and some of those carry a bound below the fresh one."""
    scene = request.getfixturevalue(scene_fixture)
    gradient, hinge_sums, line_search = opt._merit_gradient, opt._hinge_sums, opt._line_search
    calls = []
    searching = []           # True while a line search runs
    sent = set()             # rows the running line search sent to _hinge_sums
    computed = [None]        # rows of the iterate a batch computed; None for all of them

    def recording(arm_, scene_, X, mu, bounds):
        g = gradient(arm_, scene_, X, mu, bounds)
        fresh = np.ones(len(X) - 2, dtype=bool) if computed[0] is None else np.array(
            [q.tobytes() in computed[0] for q in X[1:-1]], dtype=bool)
        calls.append((X.copy(), bounds.copy(), mu, g, fresh))
        return g

    def hinge(arm_, scene_, Q):
        if searching:
            sent.update(q.tobytes() for q in Q)
        return hinge_sums(arm_, scene_, Q)

    def search(*args):
        searching.append(True)
        sent.clear()
        try:
            found = line_search(*args)
        finally:
            searching.clear()
        if found is not None:
            computed[0] = set(sent)
        return found

    # the first four cases, then more from the same stream until a run has
    # raised the penalty coefficient
    for count, seed in enumerate(itertools.islice(iter_straight_line_cases(arm, scene, 36), 40), 1):
        computed[0] = None
        with monkeypatch.context() as m:
            m.setattr(opt, "_merit_gradient", recording)
            m.setattr(opt, "_hinge_sums", hinge)
            m.setattr(opt, "_line_search", search)
            optimize(seed, arm, scene)
        if count >= 4 and len({mu for _, _, mu, _, _ in calls}) > 1:
            break
    assert len(calls) > 8 and len({mu for _, _, mu, _, _ in calls}) > 1
    near = carried = lowered = 0
    for X, bounds, mu, g, fresh in calls:
        assert np.array_equal(g, merit_gradient(X, arm, scene, mu))
        assert (bounds <= exact_clearances(arm, scene, X[1:-1]) + 1e-9).all()
        new = _hinge_sums(arm, scene, X[1:-1])[1]
        assert np.array_equal(bounds[fresh], new[fresh])
        near += int((bounds < screen_threshold(arm)).sum())
        carried += int((~fresh).sum())
        lowered += int((bounds < new).sum())
    assert 0 < near < sum(len(bounds) for _, bounds, _, _, _ in calls)
    assert carried > 0 and lowered > 0


def test_final_cost_is_the_last_logged_merit(arm, pole_scene, shelf_scene):
    """``final_cost`` is the merit the last round logged last, with that
    round's penalty coefficient: on three pole cases, and on shelf cases up
    to the first that ends all five rounds with a penalty."""
    runs = [optimize(seed, arm, pole_scene) for seed in straight_line_cases(arm, pole_scene, 3, rng_seed=36)]
    for seed in itertools.islice(iter_straight_line_cases(arm, shelf_scene, 36), 40):
        runs.append(optimize(seed, arm, shelf_scene))
        last = runs[-1]
        if (len(last.merit_log) == opt._MAX_PENALTY_ROUNDS
                and collision_penalty(last.trajectory[1:-1], arm, shelf_scene) > 0.0):
            break
    else:
        pytest.fail("no shelf case ended its five rounds with a penalty")
    for res in runs:
        assert res.final_cost == res.merit_log[-1][-1]


def is_subsequence(rows, of):
    """Whether the rows of ``rows`` are rows of ``of``, in its order."""
    remaining = iter([r.tobytes() for r in of])
    return all(q.tobytes() in remaining for q in rows)


@pytest.mark.parametrize("scene_fixture", ["pole_scene", "shelf_scene"])
def test_signed_distance_calls_per_iteration(request, arm, scene_fixture, monkeypatch):
    """One call for the seed's penalty, at most one gradient per round start
    and per accepted step, and at most two line-search calls per iteration:
    rows of the two longest trial steps (at most 2 * n rows for n interior
    waypoints), then rows of the other four (at most 4 * n) right after,
    and only after, a search whose two longest steps did not decrease the
    merit. Each batch sends its rows in order, or makes no call; every row
    it leaves out has a hinge sum of exactly 0.0. A gradient sends the
    2 * dof perturbed rows of the m interior waypoints its screen keeps,
    1 <= m <= n, or makes no call."""
    scene = request.getfixturevalue(scene_fixture)
    rows = []
    from_gradient = []       # indices into rows of the calls a gradient made
    from_search = []         # indices into rows of the calls a line search made
    searches = []            # per line search: the first step that decreases the merit, or None
    searching = []           # the calls of the line search running, if one is
    certified = [0]          # trial rows the line searches sent no call for
    line_search, merit_gradient_ = opt._line_search, opt._merit_gradient

    def counting(arm_, scene_, Q, far_cutoff=None):
        if searching:
            searching[0].append(np.array(Q))
        rows.append(len(Q))
        return pair_signed_distances(arm_, scene_, Q, far_cutoff=far_cutoff)

    def search(arm_, scene_, X, g, trust, mu, m_cur, bounds):
        start = len(rows)
        searching.append([])
        try:
            found = line_search(arm_, scene_, X, g, trust, mu, m_cur, bounds)
        finally:
            made = searching.pop()
        from_search.extend(range(start, len(rows)))
        cands = trial_steps(arm, X, g, trust)
        sd = pair_signed_distances(arm, scene, cands[:, 1:-1].reshape(-1, arm.dof), far_cutoff=D_SAFE)
        sums = np.maximum(0.0, D_SAFE - sd).sum(axis=(1, 2)).reshape(6, -1)
        merits = [smoothness_cost(c) + mu * float(s.sum()) for c, s in zip(cands, sums)]
        first = next((j for j, m_ in enumerate(merits) if m_ < m_cur - 1e-12), None)
        assert (found is None) == (first is None)
        if found is not None:
            assert found[4] == first and np.array_equal(found[0], cands[first])
        batches = [(0, 2)] if first is not None and first < 2 else [(0, 2), (2, 6)]
        assert len(made) <= len(batches)
        for lo, hi in batches:
            rows_ = cands[lo:hi, 1:-1].reshape(-1, arm.dof)
            call = made[0] if made and is_subsequence(made[0], rows_) else None
            if call is not None:
                made.pop(0)
            kept = {q.tobytes() for q in (call if call is not None else ())}
            left = np.array([q.tobytes() not in kept for q in rows_])
            assert (sums[lo:hi].reshape(-1)[left] == 0.0).all()
            certified[0] += int(left.sum())
        assert made == []    # every call belonged to a batch, in order
        searches.append(first)
        return found

    def gradient(*args):
        start = len(rows)
        g = merit_gradient_(*args)
        from_gradient.extend(range(start, len(rows)))
        assert len(rows) - start <= 1
        return g

    monkeypatch.setattr(opt, "pair_signed_distances", counting)
    monkeypatch.setattr(opt, "_line_search", search)
    monkeypatch.setattr(opt, "_merit_gradient", gradient)
    rejected_total = rest_total = 0
    # the first four cases, then more from the same stream until a search has
    # accepted no step and one has accepted one of the four shorter steps
    for count, seed in enumerate(itertools.islice(iter_straight_line_cases(arm, scene, 36), 40), 1):
        rows.clear()
        from_gradient.clear()
        from_search.clear()
        searches.clear()
        res = optimize(seed, arm, scene)
        n = len(seed) - 2
        gradient_rows = {2 * arm.dof * m for m in range(1, n + 1)}
        assert {rows[i] for i in from_gradient} <= gradient_rows
        others = [i for i in range(len(rows)) if i not in from_gradient]
        # the seed's penalty first, then only line searches
        assert others[0] == 0 and rows[0] == n and sorted(from_search) == others[1:]
        rounds = len(res.merit_log)
        accepted = sum(len(r) - 1 for r in res.merit_log)
        rejected = len(searches) - accepted      # searches that accepted no step
        rest = sum(first is None or first >= 2 for first in searches)
        gradients = len(from_gradient)
        # one search per iteration, but for one that stalls on a zero gradient
        assert res.iterations - rounds <= len(searches) <= res.iterations
        assert sum(first is not None for first in searches) == accepted
        assert gradients <= rounds + accepted
        assert len(rows) <= 3 * res.iterations + rounds + 1
        rejected_total += rejected
        rest_total += rest
        if count >= 4 and 0 < rejected_total < rest_total:
            break
    assert rejected_total > 0 and rest_total > rejected_total and certified[0] > 0


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    name=st.sampled_from(_DENSE_SCENES),
    five_links=st.booleans(),
    scale=st.sampled_from([0.003, 0.03, 0.3]),
)
def test_line_search_certificate_is_sound(arm, seed, name, five_links, scale):
    """A trial waypoint q + dq whose carried bound, the bound of q less the
    arm's motion bound sum_j R_j |dq_j|, exceeds ``D_SAFE`` + 1e-9 has a
    hinge sum of exactly 0.0, and every carried bound is at most the exact
    clearance (plus 1e-9): random waypoints and steps, on the default arm and
    a five-link arm on an offset base, in the dense reference scenes. The
    line search's longest step is ``dq`` itself, and its penalty is that of
    a fresh batch."""
    if five_links:
        arm = five_link_offset_arm(arm)
    rng = np.random.default_rng(seed)
    scene = _dense_case_scene(name, rng)
    X = rng.uniform(arm.lower, arm.upper, size=(34, arm.dof))
    g = -rng.normal(scale=scale, size=(32, arm.dof))    # the longest step: alpha = 1, so dq = -g
    bounds = _hinge_sums(arm, scene, X[1:-1])[1]
    cand, penalty, carried, _, halvings = opt._line_search(
        arm, scene, X, g, float(np.abs(g).max()), 1.0, np.inf, bounds)
    assert halvings == 0
    sums = _hinge_sums(arm, scene, cand[1:-1])[0]
    motion = np.abs(cand[1:-1] - X[1:-1]) @ arm.joint_reach
    certified = bounds - motion > D_SAFE + _CERTIFY_MARGIN
    assert (sums[certified] == 0.0).all()
    assert penalty == float(sums.sum())
    assert np.array_equal(carried[certified], (bounds - motion)[certified])
    assert (exact_clearances(arm, scene, cand[1:-1]) >= carried - 1e-9).all()
