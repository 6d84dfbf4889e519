import math

import numpy as np
import pytest

from armplan.geometry import Pose2, wrap_angles
from armplan.robot import (
    IK_HEADING_TOL, IK_POSITION_TOL, _IK_DAMPING, _IK_MAX_ITERS, ArmModel, EEPose,
    chain_points, ee_jacobian, forward_kinematics, goal_seed, link_shapes, solve_ik,
    within_limits,
)


def straight_arm(k=4, length=1.0, base_heading=0.0):
    return ArmModel(
        base=Pose2(0.0, 0.0, base_heading),
        links=tuple((length, 0.05) for _ in range(k)),
        joint_limits=tuple((-math.pi + 0.1, math.pi - 0.1) for _ in range(k)),
    )


def complex_fk_oracle(arm, q):
    """Independent forward kinematics by complex-number accumulation."""
    z = complex(arm.base.x, arm.base.y)
    phase = arm.base.heading
    for (length, _), angle in zip(arm.links, q):
        phase += angle
        z += length * complex(math.cos(phase), math.sin(phase))
    return z, phase


def compacting_solve_ik(arm, target, restarts=10, rng_seed=0):
    """Reference IK: the damped-least-squares loop that compacts its arrays
    to the restarts still running after every drop, as ``solve_ik`` ran
    before its loop kept fixed shapes. Returns the same list of solutions."""
    dist_to_base = math.hypot(target.x - arm.base.x, target.y - arm.base.y)
    if dist_to_base > arm.reach + 1e-9:
        return []

    rng = np.random.default_rng(rng_seed)
    Q = rng.uniform(arm.lower, arm.upper, size=(restarts, arm.dof))
    goal_xy = np.array([target.x, target.y])

    active = np.arange(restarts)
    best_err = np.full(restarts, np.inf)
    stall_window = 25
    lengths = arm.lengths
    base_heading = arm.base.heading
    lam2 = _IK_DAMPING * _IK_DAMPING

    for it in range(_IK_MAX_ITERS):
        ang = base_heading + np.cumsum(Q[active], axis=1)
        lc = lengths * np.cos(ang)
        ls = lengths * np.sin(ang)
        ex = (target.x - arm.base.x) - lc.sum(axis=1)
        ey = (target.y - arm.base.y) - ls.sum(axis=1)
        if target.heading_matters:
            eh = wrap_angles(target.heading - ang[:, -1])
        pnorm = np.hypot(ex, ey)
        done = pnorm < IK_POSITION_TOL * 0.5
        if target.heading_matters:
            done &= np.abs(eh) < IK_HEADING_TOL * 0.5
        if done.any():
            keep = ~done
            active = active[keep]
            if len(active) == 0:
                break
            ex, ey, pnorm, lc, ls = ex[keep], ey[keep], pnorm[keep], lc[keep], ls[keep]
            if target.heading_matters:
                eh = eh[keep]
        if it and it % stall_window == 0:
            hopeful = (pnorm < 0.99 * best_err[active]) | (pnorm < 10 * IK_POSITION_TOL)
            best_err[active] = np.minimum(best_err[active], pnorm)
            if not hopeful.all():
                active = active[hopeful]
                if len(active) == 0:
                    break
                ex, ey, lc, ls = ex[hopeful], ey[hopeful], lc[hopeful], ls[hopeful]
                if target.heading_matters:
                    eh = eh[hopeful]
        else:
            best_err[active] = np.minimum(best_err[active], pnorm)
        jx = -np.cumsum(ls[:, ::-1], axis=1)[:, ::-1]
        jy = np.cumsum(lc[:, ::-1], axis=1)[:, ::-1]
        if target.heading_matters:
            J = np.stack([jx, jy, np.ones_like(jx)], axis=1)
            err = np.stack([ex, ey, eh], axis=1)
            A = J @ np.transpose(J, (0, 2, 1)) + lam2 * np.eye(3)[None]
            y = np.linalg.solve(A, err[:, :, None])
            dq = (np.transpose(J, (0, 2, 1)) @ y)[:, :, 0]
        else:
            a11 = (jx * jx).sum(axis=1) + lam2
            a12 = (jx * jy).sum(axis=1)
            a22 = (jy * jy).sum(axis=1) + lam2
            det = a11 * a22 - a12 * a12
            y1 = (a22 * ex - a12 * ey) / det
            y2 = (a11 * ey - a12 * ex) / det
            dq = jx * y1[:, None] + jy * y2[:, None]
        norms = np.sqrt((dq * dq).sum(axis=1))
        scale = np.minimum(1.0, 0.5 / np.where(norms < 1e-12, 1.0, norms))
        Q[active] = np.clip(Q[active] + dq * scale[:, None], arm.lower, arm.upper)

    origins, headings = chain_points(arm, Q)
    ok = np.linalg.norm(goal_xy[None, :] - origins[:, -1], axis=1) < IK_POSITION_TOL
    if target.heading_matters:
        ok &= np.abs(wrap_angles(target.heading - headings[:, -1])) < IK_HEADING_TOL
    solutions = []
    for i in np.flatnonzero(ok):
        q = Q[i]
        if all(np.abs(q - s).max() > 1e-6 for s in solutions):
            solutions.append(q.copy())
    return solutions


# ---------------------------------------------------------------------------
# model validation

def test_rejects_bad_dof():
    with pytest.raises(ValueError):
        ArmModel(Pose2(0, 0), ((1.0, 0.1), (1.0, 0.1)), ((-1, 1), (-1, 1)))


def test_rejects_bad_limits_and_dimensions():
    with pytest.raises(ValueError):
        ArmModel(Pose2(0, 0), ((1.0, 0.1),) * 3, ((1.0, -1.0),) * 3)
    with pytest.raises(ValueError):
        ArmModel(Pose2(0, 0), ((1.0, 0.1),) * 3, ((-1, 1),) * 2)
    with pytest.raises(ValueError):
        ArmModel(Pose2(0, 0), ((0.0, 0.1),) * 3, ((-1, 1),) * 3)


@pytest.mark.parametrize("links, limits", [
    (((math.nan, 0.1),) + ((1.0, 0.1),) * 2, ((-1, 1),) * 3),
    (((1.0, math.inf),) * 3, ((-1, 1),) * 3),
    (((1.0, 0.1),) * 3, ((-math.inf, math.inf),) * 3),
    (((1.0, 0.1),) * 3, ((-1, 1), (math.nan, 1), (-1, 1))),
    (((1.0, 0.1),) * 3, ((-1, 1), (-1, math.inf), (-1, 1))),
])
def test_rejects_non_finite_links_and_limits(links, limits):
    # NaN slipped past the l <= 0 and lo >= hi tests
    with pytest.raises(ValueError, match="must be finite"):
        ArmModel(Pose2(0, 0), links, limits)


# ---------------------------------------------------------------------------
# forward kinematics

def test_fk_straight_chain():
    arm = straight_arm(4)
    _, ee = forward_kinematics(arm, np.zeros(4))
    assert (ee.x, ee.y) == pytest.approx((4.0, 0.0), abs=1e-12)
    assert ee.heading == pytest.approx(0.0, abs=1e-12)


def test_fk_rigid_rotation():
    arm = straight_arm(4)
    _, ee = forward_kinematics(arm, np.array([math.pi / 2, 0, 0, 0]))
    assert (ee.x, ee.y) == pytest.approx((0.0, 4.0), abs=1e-12)
    assert ee.heading == pytest.approx(math.pi / 2)


def test_fk_matches_complex_oracle():
    rng = np.random.default_rng(0)
    for k in range(3, 9):
        arm = ArmModel(
            base=Pose2(0.2, -0.1, 0.3),
            links=tuple((rng.uniform(0.2, 1.0), 0.04) for _ in range(k)),
            joint_limits=tuple((-3.0, 3.0) for _ in range(k)),
        )
        for _ in range(30):
            q = rng.uniform(-3.0, 3.0, k)
            _, ee = forward_kinematics(arm, q)
            z, phase = complex_fk_oracle(arm, q)
            assert abs(ee.x - z.real) < 1e-9 and abs(ee.y - z.imag) < 1e-9
            assert abs(math.remainder(ee.heading - phase, 2 * math.pi)) < 1e-9


def test_chain_points_add_the_base_to_the_running_sum_of_link_steps():
    """Bitwise: each joint origin is the base plus the link steps summed link
    by link, and each heading the base heading plus the running joint sum.
    The IK loop and the collision batches read the same chain pass, so this
    pins its order of additions."""
    rng = np.random.default_rng(3)
    for k in (3, 5, 8):
        arm = ArmModel(
            base=Pose2(0.13, -0.07, 1.9),
            links=tuple((rng.uniform(0.2, 1.0), 0.04) for _ in range(k)),
            joint_limits=tuple((-3.0, 3.0) for _ in range(k)),
        )
        Q = rng.uniform(-3.0, 3.0, size=(50, k))
        origins, headings = chain_points(arm, Q)
        want_h = np.empty_like(Q)
        run = Q[:, 0]
        for j in range(k):
            if j:
                run = run + Q[:, j]
            want_h[:, j] = arm.base.heading + run
        assert np.array_equal(headings, want_h)
        steps = arm.lengths * np.cos(want_h), arm.lengths * np.sin(want_h)
        assert (origins[:, 0] == (arm.base.x, arm.base.y)).all()
        for axis, (b, step) in enumerate(zip((arm.base.x, arm.base.y), steps)):
            run = step[:, 0]
            for j in range(k):
                if j:
                    run = run + step[:, j]
                assert np.array_equal(origins[:, j + 1, axis], b + run), (k, j, axis)


def test_fk_dimension_mismatch():
    with pytest.raises(ValueError):
        forward_kinematics(straight_arm(4), np.zeros(3))


def test_fk_periodicity():
    arm = straight_arm(5)
    rng = np.random.default_rng(1)
    q = rng.uniform(-1, 1, 5)
    _, ee0 = forward_kinematics(arm, q)
    for j in range(5):
        q2 = q.copy()
        q2[j] += 2 * math.pi
        _, ee1 = forward_kinematics(arm, q2)
        assert (ee1.x, ee1.y) == pytest.approx((ee0.x, ee0.y), abs=1e-9)


# ---------------------------------------------------------------------------
# link shapes

def test_link_shapes_zero_config_layout():
    arm = straight_arm(4)
    shapes = link_shapes(arm, np.zeros(4))
    assert len(shapes) == arm.dof
    for i, sh in enumerate(shapes):
        xs = sh.vertices[:, 0]
        assert xs.min() == pytest.approx(float(i), abs=1e-12)
        assert xs.max() == pytest.approx(float(i + 1), abs=1e-12)


def test_link_shapes_centroids_match_fk():
    arm = straight_arm(4)
    rng = np.random.default_rng(2)
    for _ in range(20):
        q = rng.uniform(-2, 2, 4)
        shapes = link_shapes(arm, q)
        poses, _ = forward_kinematics(arm, q)
        for (length, _), sh, pose in zip(arm.links, shapes, poses):
            mid = np.array([
                pose.x + 0.5 * length * math.cos(pose.heading),
                pose.y + 0.5 * length * math.sin(pose.heading),
            ])
            assert np.linalg.norm(sh.centroid() - mid) < 1e-9


# ---------------------------------------------------------------------------
# jacobian

def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(3)
    h = 1e-6
    for k in range(3, 9):
        arm = ArmModel(
            base=Pose2(0.1, 0.2, -0.4),
            links=tuple((rng.uniform(0.3, 1.0), 0.04) for _ in range(k)),
            joint_limits=tuple((-3.0, 3.0) for _ in range(k)),
        )
        for _ in range(17 if k == 4 else 15):
            q = rng.uniform(-2.5, 2.5, k)
            jac = ee_jacobian(arm, q)
            for j in range(k):
                qp, qm = q.copy(), q.copy()
                qp[j] += h
                qm[j] -= h
                _, ep = forward_kinematics(arm, qp)
                _, em = forward_kinematics(arm, qm)
                fd = np.array([
                    (ep.x - em.x) / (2 * h),
                    (ep.y - em.y) / (2 * h),
                    math.remainder(ep.heading - em.heading, 2 * math.pi) / (2 * h),
                ])
                scale = max(1.0, np.abs(jac[:, j]).max())
                assert np.abs(jac[:, j] - fd).max() / scale < 1e-5


def test_jacobian_heading_row_is_ones():
    arm = straight_arm(6)
    q = np.random.default_rng(4).uniform(-2, 2, 6)
    assert np.allclose(ee_jacobian(arm, q)[2], 1.0)


def test_jacobian_lever_arms_at_zero():
    k = 5
    arm = straight_arm(k)
    jac = ee_jacobian(arm, np.zeros(k))
    for j in range(k):
        assert jac[0, j] == pytest.approx(0.0, abs=1e-12)
        assert jac[1, j] == pytest.approx(float(k - j), abs=1e-12)


# ---------------------------------------------------------------------------
# inverse kinematics

def test_ik_roundtrip_through_fk():
    arm = straight_arm(4, base_heading=0.3)
    rng = np.random.default_rng(5)
    for _ in range(15):
        q = rng.uniform(arm.lower, arm.upper)
        _, ee = forward_kinematics(arm, q)
        sols = solve_ik(arm, ee, restarts=10, rng_seed=goal_seed(ee))
        assert sols, "expected at least one IK solution for a reachable pose"
        for s in sols:
            assert within_limits(arm, s)
            _, got = forward_kinematics(arm, s)
            assert math.hypot(got.x - ee.x, got.y - ee.y) < 1e-4


def test_ik_unreachable_returns_empty():
    arm = straight_arm(4)
    assert solve_ik(arm, EEPose(10.0, 0.0), restarts=4) == []


def test_ik_fully_stretched_pose():
    arm = straight_arm(4)
    sols = solve_ik(arm, EEPose(4.0, 0.0), restarts=12, rng_seed=3)
    assert sols
    best = min(sols, key=lambda s: np.abs(s).max())
    assert np.abs(best).max() < 0.2


def test_ik_heading_constraint():
    arm = straight_arm(4, base_heading=0.0)
    rng = np.random.default_rng(6)
    q = rng.uniform(-1.0, 1.0, 4)
    _, ee = forward_kinematics(arm, q)
    target = EEPose(ee.x, ee.y, ee.heading, heading_matters=True)
    sols = solve_ik(arm, target, restarts=12, rng_seed=goal_seed(target))
    assert sols
    for s in sols:
        _, got = forward_kinematics(arm, s)
        assert abs(math.remainder(got.heading - ee.heading, 2 * math.pi)) < 1e-3


def test_ik_deterministic():
    arm = straight_arm(4)
    target = EEPose(1.8, 1.1)
    a = solve_ik(arm, target, restarts=8, rng_seed=99)
    b = solve_ik(arm, target, restarts=8, rng_seed=99)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def oracle_targets(arm, rng, count):
    """Reachable tip poses of random in-limit configurations, then the fully
    stretched pose (q = 0), a pose just past it, one at the base and one
    outside the reach. Each comes with its heading both free and fixed."""
    qs = list(rng.uniform(arm.lower, arm.upper, size=(count, arm.dof))) + [np.zeros(arm.dof)]
    poses = [forward_kinematics(arm, q)[1] for q in qs]
    stretched = poses[-1]
    out_x = arm.base.x + 1.5 * arm.reach * math.cos(arm.base.heading)
    poses += [
        EEPose(stretched.x + 1e-6 * math.cos(arm.base.heading),
               stretched.y + 1e-6 * math.sin(arm.base.heading), stretched.heading),
        EEPose(arm.base.x, arm.base.y, arm.base.heading + 1.0),
        EEPose(out_x, arm.base.y, 0.0),
    ]
    return [EEPose(p.x, p.y, p.heading, heading_matters=hm) for p in poses for hm in (False, True)]


@pytest.mark.parametrize("k", range(3, 9))
def test_ik_matches_compacting_oracle_bitwise(k):
    rng = np.random.default_rng(40 + k)
    arm = ArmModel(
        base=Pose2(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(-3.0, 3.0)),
        links=tuple((rng.uniform(0.2, 1.0), 0.04) for _ in range(k)),
        joint_limits=tuple(sorted(rng.uniform(-3.0, 3.0, 2)) for _ in range(k)),
    )
    counts = set()
    with np.errstate(all="raise"):
        for target in oracle_targets(arm, rng, 8):
            for restarts in (1, 4, 10):
                seed = goal_seed(target) + restarts
                want = compacting_solve_ik(arm, target, restarts, seed)
                got = solve_ik(arm, target, restarts=restarts, rng_seed=seed)
                assert [s.tobytes() for s in got] == [s.tobytes() for s in want]
                counts.add((restarts, len(got)))
    # empty, partial and full solution lists all occur
    assert (10, 0) in counts and any(0 < n < 10 for r, n in counts if r == 10)


def test_goal_seed_stable():
    t = EEPose(0.5, 0.25, 0.1)
    assert goal_seed(t) == goal_seed(EEPose(0.5, 0.25, 0.1))
    assert goal_seed(t) != goal_seed(EEPose(0.5, 0.25, 0.1, heading_matters=True))


@pytest.mark.parametrize("field", ["x", "y", "heading"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_goal_pose_rejects_non_finite(field, bad):
    # heading_matters is False: a heading that does not matter must be finite too
    with pytest.raises(ValueError, match="finite"):
        EEPose(**{"x": 0.5, "y": 0.25, "heading": 0.1, field: bad})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_chain_points_reject_non_finite_joint_angles(bad):
    arm = straight_arm()
    Q = np.zeros((3, arm.dof))
    Q[1, 2] = bad
    with pytest.raises(ValueError, match="joint angles must be finite"):
        chain_points(arm, Q)


@pytest.mark.parametrize("bad", [2.0, 2.5, True, "3"])
def test_solve_ik_rejects_non_integer_restarts(bad):
    with pytest.raises(ValueError, match="restarts must be an integer"):
        solve_ik(straight_arm(), EEPose(1.5, 1.0, 0.0), restarts=bad)


@pytest.mark.parametrize("bad", [True, 1.5, -1, "3"])
def test_solve_ik_rejects_bad_rng_seed(bad):
    # rng_seed=True used to return seed 1's solutions
    with pytest.raises(ValueError, match="rng_seed must be an integer >= 0"):
        solve_ik(straight_arm(), EEPose(1.5, 1.0, 0.0), rng_seed=bad)


def test_solve_ik_accepts_numpy_integer_restarts():
    arm, target = straight_arm(), EEPose(1.5, 1.0, 0.0)
    got = solve_ik(arm, target, restarts=np.int64(4))
    want = solve_ik(arm, target, restarts=4)
    assert got and [q.tobytes() for q in got] == [q.tobytes() for q in want]
