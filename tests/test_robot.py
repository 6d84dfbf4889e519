import math

import numpy as np
import pytest

from armplan.geometry import Pose2
from armplan.robot import (
    ArmModel, EEPose, ee_jacobian, forward_kinematics, goal_seed, link_shapes,
    solve_ik, within_limits,
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
