import numpy as np
import pytest

from armplan.seedprep import DEFAULT_WAYPOINTS, path_length, resample_path, straight_line_seed


def test_straight_line_same_endpoints():
    q = np.array([0.1, 0.2, 0.3])
    traj = straight_line_seed(q, q)
    assert traj.shape == (DEFAULT_WAYPOINTS, 3)
    assert np.allclose(traj, q)


def test_straight_line_definitional():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=4), rng.normal(size=4)
    traj = straight_line_seed(a, b)
    assert traj.shape == (DEFAULT_WAYPOINTS, 4)
    for i in range(DEFAULT_WAYPOINTS):
        assert np.abs(traj[i] - (a + (i / (DEFAULT_WAYPOINTS - 1)) * (b - a))).max() < 1e-12
    assert np.array_equal(traj[0], a) and np.array_equal(traj[-1], b)


def test_resample_forced_midpoint():
    # a segment of exactly twice the bound gets exactly one midpoint
    a = np.zeros(4)
    b = np.array([0.32, 0.0, 0.0, 0.0])
    out = resample_path(np.vstack([a, b]))
    assert out.shape == (3, 4)
    assert np.allclose(out[1], (a + b) / 2)


def test_resample_noop_when_fine():
    rng = np.random.default_rng(1)
    p = np.cumsum(rng.uniform(-0.05, 0.05, size=(6, 4)), axis=0)
    out = resample_path(p)
    assert np.array_equal(out, p)


def test_resample_spacing_and_length():
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = np.cumsum(rng.uniform(-0.5, 0.5, size=(5, 4)), axis=0)
        out = resample_path(p)
        gaps = np.linalg.norm(np.diff(out, axis=0), axis=1)
        assert gaps.max() <= 0.16 + 1e-12
        assert abs(path_length(out) - path_length(p)) < 1e-9


def test_resample_idempotent():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = np.cumsum(rng.uniform(-0.5, 0.5, size=(4, 3)), axis=0)
        once = resample_path(p)
        twice = resample_path(once)
        assert np.array_equal(once, twice)
    # exact boundary case
    p = np.array([[0.0, 0.0], [0.32, 0.0]])
    assert np.array_equal(resample_path(resample_path(p)), resample_path(p))


def test_resample_outputs_are_convex_combinations():
    rng = np.random.default_rng(4)
    for _ in range(10):
        p = np.cumsum(rng.uniform(-0.6, 0.6, size=(4, 3)), axis=0)
        out = resample_path(p)
        for pt in out:
            best = np.inf
            for a, b in zip(p[:-1], p[1:]):
                seg = b - a
                denom = float(seg @ seg) or 1.0
                t = np.clip(float((pt - a) @ seg) / denom, 0.0, 1.0)
                best = min(best, float(np.linalg.norm(pt - (a + t * seg))))
            assert best < 1e-9


def test_resample_preserves_original_waypoints():
    rng = np.random.default_rng(5)
    p = np.cumsum(rng.uniform(-0.5, 0.5, size=(5, 4)), axis=0)
    out = resample_path(p)
    oi = 0
    for wp in p:
        while oi < len(out) and not np.array_equal(out[oi], wp):
            oi += 1
        assert oi < len(out), "original waypoint missing from resampled path"


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_resample_rejects_non_finite_waypoint(bad):
    # +-inf raised OverflowError and NaN a bare integer-conversion ValueError
    p = np.zeros((3, 4))
    p[1, 2] = bad
    with pytest.raises(ValueError, match="path waypoints must be finite joint angles"):
        resample_path(p)
