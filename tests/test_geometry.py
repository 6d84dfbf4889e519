import math

import numpy as np
import pytest

from armplan.geometry import ConvexShape, Pose2, normalize_angle, signed_distance, transform

from conftest import random_convex_polygon


def unit_square(cx=0.0, cy=0.0):
    return ConvexShape.box(cx - 0.5, cy - 0.5, cx + 0.5, cy + 0.5)


# ---------------------------------------------------------------------------
# construction

def test_rejects_too_few_vertices():
    with pytest.raises(ValueError):
        ConvexShape([(0, 0), (1, 0)])


def test_rejects_duplicate_consecutive_vertices():
    with pytest.raises(ValueError):
        ConvexShape([(0, 0), (0, 0), (1, 0), (0, 1)])


def test_rejects_clockwise_and_collinear():
    with pytest.raises(ValueError):
        ConvexShape([(0, 0), (0, 1), (1, 0)])  # clockwise
    with pytest.raises(ValueError):
        ConvexShape([(0, 0), (1, 0), (2, 0), (1, 1)])  # collinear run


def test_rejects_nonconvex():
    with pytest.raises(ValueError):
        ConvexShape([(0, 0), (2, 0), (1, 0.1), (2, 2), (0, 2)])


def test_rejects_nonfinite():
    with pytest.raises(ValueError):
        ConvexShape([(0, 0), (1, 0), (np.nan, 1)])


def test_pose_normalizes_heading():
    assert Pose2(0, 0, 3 * math.pi).heading == pytest.approx(math.pi)
    assert -math.pi < Pose2(0, 0, -math.pi).heading <= math.pi


# ---------------------------------------------------------------------------
# transform

def test_transform_pure_translation():
    sq = unit_square()
    moved = transform(sq, Pose2(1.0, 0.0, 0.0))
    assert np.allclose(moved.vertices, sq.vertices + [1.0, 0.0])


def test_transform_identity():
    sq = unit_square(0.3, -0.2)
    same = transform(sq, Pose2(0.0, 0.0, 0.0))
    assert np.allclose(same.vertices, sq.vertices)


def test_transform_quarter_turn():
    sq = ConvexShape([(0, 0), (1, 0), (1, 1), (0, 1)])
    rot = transform(sq, Pose2(0.0, 0.0, math.pi / 2))
    # vertex (1, 0) maps to (0, 1)
    assert any(np.allclose(v, [0.0, 1.0], atol=1e-12) for v in rot.vertices)


def test_transform_preserves_convexity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        poly = random_convex_polygon(rng)
        pose = Pose2(*rng.uniform(-2, 2, 2), rng.uniform(-4, 4))
        transform(poly, pose)  # would raise if convexity broke


# ---------------------------------------------------------------------------
# signed distance: pinned cases

def test_separated_squares_distance():
    assert signed_distance(unit_square(0, 0), unit_square(2, 0)) == pytest.approx(1.0, abs=1e-12)


def test_overlapping_squares_penetration():
    assert signed_distance(unit_square(0, 0), unit_square(0.5, 0)) == pytest.approx(-0.5, abs=1e-12)


def test_touching_squares_zero():
    assert signed_distance(unit_square(0, 0), unit_square(1.0, 0)) == 0.0


# ---------------------------------------------------------------------------
# signed distance: dense-sampling oracle

def _boundary_points(poly: ConvexShape, n: int) -> np.ndarray:
    """n points spread along the polygon boundary, proportional to edge length."""
    v = poly.vertices
    nxt = np.roll(v, -1, axis=0)
    lengths = np.linalg.norm(nxt - v, axis=1)
    counts = np.maximum(1, np.round(n * lengths / lengths.sum()).astype(int))
    pts = []
    for a, b, c in zip(v, nxt, counts):
        t = np.arange(c) / c
        pts.append(a + t[:, None] * (b - a))
    return np.vstack(pts)


def _point_to_polygon_distance(pts: np.ndarray, poly: ConvexShape) -> np.ndarray:
    """Exact distance from each point to the polygon's boundary, computed
    per coordinate in (N, V) arrays, the square root taken after the minimum."""
    ax, ay = poly.vertices.T
    bx, by = np.roll(poly.vertices, -1, axis=0).T
    abx, aby = bx - ax, by - ay
    dx = pts[:, 0, None] - ax                      # (N, V)
    dy = pts[:, 1, None] - ay
    t = np.clip((dx * abx + dy * aby) / (abx * abx + aby * aby), 0.0, 1.0)
    ex, ey = dx - t * abx, dy - t * aby
    return np.sqrt((ex * ex + ey * ey).min(axis=1))


def oracle_signed_distance(p1: ConvexShape, p2: ConvexShape, n_samples: int = 20000) -> float:
    """Brute-force oracle.

    Disjoint: minimum over densely sampled boundary points of one polygon of
    the exact distance to the other. Penetrating: minimum over densely
    sampled directions of the translation extent needed to separate the
    projections (the directional overlap extent).
    """
    # overlap decision by sampled directions: separated iff some direction
    # shows a projection gap
    theta = np.arange(n_samples) * (2.0 * np.pi / n_samples)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    pa = p1.vertices @ dirs.T
    pb = p2.vertices @ dirs.T
    push = pb.max(axis=0) - pa.min(axis=0)
    if (push < 0.0).any():
        d12 = _point_to_polygon_distance(_boundary_points(p1, n_samples), p2).min()
        d21 = _point_to_polygon_distance(_boundary_points(p2, n_samples), p1).min()
        return float(min(d12, d21))
    return -float(push.min())


def test_signed_distance_matches_dense_oracle():
    rng = np.random.default_rng(42)
    n_checked = 0
    for _ in range(60):
        a = random_convex_polygon(rng, center=rng.uniform(-1.5, 1.5, 2))
        b = random_convex_polygon(rng, center=rng.uniform(-1.5, 1.5, 2))
        got = signed_distance(a, b)
        want = oracle_signed_distance(a, b)
        assert got == pytest.approx(want, abs=1e-3), (a, b)
        n_checked += 1
    assert n_checked == 60


# ---------------------------------------------------------------------------
# invariants

def test_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = random_convex_polygon(rng, center=rng.uniform(-1.5, 1.5, 2))
        b = random_convex_polygon(rng, center=rng.uniform(-1.5, 1.5, 2))
        assert abs(signed_distance(a, b) - signed_distance(b, a)) <= 1e-12


def test_translation_invariance():
    rng = np.random.default_rng(8)
    for _ in range(100):
        a = random_convex_polygon(rng, center=rng.uniform(-1.5, 1.5, 2))
        b = random_convex_polygon(rng, center=rng.uniform(-1.5, 1.5, 2))
        shift = rng.uniform(-20, 20, 2)
        d0 = signed_distance(a, b)
        d1 = signed_distance(
            ConvexShape(a.vertices + shift), ConvexShape(b.vertices + shift)
        )
        assert abs(d0 - d1) < 1e-9


def _sat_intersects(a: ConvexShape, b: ConvexShape) -> bool:
    """Independent separating-axis test over both polygons' edge normals."""
    for poly1, poly2 in ((a, b), (b, a)):
        v = poly1.vertices
        for i in range(len(v)):
            edge = v[(i + 1) % len(v)] - v[i]
            axis = np.array([edge[1], -edge[0]])
            pa = poly1.vertices @ axis
            pb = poly2.vertices @ axis
            if pa.max() < pb.min() or pb.max() < pa.min():
                return False
    return True


def test_sign_agreement_with_sat():
    rng = np.random.default_rng(9)
    n_neg = 0
    for _ in range(1000):
        a = random_convex_polygon(rng, center=rng.uniform(-1.2, 1.2, 2))
        b = random_convex_polygon(rng, center=rng.uniform(-1.2, 1.2, 2))
        sd = signed_distance(a, b)
        if sd != 0.0:  # touching is the SAT boundary case, skip exact zeros
            assert (sd < 0.0) == _sat_intersects(a, b)
            n_neg += sd < 0.0
    assert 0 < n_neg < 1000  # both branches exercised


def test_shrinking_never_decreases_distance():
    rng = np.random.default_rng(10)
    for _ in range(100):
        a = random_convex_polygon(rng, center=rng.uniform(-1.2, 1.2, 2))
        b = random_convex_polygon(rng, center=rng.uniform(-1.2, 1.2, 2))
        d0 = signed_distance(a, b)
        s = rng.uniform(0.1, 0.95)
        c = a.centroid()
        shrunk = ConvexShape(c + s * (a.vertices - c))
        assert signed_distance(shrunk, b) >= d0 - 1e-12


def test_normalize_angle_range():
    for theta in np.linspace(-20, 20, 401):
        r = normalize_angle(float(theta))
        assert -math.pi < r <= math.pi
        assert abs(math.remainder(r - theta, 2 * math.pi)) < 1e-9
