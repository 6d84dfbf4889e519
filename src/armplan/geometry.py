"""Convex planar shapes and exact signed-distance queries.

Everything that touches collision in this package reduces to pairs of
convex polygons: arm links are rectangles, obstacles are convex shapes.
Signed distance is the separation distance for disjoint pairs and the
negative penetration depth (minimum translation to separate) for
overlapping pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Construction tolerances. Near-degenerate polygons are rejected up front so
# distance queries never have to deal with them.
CONVEXITY_TOL = 1e-9
MIN_VERTEX_SPACING = 1e-9


def normalize_angle(theta: float) -> float:
    """Map an angle to (-pi, pi]."""
    r = math.fmod(theta + math.pi, 2.0 * math.pi)
    if r <= 0.0:
        r += 2.0 * math.pi
    return r - math.pi


def _vector_length(d: np.ndarray) -> float:
    """Euclidean length of a 1-D float vector: ``np.linalg.norm``'s own
    formula, ``sqrt(d @ d)``, without its wrapper."""
    return math.sqrt(d @ d)


def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """Vectorized wrap to [-pi, pi); used for angle differences."""
    return np.mod(np.asarray(theta) + np.pi, 2.0 * np.pi) - np.pi


@dataclass(frozen=True)
class Pose2:
    """Planar rigid-body pose: translation plus heading in (-pi, pi]."""

    x: float
    y: float
    heading: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.heading)):
            raise ValueError("pose components must be finite")
        object.__setattr__(self, "heading", normalize_angle(float(self.heading)))
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))

class ConvexShape:
    """Strictly convex polygon with vertices in counter-clockwise order."""

    __slots__ = ("vertices",)

    def __init__(self, vertices) -> None:
        v = np.array(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ValueError("a convex shape needs at least 3 planar vertices")
        if not np.isfinite(v).all():
            raise ValueError("vertices must be finite")
        edges = np.roll(v, -1, axis=0) - v
        if (np.linalg.norm(edges, axis=1) <= MIN_VERTEX_SPACING).any():
            raise ValueError("duplicate consecutive vertices")
        nxt = np.roll(edges, -1, axis=0)
        cross = edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]
        if (cross < CONVEXITY_TOL).any():
            raise ValueError("vertices must be strictly convex in counter-clockwise order")
        v.setflags(write=False)
        self.vertices = v

    @classmethod
    def box(cls, xmin: float, ymin: float, xmax: float, ymax: float) -> "ConvexShape":
        return cls([(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)])

    def centroid(self) -> np.ndarray:
        v = self.vertices
        w = np.roll(v, -1, axis=0)
        a = v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]
        area = a.sum() / 2.0
        return ((v + w) * a[:, None]).sum(axis=0) / (6.0 * area)

    def edge_normals(self) -> np.ndarray:
        """Outward unit normals, one per edge."""
        e = np.roll(self.vertices, -1, axis=0) - self.vertices
        n = np.stack([e[:, 1], -e[:, 0]], axis=1)
        return n / np.linalg.norm(n, axis=1, keepdims=True)

    def __repr__(self) -> str:
        return f"ConvexShape({self.vertices.tolist()})"


def transform(shape: ConvexShape, pose: Pose2) -> ConvexShape:
    """Rotate a shape by the pose heading, then translate by its position."""
    c, s = math.cos(pose.heading), math.sin(pose.heading)
    rot = np.array([[c, -s], [s, c]])
    return ConvexShape(shape.vertices @ rot.T + np.array([pose.x, pose.y]))


def _point_segment_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from points p to segments (a, b); all arrays broadcast over (..., 2)."""
    ab = b - a
    denom = (ab * ab).sum(axis=-1)
    t = ((p - a) * ab).sum(axis=-1) / np.where(denom == 0.0, 1.0, denom)
    t = np.clip(t, 0.0, 1.0)
    proj = a + t[..., None] * ab
    return np.linalg.norm(p - proj, axis=-1)


def _polygon_gap(va: np.ndarray, vb: np.ndarray) -> float:
    """Exact minimum distance between two disjoint convex polygons.

    The closest pair between disjoint convex polygons is always realized by a
    vertex of one against an edge of the other, so checking both directions
    is exact.
    """
    b0 = vb
    b1 = np.roll(vb, -1, axis=0)
    d_ab = _point_segment_distance(va[:, None, :], b0[None, :, :], b1[None, :, :])
    a0 = va
    a1 = np.roll(va, -1, axis=0)
    d_ba = _point_segment_distance(vb[:, None, :], a0[None, :, :], a1[None, :, :])
    return float(min(d_ab.min(), d_ba.min()))


def signed_distance(a: ConvexShape, b: ConvexShape) -> float:
    """Signed distance between two convex shapes.

    Positive: minimum separating distance. Negative: penetration depth, the
    smallest translation magnitude that separates the shapes. Zero: touching.

    For convex polygons the penetration direction is always an edge normal of
    the Minkowski difference, i.e. an edge normal of ``b`` or a negated edge
    normal of ``a``, which makes the overlapping branch exact.
    """
    axes = np.vstack([b.edge_normals(), -a.edge_normals()])
    pa = a.vertices @ axes.T
    pb = b.vertices @ axes.T
    push = pb.max(axis=0) - pa.min(axis=0)
    if (push < 0.0).any():
        return _polygon_gap(a.vertices, b.vertices)
    pen = push.min()
    return -float(pen) if pen > 0.0 else 0.0
