"""Seed-trajectory construction and resampling ahead of optimization."""

from __future__ import annotations

import math

import numpy as np

from .robot import _check_int

DEFAULT_WAYPOINTS = 30
DEFAULT_MAX_SPACING = 0.16  # rad, upper bound on adjacent waypoint distance


def path_length(path) -> float:
    """Sum of joint-space Euclidean segment norms, radians."""
    p = np.asarray(path, dtype=float)
    return float(np.linalg.norm(np.diff(p, axis=0), axis=1).sum())


def straight_line_seed(start, goal, T: int = DEFAULT_WAYPOINTS) -> np.ndarray:
    """T waypoints linearly interpolated in joint space, endpoints exact.
    Raises ValueError when T is not an integer >= 2."""
    T = _check_int("T", T, 2)
    start = np.asarray(start, dtype=float)
    goal = np.asarray(goal, dtype=float)
    t = np.linspace(0.0, 1.0, T)
    traj = start[None, :] + t[:, None] * (goal - start)[None, :]
    traj[0] = start
    traj[-1] = goal
    return traj


def resample_path(path) -> np.ndarray:
    """Subdivide segments so adjacent waypoints are at most
    ``DEFAULT_MAX_SPACING`` apart.

    Original waypoints are kept in order; inserted points lie exactly on the
    original segments, so the total length is unchanged. Idempotent.
    """
    p = np.asarray(path, dtype=float)
    if p.ndim != 2 or p.shape[0] < 2:
        raise ValueError("path needs at least 2 waypoints")
    out = [p[0]]
    for a, b in zip(p[:-1], p[1:]):
        seg = float(np.linalg.norm(b - a))
        # the 1e-9 slack keeps segments produced by a previous pass from
        # being split again by float noise
        n_sub = max(1, math.ceil(seg / DEFAULT_MAX_SPACING - 1e-9))
        for i in range(1, n_sub):
            out.append(a + (i / n_sub) * (b - a))
        out.append(b)
    return np.array(out)
