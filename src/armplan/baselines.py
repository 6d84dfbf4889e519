"""Single-tree RRT in joint space, the sampling-based comparison planner."""

from __future__ import annotations

import math

import numpy as np

from .collision import Scene, _check_free, edge_in_collision
from .geometry import _vector_length
from .robot import ArmModel, _check_int


# Iteration budget of every benchmark RRT: the suite feasibility check and
# the rrt and rrt+opt pipelines.
RRT_MAX_ITERS = 20_000
_STEP = 0.2            # rad, maximum extension length
_GOAL_BIAS = 0.1
_EDGE_SPACING = 0.005  # rad between interpolated checks on an extension


def rrt_seed(base_seed: int, index: int) -> int:
    """RNG seed of the RRT run for the index-th case (or attempt) of a
    benchmark or suite seeded with ``base_seed``."""
    return (base_seed * 1_000_003 + index) & 0x7FFFFFFF


def _edge_free(arm, scene, q1, q2) -> bool:
    dist = _vector_length(q2 - q1)
    n_interp = max(10, int(math.ceil(dist / _EDGE_SPACING)))
    return not edge_in_collision(arm, scene, q1, q2, n_interp)


def rrt_plan(
    scene: Scene,
    arm: ArmModel,
    start,
    goal_configs,
    rng_seed: int = 0,
    max_iters: int = RRT_MAX_ITERS,
) -> list[np.ndarray] | None:
    """Plan a collision-free joint-space path from start to any goal configuration.

    Standard goal-biased single-tree RRT. Extensions are validated with
    interpolation scaled to the segment length (at least 10 points). Returns
    the waypoint path on success, None after max_iters without reaching a goal.
    Raises ValueError when max_iters is not an integer >= 1 or rng_seed not
    an integer >= 0, or the start or a goal is outside the joint limits or
    in collision.
    """
    max_iters = _check_int("max_iters", max_iters, 1)
    rng_seed = _check_int("rng_seed", rng_seed, 0)
    start = np.asarray(start, dtype=float)
    goals = [np.asarray(g, dtype=float) for g in goal_configs]
    if not goals:
        raise ValueError("at least one goal configuration is required")
    _check_free(arm, scene, [("start configuration", start), *(("goal configuration", g) for g in goals)])
    for g in goals:
        if _vector_length(g - start) < 1e-12:
            return [start.copy()]

    rng = np.random.default_rng(rng_seed)
    cap = 4096
    nodes = np.empty((cap, arm.dof))
    parents = np.full(cap, -1, dtype=np.int64)
    nodes[0] = start
    count = 1

    def extract(idx: int) -> list[np.ndarray]:
        path = []
        while idx >= 0:
            path.append(nodes[idx].copy())
            idx = int(parents[idx])
        path.reverse()
        return path

    for _ in range(max_iters):
        if rng.random() < _GOAL_BIAS:
            target = goals[int(rng.integers(len(goals)))]
        else:
            target = rng.uniform(arm.lower, arm.upper)
        diffs = nodes[:count] - target
        near = int(np.argmin((diffs * diffs).sum(axis=1)))
        q_near = nodes[near]
        delta = target - q_near
        dist = _vector_length(delta)
        if dist < 1e-12:
            continue
        q_new = target if dist <= _STEP else q_near + (_STEP / dist) * delta
        if not _edge_free(arm, scene, q_near, q_new):
            continue
        if count == cap:
            cap *= 2
            nodes = np.vstack([nodes, np.empty_like(nodes)])
            parents = np.concatenate([parents, np.full(len(parents), -1, dtype=np.int64)])
        nodes[count] = q_new
        parents[count] = near
        count += 1
        for g in goals:
            gap = _vector_length(g - q_new)
            if gap < 1e-12:
                return extract(count - 1)
            if gap <= _STEP and _edge_free(arm, scene, q_new, g):
                path = extract(count - 1)
                path.append(g.copy())
                return path
    return None
