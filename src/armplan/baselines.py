"""Single-tree RRT in joint space, the sampling-based comparison planner."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collision import Scene, config_in_collision, edge_in_collision
from .robot import ArmModel, within_limits


@dataclass(frozen=True)
class RRTParams:
    step: float = 0.2            # rad, maximum extension length
    goal_bias: float = 0.1
    max_iters: int = 50_000
    rng_seed: int = 0
    edge_spacing: float = 0.005  # rad between interpolated checks on an extension

    def __post_init__(self):
        if self.step <= 0.0 or not 0.0 <= self.goal_bias <= 1.0 or self.max_iters < 1:
            raise ValueError("invalid RRT parameters")


def _edge_free(arm, scene, q1, q2, params) -> bool:
    dist = float(np.linalg.norm(q2 - q1))
    n_interp = max(10, int(math.ceil(dist / params.edge_spacing)))
    return not edge_in_collision(arm, scene, q1, q2, n_interp)


def rrt_plan(
    scene: Scene,
    arm: ArmModel,
    start,
    goal_configs,
    params: RRTParams = RRTParams(),
) -> list[np.ndarray] | None:
    """Plan a collision-free joint-space path from start to any goal configuration.

    Standard goal-biased single-tree RRT. Extensions are validated with
    interpolation scaled to the segment length (at least 10 points). Returns
    the waypoint path on success, None after max_iters without reaching a goal.
    Raises ValueError when the start or a goal is outside the joint limits.
    """
    start = np.asarray(start, dtype=float)
    goals = [np.asarray(g, dtype=float) for g in goal_configs]
    if not goals:
        raise ValueError("at least one goal configuration is required")
    if not within_limits(arm, start):
        raise ValueError("start configuration is outside the joint limits")
    if not all(within_limits(arm, g) for g in goals):
        raise ValueError("goal configuration is outside the joint limits")
    if config_in_collision(arm, scene, start):
        raise ValueError("start configuration is in collision")
    for g in goals:
        if np.linalg.norm(g - start) < 1e-12:
            return [start.copy()]

    rng = np.random.default_rng(params.rng_seed)
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

    for _ in range(params.max_iters):
        if rng.random() < params.goal_bias:
            target = goals[int(rng.integers(len(goals)))]
        else:
            target = rng.uniform(arm.lower, arm.upper)
        diffs = nodes[:count] - target
        near = int(np.argmin((diffs * diffs).sum(axis=1)))
        q_near = nodes[near]
        delta = target - q_near
        dist = float(np.linalg.norm(delta))
        if dist < 1e-12:
            continue
        q_new = target if dist <= params.step else q_near + (params.step / dist) * delta
        if not _edge_free(arm, scene, q_near, q_new, params):
            continue
        if count == cap:
            cap *= 2
            nodes = np.vstack([nodes, np.empty_like(nodes)])
            parents = np.concatenate([parents, np.full(len(parents), -1, dtype=np.int64)])
        nodes[count] = q_new
        parents[count] = near
        count += 1
        for g in goals:
            gap = float(np.linalg.norm(g - q_new))
            if gap < 1e-12:
                return extract(count - 1)
            if gap <= params.step and _edge_free(arm, scene, q_new, g, params):
                path = extract(count - 1)
                path.append(g.copy())
                return path
    return None
