"""Sequential-convex trajectory optimizer.

Smooths and shortens a fixed-length waypoint trajectory under a hinge
collision penalty: an exact-penalty outer loop escalates the penalty
coefficient while a box trust-region inner loop takes steps along the
gradient of the linearized merit function. Endpoints stay fixed, joint
limits hold at every accepted iterate, and accepted steps never increase
the merit. Whether the result is actually collision-free is decided by the
independent trajectory checker, never by inspecting cost values.

No signed distance is computed twice: the line search evaluates all of its
trial points in one batch, the gradient is kept across rejected steps (they
leave the iterate and the penalty coefficient unchanged), and the penalty of
the current iterate is carried from the batch that accepted it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collision import Scene, _check_free, pair_signed_distances, trajectory_in_collision
from .robot import ArmModel

_FD_STEP = 1e-6
D_SAFE = 0.05               # clearance margin for the hinge penalty, meters
_MU0 = 10.0                 # initial penalty coefficient
_MU_GROWTH = 10.0
_MAX_PENALTY_ROUNDS = 5
_TRUST_REGION_INIT = 0.1    # rad, box radius on waypoint updates
_TRUST_SHRINK = 0.5
_TRUST_EXPAND = 1.5
_TRUST_MIN = 1e-4
_CONVERGENCE_TOL = 1e-4     # stop when merit decrease falls below this
_MAX_INNER_ITERS = 50


@dataclass
class OptResult:
    trajectory: np.ndarray
    converged: bool
    collision_free: bool      # verdict of the independent trajectory checker
    final_cost: float
    iterations: int
    merit_log: tuple[tuple[float, ...], ...] = ()


def smoothness_cost(traj) -> float:
    """Sum of squared adjacent waypoint displacements."""
    t = np.asarray(traj, dtype=float)
    d = np.diff(t, axis=0)
    return float((d * d).sum())


def _hinge_sums(arm: ArmModel, scene: Scene, Q: np.ndarray, d_safe: float) -> np.ndarray:
    """Per-configuration sum of hinge penalties over all (link, obstacle) pairs."""
    sd = pair_signed_distances(arm, scene, Q, far_cutoff=d_safe)
    return np.maximum(0.0, d_safe - sd).sum(axis=(1, 2))


def collision_penalty(traj, arm: ArmModel, scene: Scene, d_safe: float) -> float:
    """Sum over waypoints and (link, obstacle) pairs of max(0, d_safe - sd)."""
    t = np.atleast_2d(np.asarray(traj, dtype=float))
    return float(_hinge_sums(arm, scene, t, d_safe).sum())


def _smoothness_gradient_interior(traj: np.ndarray) -> np.ndarray:
    return 2.0 * (2.0 * traj[1:-1] - traj[:-2] - traj[2:])


def _penalty_gradient_interior(arm, scene, traj, d_safe: float) -> np.ndarray:
    """Central finite differences of the per-waypoint hinge sums, batched."""
    interior = traj[1:-1]
    ti, k = interior.shape
    eye = np.eye(k) * _FD_STEP
    plus = interior[:, None, :] + eye[None, :, :]
    minus = interior[:, None, :] - eye[None, :, :]
    batch = np.concatenate([plus.reshape(-1, k), minus.reshape(-1, k)], axis=0)
    sums = _hinge_sums(arm, scene, batch, d_safe)
    p = sums[: ti * k].reshape(ti, k)
    m = sums[ti * k:].reshape(ti, k)
    return (p - m) / (2.0 * _FD_STEP)


def merit_gradient(traj, arm: ArmModel, scene: Scene, mu: float, d_safe: float) -> np.ndarray:
    """Gradient of smoothness + mu * collision penalty w.r.t. the interior
    waypoints; the quantity the inner loop steps along."""
    t = np.asarray(traj, dtype=float)
    return _smoothness_gradient_interior(t) + mu * _penalty_gradient_interior(arm, scene, t, d_safe)


def optimize(seed, arm: ArmModel, scene: Scene) -> OptResult:
    """Optimize a seed trajectory with fixed endpoints and waypoint count.

    Outer loop: penalty escalation until the hinge penalty is zero or the
    round budget runs out. Inner loop: steepest descent on the merit with a
    backtracking line search inside a shrinking/expanding trust-region box
    intersected with the joint limits. The line search's six trial points
    (the step length halved five times) are evaluated in one signed-distance
    batch, and the first that strictly decreases the merit is accepted, so
    accepted merits are non-increasing within a round. A rejected step only
    shrinks the trust region, so the gradient is computed once per round
    start and once per accepted step. The optimizer always returns its best
    iterate; converged is True only when progress stalled with zero penalty.
    Raises ValueError when an endpoint is outside the joint limits,
    non-finite or in collision.
    """
    X = np.array(seed, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2 or X.shape[1] != arm.dof:
        raise ValueError(f"seed must be a (T, {arm.dof}) waypoint matrix with T >= 2")
    _check_free(arm, scene, [("seed start configuration", X[0]), ("seed goal configuration", X[-1])])
    X[1:-1] = np.clip(X[1:-1], arm.lower, arm.upper)

    mu = _MU0
    iterations = 0
    merit_log: list[tuple[float, ...]] = []
    converged = False
    # the interior penalty of X: endpoint hinge terms are constants of the
    # optimization; keeping them out lets the penalty reach zero even when a
    # fixed endpoint sits inside the safety margin
    penalty = float(_hinge_sums(arm, scene, X[1:-1], D_SAFE).sum())

    if X.shape[0] > 2:
        for _ in range(_MAX_PENALTY_ROUNDS):
            trust = _TRUST_REGION_INIT
            m_cur = smoothness_cost(X) + mu * penalty
            round_merits = [m_cur]
            stalled = False
            g = None
            for _ in range(_MAX_INNER_ITERS):
                iterations += 1
                if g is None:
                    g = merit_gradient(X, arm, scene, mu, D_SAFE)
                    gmax = float(np.abs(g).max())
                if gmax < 1e-12:
                    stalled = True
                    break
                # the line search's trial points, the step length halved five
                # times, in one batch
                alpha = np.ldexp(trust / gmax, -np.arange(6))
                cands = np.repeat(X[None], len(alpha), axis=0)
                step = np.clip(-alpha[:, None, None] * g, -trust, trust)
                cands[:, 1:-1] = np.clip(X[1:-1] + step, arm.lower, arm.upper)
                sums = _hinge_sums(arm, scene, cands[:, 1:-1].reshape(-1, arm.dof), D_SAFE)
                sums = sums.reshape(len(alpha), -1)
                accepted = None
                for j in range(len(alpha)):
                    cand_penalty = float(sums[j].sum())
                    m_cand = smoothness_cost(cands[j]) + mu * cand_penalty
                    if m_cand < m_cur - 1e-12:
                        accepted = (cands[j].copy(), cand_penalty, m_cand)
                        break
                if accepted is None:
                    trust *= _TRUST_SHRINK
                    if trust < _TRUST_MIN:
                        stalled = True
                        break
                    continue  # X and mu are unchanged, and so is g
                X, penalty, m_new = accepted
                g = None
                decrease = m_cur - m_new
                m_cur = m_new
                round_merits.append(m_cur)
                trust = min(trust * _TRUST_EXPAND, 10.0 * _TRUST_REGION_INIT)
                if decrease < _CONVERGENCE_TOL:
                    stalled = True
                    break
            merit_log.append(tuple(round_merits))
            if penalty <= 0.0:
                converged = stalled
                break
            mu *= _MU_GROWTH
    else:
        converged = True  # nothing to optimize with only fixed endpoints

    in_collision, _ = trajectory_in_collision(arm, scene, X)
    return OptResult(
        trajectory=X,
        converged=converged,
        collision_free=not in_collision,
        final_cost=smoothness_cost(X) + mu * penalty,
        iterations=iterations,
        merit_log=tuple(merit_log),
    )
