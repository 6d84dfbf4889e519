"""Sequential-convex trajectory optimizer.

Smooths and shortens a fixed-length waypoint trajectory under a hinge
collision penalty: an exact-penalty outer loop escalates the penalty
coefficient while a box trust-region inner loop takes steps along the
gradient of the linearized merit function. Endpoints stay fixed, joint
limits hold at every accepted iterate, and accepted steps never increase
the merit. Whether the result is actually collision-free is decided by the
independent trajectory checker, never by inspecting cost values.

``optimize`` runs the penalty rounds, the trust-region update and the
stopping rule; ``_merit_gradient`` gives the gradient and ``_line_search``
the step along it. After an accepted step the trust radius grows from the
box that step used, not from the one it was cut from, as in TrajOpt
(Schulman et al., IJRR 2014), so the next search starts near a step that
worked. The gradient is kept across rejected steps (they leave the iterate
and the penalty coefficient unchanged), and the iterate's penalty and
clearance bounds come from the line search that accepted it.

A clearance bound is a lower bound on a waypoint's clearance, the smallest
signed distance over its (link, obstacle) pairs, up to rounding far below
``collision._CERTIFY_MARGIN``: the smallest distance a signed-distance
batch reported for the waypoint, or, for a trial waypoint the line search
certifies with the arm's motion bound (Schwarzer, Saha & Latombe, T-RO
2005), its iterate's bound less the motion. Both the gradient screen and
the next search's certificate rest only on that.

The penalty gradient is central finite differences, computed only for the
waypoints the hinge can reach (``_merit_gradient``), and bitwise that of
the finite differences over every waypoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collision import _CERTIFY_MARGIN, Scene, _check_free, pair_signed_distances, trajectory_in_collision
from .robot import ArmModel, _check_kind

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


def _hinge_sums(arm: ArmModel, scene: Scene, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-configuration sum of hinge penalties over all (link, obstacle) pairs, and
    clearance lower bound: the smallest signed distance reported (inf without pairs)."""
    sd = pair_signed_distances(arm, scene, Q, far_cutoff=D_SAFE)
    return np.maximum(0.0, D_SAFE - sd).sum(axis=(1, 2)), sd.min(axis=(1, 2), initial=np.inf)


def collision_penalty(traj, arm: ArmModel, scene: Scene) -> float:
    """Sum over waypoints and (link, obstacle) pairs of max(0, D_SAFE - sd)."""
    _check_kind("arm", arm, ArmModel)
    _check_kind("scene", scene, Scene)
    t = np.atleast_2d(np.asarray(traj, dtype=float))
    return float(_hinge_sums(arm, scene, t)[0].sum())


def _smoothness_gradient_interior(traj: np.ndarray) -> np.ndarray:
    return 2.0 * (2.0 * traj[1:-1] - traj[:-2] - traj[2:])


def _merit_gradient(arm, scene, traj, mu, bounds) -> np.ndarray:
    """Gradient of smoothness + mu * collision penalty w.r.t. the interior
    waypoints of ``traj``, whose clearance lower bounds are ``bounds``.

    The penalty part is central finite differences of the per-waypoint hinge
    sums. Turning one joint by ``_FD_STEP`` moves no arm point farther than
    ``motion = arm.joint_reach[0] * _FD_STEP`` (``ArmModel.joint_reach``,
    the motion bound of the certified segment check). A waypoint goes into
    the one signed-distance batch, with its 2 * K perturbed rows, only when
    its bound (never above any of its pairs' distances) is below
    ``D_SAFE + 2 * motion``. So every pair of another waypoint's rows is
    reported at or beyond ``D_SAFE``, with a hinge sum of exactly 0.0, and
    its penalty rows are 0.0 without a signed-distance call.
    """
    interior = traj[1:-1]
    grad = np.zeros(interior.shape)
    motion = arm.joint_reach[0] * _FD_STEP
    near = np.flatnonzero(bounds < D_SAFE + 2.0 * motion)
    if len(near):
        k = interior.shape[1]
        eye = np.eye(k) * _FD_STEP
        plus = interior[near, None, :] + eye[None, :, :]
        minus = interior[near, None, :] - eye[None, :, :]
        batch = np.concatenate([plus.reshape(-1, k), minus.reshape(-1, k)], axis=0)
        sums = _hinge_sums(arm, scene, batch)[0]
        n = len(near) * k
        grad[near] = (sums[:n].reshape(-1, k) - sums[n:].reshape(-1, k)) / (2.0 * _FD_STEP)
    return _smoothness_gradient_interior(traj) + mu * grad


def merit_gradient(traj, arm: ArmModel, scene: Scene, mu: float) -> np.ndarray:
    """Gradient of smoothness + mu * collision penalty w.r.t. the interior
    waypoints; the quantity the inner loop steps along."""
    _check_kind("arm", arm, ArmModel)
    _check_kind("scene", scene, Scene)
    t = np.asarray(traj, dtype=float)
    return _merit_gradient(arm, scene, t, mu, _hinge_sums(arm, scene, t[1:-1])[1])


def _line_search(arm, scene, X, g, trust, mu, m_cur, bounds):
    """The first of six trial steps from ``X`` along ``-g`` whose merit is
    strictly below ``m_cur``, as (iterate, penalty, clearance bounds, merit,
    halvings), or None when none is. ``bounds`` are the clearance bounds of
    ``X``'s interior waypoints.

    The longest step moves the largest component of ``g`` by ``trust``, each
    next one is half the last, and each is clipped to the trust box and to
    the joint limits. The steps are evaluated in two batches, the first two,
    then the last four only when neither of the first two lowers the merit.
    By the arm's motion bound (``ArmModel.joint_reach``), no arm point of a
    trial waypoint is farther than ``motion = sum_j R_j |cand_j - X_j|``
    from where it was in ``X``, so ``bound - motion`` bounds its clearance.
    A waypoint where that exceeds ``D_SAFE`` + ``_CERTIFY_MARGIN`` has a
    hinge sum of exactly 0.0 and that bound without a signed-distance call;
    only the other rows of a batch go to ``_hinge_sums``, so a batch sends
    at most 2 * n or 4 * n rows for n interior waypoints, and none when
    every row is certified. Accepting only a strict decrease keeps the
    accepted merits non-increasing within a round.
    """
    alpha = np.ldexp(trust / float(np.abs(g).max()), -np.arange(6))
    step = np.clip(-alpha[:, None, None] * g, -trust, trust)
    for lo, hi in ((0, 2), (2, 6)):
        cands = np.repeat(X[None], hi - lo, axis=0)
        cands[:, 1:-1] = np.clip(X[1:-1] + step[lo:hi], arm.lower, arm.upper)
        lows = bounds - np.abs(cands[:, 1:-1] - X[1:-1]) @ arm.joint_reach
        sums = np.zeros(lows.shape)
        rest = lows <= D_SAFE + _CERTIFY_MARGIN
        if rest.any():
            sums[rest], lows[rest] = _hinge_sums(arm, scene, cands[:, 1:-1][rest])
        for j in range(hi - lo):
            penalty = float(sums[j].sum())
            merit = smoothness_cost(cands[j]) + mu * penalty
            if merit < m_cur - 1e-12:
                return cands[j].copy(), penalty, lows[j], merit, lo + j
    return None


def optimize(seed, arm: ArmModel, scene: Scene) -> OptResult:
    """Optimize a seed trajectory with fixed endpoints and waypoint count.

    Outer loop: penalty escalation until the hinge penalty is zero or the
    round budget runs out. Inner loop: steepest descent on the merit, with
    ``_line_search``'s steps inside a shrinking/expanding trust-region box.
    A step accepted after j halvings sets the trust radius to
    ``_TRUST_EXPAND * trust * 2**-j`` (capped at ten times its initial
    value). A rejected search only halves the trust region, so the gradient
    is computed once per round start and once per accepted step. The penalty
    coefficient grows only between rounds, so ``final_cost`` is the last
    merit logged. The optimizer always returns its best iterate; converged
    is True only when progress stalled with zero penalty.
    Raises ValueError when an endpoint is outside the joint limits,
    non-finite or in collision, or when an interior waypoint is not finite
    (checked before interior waypoints are clipped to the joint limits).
    """
    _check_kind("arm", arm, ArmModel)
    _check_kind("scene", scene, Scene)
    X = np.array(seed, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2 or X.shape[1] != arm.dof:
        raise ValueError(f"seed must be a (T, {arm.dof}) waypoint matrix with T >= 2")
    _check_free(arm, scene, [("seed start configuration", X[0]), ("seed goal configuration", X[-1])])
    if not np.isfinite(X[1:-1]).all():
        raise ValueError("seed interior waypoints must be finite joint angles")
    X[1:-1] = np.clip(X[1:-1], arm.lower, arm.upper)

    mu = _MU0
    iterations = 0
    merit_log: list[tuple[float, ...]] = []
    converged = False
    # the interior penalty of X and its clearance bounds: endpoint hinge terms
    # are constants of the optimization; keeping them out lets the penalty
    # reach zero even when a fixed endpoint sits inside the safety margin
    sums, bounds = _hinge_sums(arm, scene, X[1:-1])
    penalty = float(sums.sum())

    if X.shape[0] > 2:
        for rnd in range(_MAX_PENALTY_ROUNDS):
            if rnd:
                mu *= _MU_GROWTH  # between rounds only: final_cost uses the last round's mu
            trust = _TRUST_REGION_INIT
            m_cur = smoothness_cost(X) + mu * penalty
            round_merits = [m_cur]
            stalled = False
            g = None
            for _ in range(_MAX_INNER_ITERS):
                iterations += 1
                if g is None:
                    g = _merit_gradient(arm, scene, X, mu, bounds)
                if np.abs(g).max() < 1e-12:
                    stalled = True
                    break
                accepted = _line_search(arm, scene, X, g, trust, mu, m_cur, bounds)
                if accepted is None:
                    trust *= _TRUST_SHRINK
                    if trust < _TRUST_MIN:
                        stalled = True
                        break
                    continue  # X and mu are unchanged, and so is g
                X, penalty, bounds, m_new, halvings = accepted
                g = None
                decrease = m_cur - m_new
                m_cur = m_new
                round_merits.append(m_cur)
                # grow the box the accepted step used, not the one it was cut from
                trust = min(_TRUST_EXPAND * math.ldexp(trust, -halvings), 10.0 * _TRUST_REGION_INIT)
                if decrease < _CONVERGENCE_TOL:
                    stalled = True
                    break
            merit_log.append(tuple(round_merits))
            if penalty <= 0.0:
                converged = stalled
                break
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
