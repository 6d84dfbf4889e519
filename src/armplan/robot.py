"""Planar n-link revolute arm: kinematics, link geometry, and inverse kinematics.

``chain_points``, ``ee_jacobian``, ``solve_ik`` and the collision batches
share one chain pass (``_link_steps``, and ``_joint_origins`` for the joint
positions) and one tip-Jacobian helper. ``solve_ik``'s loop keeps one row per
restart; a converged or stalled restart leaves a ``live`` mask and its row
stops moving.

A goal is an ``EEPose(Pose2)``: a pose with one flag, ``heading_matters``.
``_at_goal`` is the one test of whether a tip reaches a goal; ``solve_ik``
keeps its solutions by it, and ``roadmap.query`` its matching nodes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import ConvexShape, Pose2, transform, wrap_angles

IK_POSITION_TOL = 1e-4   # meters
IK_HEADING_TOL = 1e-3    # radians
_IK_MAX_ITERS = 200
_IK_RESTARTS = 10
_IK_DAMPING = 1e-3       # damped-least-squares lambda


@dataclass(frozen=True)
class EEPose(Pose2):
    """Workspace goal for the arm tip: a ``Pose2`` whose heading is only a
    constraint when ``heading_matters`` is set; it must be finite either way.
    ``heading_matters`` must be a bool (a numpy bool is stored as one)."""

    heading_matters: bool = False

    def __post_init__(self):
        super().__post_init__()
        if not isinstance(self.heading_matters, (bool, np.bool_)):
            raise ValueError(f"heading_matters must be a bool, got {self.heading_matters!r}")
        object.__setattr__(self, "heading_matters", bool(self.heading_matters))


@dataclass(frozen=True)
class ArmModel:
    """Serial chain of rectangular links joined by revolute joints.

    links: (length, half_width) pairs from proximal to distal, meters.
    joint_limits: (lo, hi) bounds per joint, radians.

    The arrays derived from them (``lengths``, ``half_widths``, ``lower``,
    ``upper``, ``joint_reach``) are cached and read-only, in a pickled copy
    too, so they cannot come to disagree with the fields.
    """

    base: Pose2
    links: tuple[tuple[float, float], ...]
    joint_limits: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not isinstance(self.base, Pose2):
            raise ValueError(f"arm base must be a Pose2, got {self.base!r}")
        # stored as a plain Pose2: an EEPose base would make the arm compare
        # unequal to one on the same pose
        object.__setattr__(self, "base", Pose2(self.base.x, self.base.y, self.base.heading))
        links = tuple((float(l), float(w)) for l, w in self.links)
        limits = tuple((float(lo), float(hi)) for lo, hi in self.joint_limits)
        k = len(links)
        if not 3 <= k <= 8:
            raise ValueError(f"arm must have between 3 and 8 links, got {k}")
        if len(limits) != k:
            raise ValueError("one joint limit pair required per link")
        if not all(math.isfinite(x) for pair in links + limits for x in pair):
            raise ValueError("link lengths, half-widths and joint limits must be finite")
        if any(l <= 0.0 or w <= 0.0 for l, w in links):
            raise ValueError("link lengths and half-widths must be positive")
        if any(lo >= hi for lo, hi in limits):
            raise ValueError("joint limits must satisfy lo < hi")
        object.__setattr__(self, "links", links)
        object.__setattr__(self, "joint_limits", limits)

    @property
    def dof(self) -> int:
        return len(self.links)

    @cached_property
    def lengths(self) -> np.ndarray:
        return _read_only(np.array([l for l, _ in self.links]))

    @cached_property
    def half_widths(self) -> np.ndarray:
        return _read_only(np.array([w for _, w in self.links]))

    @cached_property
    def lower(self) -> np.ndarray:
        return _read_only(np.array([lo for lo, _ in self.joint_limits]))

    @cached_property
    def upper(self) -> np.ndarray:
        return _read_only(np.array([hi for _, hi in self.joint_limits]))

    @cached_property
    def joint_reach(self) -> np.ndarray:
        """``R_j`` (K,) of the motion bound of Schwarzer, Saha & Latombe
        (IEEE T-RO 2005): the summed length of links j onward plus the
        largest half-width, which no point of those links is farther from
        joint j than. Turning the joints by ``dq`` moves no arm point
        farther than ``sum_j R_j |dq_j|``."""
        return _read_only(np.cumsum(self.lengths[::-1])[::-1] + self.half_widths.max())

    @property
    def reach(self) -> float:
        return float(self.lengths.sum())

    def fingerprint(self) -> tuple:
        return (self.base.x, self.base.y, self.base.heading, self.links, self.joint_limits)

    def __reduce__(self):
        # a copy is rebuilt from the fields, so its cached arrays are made
        # again, read-only (a pickled array comes back writable)
        return ArmModel, (self.base, self.links, self.joint_limits)


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, with writes to it (and to every view of it) refused."""
    a.flags.writeable = False
    return a


def _check_kind(name: str, value, kind: type) -> None:
    """Raise ValueError naming the argument unless ``value`` is a ``kind``,
    so that an argument of another kind (a scene passed as the arm, say)
    fails at the public entry, not inside the package."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be an instance of {kind.__name__}, got {type(value).__name__}")


def _check_config(arm: ArmModel, q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape != (arm.dof,):
        raise ValueError(f"configuration must have {arm.dof} joint angles, got shape {q.shape}")
    return q


def _is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_int(name: str, value, least: int) -> int:
    """``value`` as an ``int`` when it is an integer (``_is_integer``) of at
    least ``least``; otherwise ValueError naming the argument."""
    if not (_is_integer(value) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def within_limits(arm: ArmModel, q) -> bool:
    _check_kind("arm", arm, ArmModel)
    q = _check_config(arm, q)
    return bool((q >= arm.lower).all() and (q <= arm.upper).all())


def _link_steps(arm: ArmModel, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One pass over the chain for a batch of configurations (M, K): the raw
    cumulative link headings (M, K), their unit cosines and sines stacked as
    ``cs`` (2, M, K), and each link's (x, y) step ``lengths * cs`` stacked the
    same way."""
    headings = arm.base.heading + np.add.accumulate(Q, axis=1)
    cs = np.empty((2, *headings.shape))
    np.cos(headings, out=cs[0])
    np.sin(headings, out=cs[1])
    return headings, cs, arm.lengths * cs


def _joint_origins(arm: ArmModel, steps: np.ndarray) -> np.ndarray:
    """Joint origins (M, K+1, 2) from the stacked link steps; row K is the
    arm tip. Each origin is the base plus the running sum of the steps, the
    sum taken first."""
    tail = np.add.accumulate(steps, axis=2)
    tail[0] += arm.base.x
    tail[1] += arm.base.y
    origins = np.empty((steps.shape[1], arm.dof + 1, 2))
    origins[:, 0] = (arm.base.x, arm.base.y)
    origins[:, 1:] = tail.transpose(1, 2, 0)
    return origins


def _tip_jacobian(steps: np.ndarray) -> np.ndarray:
    """Tip position Jacobian rows stacked as (2, M, K), (jx, jy), from the
    stacked link steps: column j of jx is minus the sum of the y steps of
    links j..K-1, and of jy the sum of their x steps."""
    J = np.empty_like(steps)
    np.add.accumulate(steps[::-1, :, ::-1], axis=2, out=J[:, :, ::-1])
    np.negative(J[0], out=J[0])
    return J


def _check_batch(arm: ArmModel, Q) -> np.ndarray:
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    if Q.ndim != 2 or Q.shape[1] != arm.dof:
        raise ValueError(f"configurations must be an (M, {arm.dof}) matrix, got shape {Q.shape}")
    if not np.isfinite(Q).all():
        raise ValueError("joint angles must be finite")
    return Q


def chain_points(arm: ArmModel, Q) -> tuple[np.ndarray, np.ndarray]:
    """Joint origins and cumulative link headings for a batch of configurations.

    Returns (origins, headings) with origins of shape (M, K+1, 2) where row
    K is the arm tip, and headings of shape (M, K). Headings are raw sums,
    not normalized.
    """
    _check_kind("arm", arm, ArmModel)
    headings, _, steps = _link_steps(arm, _check_batch(arm, Q))
    return _joint_origins(arm, steps), headings


def forward_kinematics(arm: ArmModel, q) -> tuple[list[Pose2], EEPose]:
    """Pose of each link frame (proximal joint, link heading) and the tip pose."""
    _check_kind("arm", arm, ArmModel)
    q = _check_config(arm, q)
    origins, headings = chain_points(arm, q)
    link_poses = [
        Pose2(origins[0, i, 0], origins[0, i, 1], headings[0, i]) for i in range(arm.dof)
    ]
    ee = EEPose(origins[0, -1, 0], origins[0, -1, 1], headings[0, -1])
    return link_poses, ee


def link_shapes(arm: ArmModel, q) -> list[ConvexShape]:
    """One world-frame rectangle per link, length x 2*half_width."""
    _check_kind("arm", arm, ArmModel)
    link_poses, _ = forward_kinematics(arm, q)
    shapes = []
    for (length, hw), pose in zip(arm.links, link_poses):
        local = ConvexShape([(0.0, -hw), (length, -hw), (length, hw), (0.0, hw)])
        shapes.append(transform(local, pose))
    return shapes


def ee_jacobian(arm: ArmModel, q) -> np.ndarray:
    """Analytic 3xK Jacobian of the tip (x, y, heading) w.r.t. joint angles."""
    _check_kind("arm", arm, ArmModel)
    _, _, steps = _link_steps(arm, _check_batch(arm, _check_config(arm, q)))
    return np.vstack([_tip_jacobian(steps)[:, 0], np.ones(arm.dof)])


def goal_seed(target: EEPose) -> int:
    """Stable 32-bit seed derived from a goal pose, independent of PYTHONHASHSEED."""
    raw = np.array([target.x, target.y, target.heading], dtype=np.float64).tobytes()
    raw += b"\x01" if target.heading_matters else b"\x00"
    return int.from_bytes(hashlib.blake2b(raw, digest_size=4).digest(), "little")


def _at_goal(tips: np.ndarray, headings: np.ndarray, target: EEPose) -> np.ndarray:
    """Which of the tips (M, 2), with raw headings (M,), reach ``target``:
    position error below ``IK_POSITION_TOL`` and, when the heading matters,
    wrapped heading error below ``IK_HEADING_TOL``."""
    ok = np.linalg.norm(np.array([target.x, target.y]) - tips, axis=1) < IK_POSITION_TOL
    if target.heading_matters:
        ok &= np.abs(wrap_angles(target.heading - headings)) < IK_HEADING_TOL
    return ok


def solve_ik(arm: ArmModel, target: EEPose, rng_seed: int = 0) -> list[np.ndarray]:
    """Damped-least-squares IK with random restarts uniform in the joint limits.

    Returns up to ``_IK_RESTARTS`` distinct in-limit configurations whose tip
    position error is below 1e-4 m (and heading error below 1e-3 rad when the
    target heading matters). Empty list when nothing converges, which is how
    unreachable targets are reported. Raises ValueError when rng_seed is not
    an integer >= 0.
    """
    _check_kind("arm", arm, ArmModel)
    rng_seed = _check_int("rng_seed", rng_seed, 0)
    if math.hypot(target.x - arm.base.x, target.y - arm.base.y) > arm.reach + 1e-9:
        return []

    rng = np.random.default_rng(rng_seed)
    lower, upper = arm.lower, arm.upper
    Q = rng.uniform(lower, upper, size=(_IK_RESTARTS, arm.dof))
    live = np.ones(_IK_RESTARTS, dtype=bool)
    best_err = np.full(_IK_RESTARTS, np.inf)
    lam2 = _IK_DAMPING * _IK_DAMPING
    offset = np.array([[target.x - arm.base.x], [target.y - arm.base.y]])

    for it in range(_IK_MAX_ITERS):
        ang, _, steps = _link_steps(arm, Q)
        e = offset - np.add.reduce(steps, axis=2)            # (2, R): ex, ey
        pnorm = np.hypot(e[0], e[1])
        done = pnorm < IK_POSITION_TOL * 0.5
        if target.heading_matters:
            eh = wrap_angles(target.heading - ang[:, -1])
            done &= np.abs(eh) < IK_HEADING_TOL * 0.5
        live[done] = False
        # every 25 iterations, drop restarts that stopped making progress
        if it and it % 25 == 0:
            live &= (pnorm < 0.99 * best_err) | (pnorm < 10 * IK_POSITION_TOL)
        if not np.count_nonzero(live):
            break
        np.minimum(best_err, pnorm, out=best_err)
        J = _tip_jacobian(steps)                             # (2, R, K): jx, jy
        if target.heading_matters:
            J3 = np.stack([J[0], J[1], np.ones_like(J[0])], axis=1)   # (R, 3, K)
            err = np.stack([e[0], e[1], eh], axis=1)
            A = J3 @ np.transpose(J3, (0, 2, 1)) + lam2 * np.eye(3)[None]
            y = np.linalg.solve(A, err[:, :, None])
            dq = (np.transpose(J3, (0, 2, 1)) @ y)[:, :, 0]
        else:
            # closed-form damped 2x2 normal equations: rows of G are the
            # entries of J J^T per restart, d holds (a22, a11)
            G = np.add.reduce(J[:, None] * J, axis=3).reshape(4, -1)
            d = G[::-3] + lam2
            det = d[1] * d[0] - G[1] * G[1]
            y = (d * e - G[1] * e[::-1]) / det                # (2, R): y1, y2
            dq = np.add.reduce(J * y[:, :, None], axis=0)
        norms = np.sqrt(np.add.reduce(dq * dq, axis=1))
        scale = np.minimum(1.0, 0.5 / np.where(norms < 1e-12, 1.0, norms))
        dq *= scale[:, None]
        dq += Q
        np.copyto(Q, dq.clip(lower, upper, out=dq), where=live[:, None])

    origins, headings = chain_points(arm, Q)
    ok = _at_goal(origins[:, -1], headings[:, -1], target)

    # keep each converged row that differs by more than 1e-6 rad in some
    # joint from every row kept before it
    conv = Q[ok]
    apart = (np.abs(conv[:, None] - conv[None]).max(axis=2) > 1e-6).tolist()
    kept: list[int] = []
    for i in range(len(conv)):
        if all(apart[i][j] for j in kept):
            kept.append(i)
    return [conv[i].copy() for i in kept]
