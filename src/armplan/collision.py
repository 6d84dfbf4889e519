"""Configuration, edge, and trajectory collision predicates.

Checks are vectorized over batches of configurations: link rectangles are
never materialized as polygon objects on the hot path. One separating-axis
kernel, ``_sat``, decides overlap for both the boolean checks and the signed
distances, so ``config_in_collision`` and ``min_clearance`` agree exactly
about the zero crossing. Every scene, an obstacle-free or unbounded one
included, is held in one padded layout (``_SceneGeom``): every obstacle has
the same number of vertices and of axis entries, so the kernel gathers all
(configuration, link, obstacle) triples of its batch at once, with no loop
over obstacles and no branch on the scene. A configuration that is not
finite raises ValueError.

One AABB screen stands in front of the kernel. ``_gaps_margins`` makes,
from one ``_link_aabbs`` pass, the x and y gaps between the link and
obstacle boxes of every triple, whose norm bounds the pair's separation
from below, and the workspace margin of every configuration.
``_clear_or_hit``, the one collision check, reduces the squared gaps of a
configuration to their smallest and takes one square root, so its
clearance bound (that gap folded with the margin) costs no square root per
pair; it sends to the kernel only the configurations whose bound is at most
``_CERTIFY_MARGIN`` (1e-9): a pair whose gap exceeds that margin is
separated far above rounding, so the flags are those of the kernel on every
configuration. Independent configurations (``configs_in_collision``:
sampled nodes, IK goals, planner endpoints) and segment samples go through
it alike. The signed-distance core, ``_signed_distances``, takes each
pair's gap bound as the ``hypot`` of its gaps, sends to the kernel and the
exact distances only the configurations with a bound below its cutoff
(every configuration with an obstacle when there is no cutoff) and reports
every pair of the others as its bound.

One segment sampler, ``segments_in_collision``, checks straight joint-space
segments; edge and trajectory checks are built on it. It certifies every
batch with the arm's motion bound (``ArmModel.joint_reach``): a checked
sample's clearance bound proves the samples near it free, and only the
others reach the screen. The roadmap build's private path,
``_segment_flags``, also takes the bounds of free endpoints, which certify
the samples near them the same way.

A batch's link rectangles (``_RectBatch``) come from the one chain pass of
``robot`` and hold only what every check reads: the proximal joints ``P``,
the link axes ``u`` and ``n``, the lengths ``L`` and half-widths ``W``, and
the chain's unit cosines and sines and link steps. The projections of ``P``
onto ``u`` and ``n`` are made in ``_sat`` for the pairs that survive the
obstacle axes, and the link AABBs in ``_link_aabbs`` for the screen, so a
small batch pays for no field it does not read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .geometry import ConvexShape, _point_segment_distance
from .robot import (
    ArmModel, _check_batch, _check_config, _check_int, _check_kind, _joint_origins, _link_steps, _read_only,
    within_limits,
)

DEFAULT_EDGE_INTERP = 100

# Stride of the samples a segment check makes first (``_coarse_split``).
_COARSE_STRIDE = 6
# What a clearance bound must exceed, beyond the motion it covers, to prove a
# configuration free without the kernel: far above rounding, so the kernel
# would also report every pair with such a gap separated.
_CERTIFY_MARGIN = 1e-9
_SQRT2 = np.sqrt(2.0)

# Clearance reported for a configuration that nothing constrains.
NO_OBSTACLE_CLEARANCE = float("inf")


class _SceneGeom:
    """A scene's obstacles and workspace bounds in one padded layout.

    ``verts`` (O, V, 2): a polygon with fewer than V vertices repeats its
    last one, which changes no projection range, bounding box or distance.
    ``axes`` (A, 2): the distinct edge-normal directions, sign-canonicalized.
    Each obstacle has P entries, one per distinct axis of its own edge
    normals in first-seen order: ``axis`` (O, P) indexes ``axes``, and
    ``lo``/``hi`` are the min and max of its vertices projected onto that
    axis. The penetration depth reads that interval along both signs of an
    axis, one the obstacle has no normal for included: the penetration depth
    is the radius of the largest origin-centred disc inside the Minkowski
    difference, so the overlap along any direction is at least that depth,
    and an extra sign cannot lower the minimum over the true normals.
    Padding entries are infinite, so they neither separate nor push.
    ``bounds`` is the workspace (xmin, ymin, xmax, ymax), infinite when the
    scene is unbounded. A scene without obstacles has O = A = P = 0.
    """

    __slots__ = ("n_obstacles", "bounds", "verts", "aabbs", "axes", "axis", "lo", "hi")

    def __init__(self, obstacles: tuple[ConvexShape, ...], bounds: tuple[float, ...] | None):
        self.n_obstacles = n_obs = len(obstacles)
        self.bounds = bounds or (-np.inf, -np.inf, np.inf, np.inf)
        n_verts = max((len(ob.vertices) for ob in obstacles), default=1)
        self.verts = np.array([
            np.pad(ob.vertices, ((0, n_verts - len(ob.vertices)), (0, 0)), mode="edge")
            for ob in obstacles
        ]).reshape(n_obs, n_verts, 2)
        self.aabbs = np.concatenate([self.verts.min(axis=1), self.verts.max(axis=1)], axis=1)
        none = [-np.inf, np.inf]     # lo, hi
        axis_ids: dict[bytes, int] = {}
        entries = []  # per obstacle, one [axis id, lo, hi] per axis
        for ob in obstacles:
            own: dict[int, np.ndarray] = {}   # axis id -> axis, first seen first
            for nrm in ob.edge_normals():
                positive = nrm[0] > 0.0 or (nrm[0] == 0.0 and nrm[1] > 0.0)
                canon = (nrm if positive else -nrm) + 0.0    # + 0.0 turns -0.0 into 0.0
                own.setdefault(axis_ids.setdefault(canon.tobytes(), len(axis_ids)), canon)
            proj = ob.vertices @ np.array(list(own.values())).T
            entries.append(list(zip(own, proj.min(axis=0), proj.max(axis=0))))
        n_entries = max((len(rows) for rows in entries), default=0)
        table = np.array([rows + [[0, *none]] * (n_entries - len(rows)) for rows in entries])
        table = table.reshape(n_obs, n_entries, 3)
        self.axes = np.frombuffer(b"".join(axis_ids), dtype=float).reshape(len(axis_ids), 2)
        self.axis = table[:, :, 0].astype(np.intp)
        self.lo, self.hi = np.moveaxis(table[:, :, 1:], 2, 0)


@dataclass(frozen=True)
class Scene:
    """Named static obstacle set with optional axis-aligned workspace bounds.

    workspace_bounds is (xmin, ymin, xmax, ymax); None means unbounded.
    Every obstacle must be a ``ConvexShape``.
    """

    name: str
    obstacles: tuple[ConvexShape, ...]
    workspace_bounds: tuple[float, float, float, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        for ob in self.obstacles:
            if not isinstance(ob, ConvexShape):
                raise ValueError(f"scene obstacles must be ConvexShapes, got {type(ob).__name__}")
        if self.workspace_bounds is not None:
            xmin, ymin, xmax, ymax = self.workspace_bounds
            if not (xmin < xmax and ymin < ymax):
                raise ValueError("workspace bounds must satisfy xmin < xmax and ymin < ymax")
            object.__setattr__(
                self, "workspace_bounds",
                (float(xmin), float(ymin), float(xmax), float(ymax)),
            )

    @cached_property
    def _geom(self) -> _SceneGeom:
        return _SceneGeom(self.obstacles, self.workspace_bounds)


_NEGATE_X = np.array([-1.0, 1.0])


class _RectBatch:
    """Link rectangles for a batch of configurations in implicit (axis) form.

    Holds what every caller reads: the proximal joints ``P`` and the
    along-link and across-link axes ``u`` and ``n``, each (M, K, 2), the
    link lengths ``L`` and half-widths ``W``, each (1, K), and the chain
    pass's unit cosines and sines ``cs`` and link steps ``steps``, each
    (2, M, K). Projections of ``P`` onto ``u`` and ``n`` are made in
    ``_sat`` for the pairs that need them, and the link AABBs in
    ``_link_aabbs``.
    """

    __slots__ = ("P", "u", "n", "L", "W", "cs", "steps")

    def __init__(self, arm: ArmModel, Q: np.ndarray):
        _, self.cs, self.steps = _link_steps(arm, _check_batch(arm, Q))
        self.P = _joint_origins(arm, self.steps)[:, :-1]   # proximal joint of each link
        self.u = self.cs.transpose(1, 2, 0).copy()        # (cos, sin)
        self.n = self.u[..., ::-1] * _NEGATE_X            # (-sin, cos)
        self.L = arm.lengths[None, :]
        self.W = arm.half_widths[None, :]

    def rows(self, idx: np.ndarray) -> "_RectBatch":
        """The batch of configurations ``idx``, sliced from this one's fields
        without a second chain pass."""
        sub = object.__new__(_RectBatch)
        sub.P, sub.u, sub.n = self.P[idx], self.u[idx], self.n[idx]
        sub.cs, sub.steps = self.cs[:, idx], self.steps[:, idx]
        sub.L, sub.W = self.L, self.W
        return sub

    def corners(self) -> np.ndarray:
        """Explicit rectangle corners, shape (M, K, 4, 2), counter-clockwise."""
        lu = (self.L[..., None] * self.u)[:, :, None, :]
        wn = (self.W[..., None] * self.n)[:, :, None, :]
        zero = np.zeros_like(lu)
        along = np.concatenate([zero, lu, lu, zero], axis=2)
        across = np.concatenate([-wn, -wn, wn, wn], axis=2)
        return self.P[:, :, None, :] + along + across


def _link_aabbs(rb: _RectBatch) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned bounds of every link rectangle: ``lo`` holds (xmin,
    ymin) and ``hi`` (xmax, ymax), each (2, M, K). A link spans its step
    ``L u`` along x and y, widened by ``W |n_x| = W |sin|`` and
    ``W |n_y| = W |cos|``."""
    P = rb.P.transpose(2, 0, 1)
    widen = rb.W * np.abs(rb.cs[::-1])
    return P + np.minimum(0.0, rb.steps) - widen, P + np.maximum(0.0, rb.steps) + widen


def _gaps_margins(geom: _SceneGeom, rb: _RectBatch) -> tuple[np.ndarray, np.ndarray]:
    """The AABB screen of a link batch, from one ``_link_aabbs`` pass: the
    (2, M, K, O) x and y gaps between the link and obstacle boxes, whose
    norm bounds each link-obstacle separation distance from below, and the
    (M,) workspace containment margins, negative outside the bounds."""
    lo, hi = _link_aabbs(rb)
    xmin, ymin, xmax, ymax = geom.bounds
    margin = np.minimum.reduce([lo[0] - xmin, xmax - hi[0], lo[1] - ymin, ymax - hi[1]]).min(axis=1)
    ob_lo, ob_hi = geom.aabbs.T.reshape(2, 2, 1, 1, geom.n_obstacles)   # (2, 1, 1, O) each
    return np.maximum(np.maximum(ob_lo - hi[..., None], lo[..., None] - ob_hi), 0.0), margin


def _sat(geom: _SceneGeom, rb: _RectBatch, penetration: bool = False):
    """Separating-axis test of every (configuration, link, obstacle) pair.

    Returns ``(hit, pen)``: (M, K, O) flags, true where a link rectangle
    overlaps or touches an obstacle, and, when ``penetration`` is set, the
    (M, K, O) minimum translation magnitudes, meaningful only where hit
    (None otherwise). The obstacle axes are tested on every pair, and the
    rectangle axes, like the penetration depths, only on the pairs the first
    test leaves unseparated.
    """
    pa = rb.P @ geom.axes.T                                  # (M, K, A)
    du = rb.u @ geom.axes.T
    dn = np.abs(rb.n @ geom.axes.T) * rb.W[..., None]
    ldu = rb.L[..., None] * du
    rmin = pa + np.minimum(0.0, ldu) - dn
    rmax = pa + np.maximum(0.0, ldu) + dn
    sep = (
        (np.take(rmin, geom.axis, axis=2) > geom.hi) | (np.take(rmax, geom.axis, axis=2) < geom.lo)
    ).any(axis=3)                                            # (M, K, O)
    hit = np.zeros(sep.shape, dtype=bool)
    pen = np.zeros(sep.shape) if penetration else None
    mi, ki, oi = np.nonzero(~sep)
    s = len(mi)
    if s == 0:
        return hit, pen
    # one product of both rectangle axes against every obstacle vertex keeps
    # it a matrix-matrix product whatever the pair count, so every pair is
    # projected alike; each pair then keeps its own obstacle's columns
    u, n = rb.u[mi, ki], rb.n[mi, ki]
    vuv = np.concatenate([u, n]) @ geom.verts.reshape(-1, 2).T
    vuv = vuv.reshape(2 * s, geom.n_obstacles, -1)[np.arange(2 * s), np.concatenate([oi, oi])]
    vu, vn = vuv[:s], vuv[s:]
    vu_min, vu_max = vu.min(axis=1), vu.max(axis=1)
    vn_min, vn_max = vn.min(axis=1), vn.max(axis=1)
    p = rb.P[mi, ki]
    pu = (p * u).sum(-1)
    pn = (p * n).sum(-1)
    ln = rb.L[0, ki]
    w = rb.W[0, ki]
    sep2 = (vu_max < pu) | (vu_min > pu + ln)
    sep2 |= (vn_max < pn - w) | (vn_min > pn + w)
    hit[mi, ki, oi] = ~sep2
    if penetration:
        mk = mi[:, None], ki[:, None], geom.axis[oi]         # (S, P) each
        push = np.minimum(geom.hi[oi] - rmin[mk], rmax[mk] - geom.lo[oi]).min(axis=1)
        pen[mi, ki, oi] = np.minimum.reduce([
            push, vu_max - pu, (pu + ln) - vu_min, vn_max - (pn - w), (pn + w) - vn_min,
        ])
    return hit, pen


def configs_in_collision(arm: ArmModel, scene: Scene, Q) -> np.ndarray:
    """Boolean flags for a batch of configurations of shape (M, K), from the
    AABB screen and the kernel (``_clear_or_hit``)."""
    _check_kind("arm", arm, ArmModel)
    _check_kind("scene", scene, Scene)
    return _clear_or_hit(arm, scene._geom, _check_batch(arm, Q))[0]


def config_in_collision(arm: ArmModel, scene: Scene, q) -> bool:
    _check_kind("arm", arm, ArmModel)
    _check_kind("scene", scene, Scene)
    return bool(configs_in_collision(arm, scene, _check_config(arm, q))[0])


def _check_free(arm: ArmModel, scene: Scene, named) -> None:
    """Raise ValueError for the first ``(what, q)`` pair whose configuration
    is outside the joint limits (a non-finite angle is), and otherwise for
    the first in collision; all of them go through one collision batch."""
    for what, q in named:
        if not within_limits(arm, q):
            raise ValueError(f"{what} is outside the joint limits")
    hit = configs_in_collision(arm, scene, np.array([q for _, q in named]))
    if hit.any():
        raise ValueError(f"{named[int(np.argmax(hit))][0]} is in collision")


def _signed_distances(geom: _SceneGeom, rb: _RectBatch, far_cutoff: float = np.inf) -> tuple[np.ndarray, np.ndarray]:
    """``pair_signed_distances`` of one link batch, and its workspace
    margins, from the AABB screen (``_gaps_margins``) and the kernel.

    Only the configurations with a pair whose gap bound is below the cutoff
    go through the kernel; every pair of the others is reported as its
    bound. Of a kept configuration, a hit pair gets its penetration depth
    and a separated one the exact vertex-segment distance, or its bound
    where that is at least the cutoff. A touching or overlapping pair has a
    bound of 0 (up to rounding, for obstacle axes off the coordinate axes),
    so a cutoff of any practical size never leaves it out. Every
    per-configuration quantity is computed alike in any batch, so a kept
    row gets the same bits as in a kernel pass over the whole batch."""
    gaps, margin = _gaps_margins(geom, rb)
    lower = np.hypot(gaps[0], gaps[1])
    near = np.flatnonzero((lower < far_cutoff).any(axis=(1, 2)))
    if len(near) == 0:
        return lower, margin
    rb, lower_near = rb.rows(near), lower[near]
    hit, pen = _sat(geom, rb, penetration=True)
    sd = np.where(hit, np.where(pen > 0.0, -pen, 0.0), lower_near)
    mi, ki, oi = np.nonzero(~hit & (lower_near < far_cutoff))
    if len(mi):
        a0 = rb.corners()[mi, ki]                    # (S, 4, 2)
        a1 = np.roll(a0, -1, axis=1)
        b0 = geom.verts[oi]                          # (S, V, 2)
        b1 = np.roll(b0, -1, axis=1)
        d1 = _point_segment_distance(a0[:, :, None], b0[:, None], b1[:, None]).min(axis=(1, 2))
        d2 = _point_segment_distance(b0[:, :, None], a0[:, None], a1[:, None]).min(axis=(1, 2))
        sd[mi, ki, oi] = np.minimum(d1, d2)
    lower[near] = sd
    return lower, margin


def pair_signed_distances(
    arm: ArmModel, scene: Scene, Q, far_cutoff: float | None = None
) -> np.ndarray:
    """Signed distance for every (configuration, link, obstacle) triple.

    Shape (M, K, O). With ``far_cutoff`` set, pairs whose AABB gap already
    proves a separation of at least the cutoff are reported as that lower
    bound instead of the exact distance; hinge penalties with threshold
    <= far_cutoff are unaffected. Only configurations with a pair whose
    bound is below the cutoff reach the separating-axis test. Raises
    ValueError unless ``far_cutoff`` is None or a number > 0 (not a bool;
    NaN fails).
    """
    _check_kind("arm", arm, ArmModel)
    _check_kind("scene", scene, Scene)
    if far_cutoff is not None and not (
        isinstance(far_cutoff, (int, float, np.integer, np.floating))
        and not isinstance(far_cutoff, bool) and far_cutoff > 0.0
    ):
        raise ValueError(f"far_cutoff must be None or a number > 0, got {far_cutoff!r}")
    cutoff = np.inf if far_cutoff is None else far_cutoff
    return _signed_distances(scene._geom, _RectBatch(arm, Q), cutoff)[0]


def min_clearance(arm: ArmModel, scene: Scene, q) -> float:
    """Smallest signed distance over all (link, obstacle) pairs, folded with
    the workspace containment margin. Unconstrained configurations report a
    large sentinel (infinity)."""
    _check_kind("arm", arm, ArmModel)
    _check_kind("scene", scene, Scene)
    sd, margin = _signed_distances(scene._geom, _RectBatch(arm, _check_config(arm, q)))
    return min(float(sd.min(initial=NO_OBSTACLE_CLEARANCE)), float(margin[0]))


def segments_in_collision(arm: ArmModel, scene: Scene, A, B, t) -> np.ndarray:
    """Flag per straight joint-space segment from ``A[i]`` to ``B[i]``.

    A segment is flagged when any configuration ``A[i] + t_j (B[i] - A[i])``
    is in collision; ``t`` holds the sample fractions (0 and 1 check the
    endpoints). ``A`` and ``B`` are (..., K) and broadcast against each
    other; the flags have their broadcast leading shape.

    The check is certified in two stages. Stage 1 checks the coarse samples
    of ``_coarse_split`` with ``_clear_or_hit``. On segment s no arm point
    moves farther than ``|t_a - t_b| * D_s`` between two samples, with
    ``D_s = sum_j R_j |B_j - A_j|`` and ``R_j`` the arm's
    ``ArmModel.joint_reach``, so an AABB gap falls by at most sqrt(2) times
    that and the workspace margin by at most that. Stage 2 checks, the same
    way, the other samples of the segments stage 1 left unflagged, except
    those some checked sample's bound covers: bound > sqrt(2) * motion +
    ``_CERTIFY_MARGIN`` (1e-9).
    The flags are those of a check of every sample. Endpoints that are not
    finite raise ValueError before they are interpolated, and so does a
    ``t`` that is not a non-empty 1-D array of finite fractions.

    The roadmap's edge checks take a private path, ``_segment_flags``, that
    also knows the clearance bounds of free endpoints, and so certifies
    from them as from checked samples. The ``t = 0`` sample is ``A`` bit for
    bit and is not checked again. The ``t = 1`` sample ``A + (B - A)`` can
    differ from ``B`` in the last bit, a motion far below the margin, so
    ``B``'s bound covers it only when that bound exceeds ``_CERTIFY_MARGIN``;
    otherwise it is checked. The flags are the same either way.
    """
    _check_kind("arm", arm, ArmModel)
    _check_kind("scene", scene, Scene)
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise ValueError("segment endpoints must be finite joint angles")
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError(f"sample fractions t must be a non-empty 1-D array, got shape {t.shape}")
    if not np.isfinite(t).all():
        raise ValueError("sample fractions t must be finite")
    return _segment_flags(arm, scene, A, B, t)


def _segment_flags(arm: ArmModel, scene: Scene, A: np.ndarray, B: np.ndarray, t: np.ndarray,
                   ends: np.ndarray | None = None) -> np.ndarray:
    """``segments_in_collision`` of finite float endpoints and fractions.
    ``ends`` (..., 2), when given, holds the clearance bounds
    (``_clear_or_hit``) of ``A`` and ``B``, which must both be free: they
    join the checked samples' bounds at fractions 0 and 1, no sample at
    ``t = 0`` is checked, and the ``t = 1`` samples join the rest."""
    step = B - A
    samples = A[..., None, :] + t[:, None] * step[..., None, :]
    lead = samples.shape[:-2]
    samples = samples.reshape(-1, t.size, samples.shape[-1])
    step = step.reshape(-1, step.shape[-1])
    geom = scene._geom
    checked, rest = _coarse_split(t.size)
    if ends is not None:
        last = t[checked] == 1.0
        checked, rest = checked[~last], np.concatenate([rest, checked[last]])
        checked, rest = checked[t[checked] != 0.0], rest[t[rest] != 0.0]
    hit, bound = _clear_or_hit(arm, geom, samples[:, checked])
    flags = hit.any(axis=1)
    at = t[checked]
    if ends is not None:
        bound = np.concatenate([bound, np.broadcast_to(ends, (*lead, 2)).reshape(-1, 2)], axis=1)
        at = np.concatenate([at, (0.0, 1.0)])
    motion = _SQRT2 * (np.abs(step) @ arm.joint_reach)[:, None, None] * np.abs(t[rest, None] - at)
    covered = (bound[:, None, :] > motion + _CERTIFY_MARGIN).any(axis=2)
    si, ri = np.nonzero(~covered & ~flags[:, None])
    if len(si):
        hit = _clear_or_hit(arm, geom, samples[si, rest[ri]])[0]
        flags[si[hit]] = True
    return flags.reshape(lead)


def _coarse_split(n_t: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the samples a segment check of ``n_t`` samples makes
    first, every ``_COARSE_STRIDE``-th and the last, and of the rest."""
    coarse = np.zeros(n_t, dtype=bool)
    coarse[::_COARSE_STRIDE] = True
    coarse[-1] = True
    return np.flatnonzero(coarse), np.flatnonzero(~coarse)


def _clear_or_hit(arm: ArmModel, geom: _SceneGeom, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collision flags and clearance lower bounds of the configurations
    ``Q`` (..., K). A row's bound is its smallest link-obstacle AABB gap,
    folded with its workspace margin; only rows whose bound is at most
    ``_CERTIFY_MARGIN`` go through the kernel, and every other row is
    free. The gaps are compared squared, so a row takes one square root:
    rounding moves the bound by a few ulps, far below the margin, and an
    underflowing square only lowers it."""
    rb = _RectBatch(arm, Q.reshape(-1, Q.shape[-1]))
    gaps, margin = _gaps_margins(geom, rb)
    gaps *= gaps
    squared = gaps[0]
    squared += gaps[1]
    bound = np.minimum(np.sqrt(squared.min(axis=(1, 2), initial=np.inf)), margin)
    near = np.flatnonzero(bound <= _CERTIFY_MARGIN)
    hit = np.zeros(len(bound), dtype=bool)
    if len(near):
        hit[near] = (margin[near] <= 0.0) | _sat(geom, rb.rows(near))[0].any(axis=(1, 2))
    return hit.reshape(Q.shape[:-1]), bound.reshape(Q.shape[:-1])


@lru_cache(maxsize=256, typed=True)    # typed: True or 1.0 must not hit 1's entry
def _sample_fractions(n_interp: int) -> np.ndarray:
    """The ``n_interp + 2`` sample fractions of a segment check, 0 and 1
    included, built once per ``n_interp`` and read-only. Raises ValueError
    when ``n_interp`` is not an integer >= 0."""
    return _read_only(np.linspace(0.0, 1.0, _check_int("n_interp", n_interp, 0) + 2))


def edge_in_collision(arm: ArmModel, scene: Scene, q1, q2, n_interp: int = DEFAULT_EDGE_INTERP) -> bool:
    """True when any of the interpolated configurations along the straight
    joint-space segment (endpoints included) is in collision."""
    _check_kind("arm", arm, ArmModel)
    _check_kind("scene", scene, Scene)
    q1, q2 = _check_config(arm, q1), _check_config(arm, q2)
    return bool(segments_in_collision(arm, scene, q1, q2, _sample_fractions(n_interp)))


def trajectory_in_collision(arm: ArmModel, scene: Scene, traj) -> tuple[bool, int | None]:
    """Fine-grained validation of a waypoint trajectory.

    Every adjacent waypoint pair is checked with ``DEFAULT_EDGE_INTERP``
    intermediate configurations. Returns (flag, first offending segment).
    """
    _check_kind("arm", arm, ArmModel)
    _check_kind("scene", scene, Scene)
    traj = np.asarray(traj, dtype=float)
    if traj.ndim != 2 or traj.shape[0] < 2:
        raise ValueError("trajectory needs at least 2 waypoints")
    flags = segments_in_collision(arm, scene, traj[:-1], traj[1:], _sample_fractions(DEFAULT_EDGE_INTERP))
    if not flags.any():
        return False, None
    return True, int(np.argmax(flags))
