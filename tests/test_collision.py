import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from armplan import collision
from armplan.collision import (
    Scene, config_in_collision, configs_in_collision, edge_in_collision,
    min_clearance, pair_signed_distances,
    segments_in_collision, trajectory_in_collision,
    _link_aabbs, _RectBatch, _sample_fractions,
)
from armplan.geometry import ConvexShape, Pose2, signed_distance
from armplan.optimizer import D_SAFE, _hinge_sums
from armplan.robot import ArmModel, chain_points, link_shapes
from armplan.scenarios import SCENE_NAMES, build_scene

from conftest import random_convex_polygon


def flat_arm(k=4):
    """Arm pointing along +x at its zero configuration."""
    return ArmModel(
        base=Pose2(0.0, 0.0, 0.0),
        links=tuple((0.35, 0.04) for _ in range(k)),
        joint_limits=tuple((-2.8, 2.8) for _ in range(k)),
    )


def test_scene_validation():
    with pytest.raises(ValueError):
        Scene("bad", (), workspace_bounds=(1.0, 0.0, 0.0, 2.0))


# ---------------------------------------------------------------------------
# config_in_collision

def test_empty_scene_is_free(arm, empty_scene):
    assert not config_in_collision(arm, empty_scene, np.zeros(arm.dof))


def test_obstacle_on_first_link(arm):
    # the first link at the zero configuration points straight up from the base
    scene = Scene("hit", (ConvexShape.box(-0.02, 0.1, 0.02, 0.3),))
    assert config_in_collision(arm, scene, np.zeros(arm.dof))


def test_out_of_bounds_counts_as_collision():
    arm = flat_arm()
    scene = Scene("tight", (), workspace_bounds=(-0.5, -0.5, 0.5, 0.5))
    assert config_in_collision(arm, scene, np.zeros(arm.dof))


def _sat_intersects(a: ConvexShape, b: ConvexShape) -> bool:
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


def test_agreement_with_per_link_sat_oracle():
    arm = flat_arm()
    rng = np.random.default_rng(11)
    n_hits = 0
    for _ in range(1000):
        obstacles = tuple(
            random_convex_polygon(rng, radius=0.4, center=rng.uniform(-1.5, 1.5, 2))
            for _ in range(rng.integers(1, 4))
        )
        scene = Scene("rand", obstacles, workspace_bounds=(-50, -50, 50, 50))
        q = rng.uniform(arm.lower, arm.upper)
        want = any(
            _sat_intersects(link, ob)
            for link in link_shapes(arm, q) for ob in obstacles
        )
        got = config_in_collision(arm, scene, q)
        assert got == want
        n_hits += got
    assert 0 < n_hits < 1000


# ---------------------------------------------------------------------------
# edge_in_collision

def test_edge_free_when_sweep_clear(arm, empty_scene):
    q1 = np.zeros(arm.dof)
    q2 = 0.2 * np.ones(arm.dof)
    assert not edge_in_collision(arm, empty_scene, q1, q2)


def test_degenerate_edge(arm, empty_scene):
    q = 0.1 * np.ones(arm.dof)
    assert not edge_in_collision(arm, empty_scene, q, q)


def _mid_sweep_case():
    """Endpoints clear, midpoint sweeping through a small box near the tip arc."""
    arm = flat_arm()
    reach = arm.reach
    scene = Scene("bar", (ConvexShape.box(reach - 0.12, -0.01, reach - 0.02, 0.01),))
    q1 = np.array([0.3, 0.0, 0.0, 0.0])
    q2 = np.array([-0.3, 0.0, 0.0, 0.0])
    return arm, scene, q1, q2


def test_edge_catches_mid_sweep_collision():
    arm, scene, q1, q2 = _mid_sweep_case()
    assert not config_in_collision(arm, scene, q1)
    assert not config_in_collision(arm, scene, q2)
    assert edge_in_collision(arm, scene, q1, q2)
    # dense oracle: 10^4 interpolated points plus the endpoints, built here
    # so that no segment sampler stands between the oracle and the kernel
    t = np.linspace(0.0, 1.0, 10_002)
    dense = configs_in_collision(arm, scene, q1[None, :] + t[:, None] * (q2 - q1)[None, :])
    assert dense.any()


def test_edge_symmetry(arm, pole_scene):
    rng = np.random.default_rng(12)
    for _ in range(50):
        q1 = rng.uniform(arm.lower, arm.upper)
        q2 = rng.uniform(arm.lower, arm.upper)
        assert edge_in_collision(arm, pole_scene, q1, q2) == edge_in_collision(
            arm, pole_scene, q2, q1
        )


def test_interp_monotonicity_on_constructed_case():
    arm, scene, q1, q2 = _mid_sweep_case()
    n = 20
    assert edge_in_collision(arm, scene, q1, q2, n_interp=n)
    assert edge_in_collision(arm, scene, q1, q2, n_interp=5 * n)
    # 5 * (n + 1) - 1 interior points nest the coarse sample set exactly
    assert edge_in_collision(arm, scene, q1, q2, n_interp=5 * (n + 1) - 1)


# ---------------------------------------------------------------------------
# trajectory_in_collision

def test_trajectory_free(arm, empty_scene):
    traj = np.linspace(np.zeros(arm.dof), 0.3 * np.ones(arm.dof), 10)
    assert trajectory_in_collision(arm, empty_scene, traj) == (False, None)


def test_trajectory_reports_first_bad_segment():
    arm, scene, q1, q2 = _mid_sweep_case()
    safe = np.array([1.2, 0.4, 0.3, 0.2])
    assert not config_in_collision(arm, scene, safe)
    traj = np.vstack([safe, q1, q2, safe])  # collision inside segment 1
    flag, seg = trajectory_in_collision(arm, scene, traj)
    assert flag and seg == 1


def test_trajectory_waypoint_inside_obstacle(arm):
    scene = Scene("hit", (ConvexShape.box(-0.02, 0.1, 0.02, 0.3),))
    free = np.array([1.2, 0.2, 0.2, 0.2])
    assert not config_in_collision(arm, scene, free)
    traj = np.vstack([free, np.zeros(arm.dof), free])
    flag, seg = trajectory_in_collision(arm, scene, traj)
    assert flag and seg == 0


def test_trajectory_agreement_with_denser_interpolation(arm, shelf_scene):
    rng = np.random.default_rng(13)
    disagreements = 0
    n_total = 500
    for _ in range(n_total):
        traj = rng.uniform(arm.lower, arm.upper, size=(3, arm.dof))
        a, _ = trajectory_in_collision(arm, shelf_scene, traj, n_interp=100)
        b, _ = trajectory_in_collision(arm, shelf_scene, traj, n_interp=1000)
        disagreements += a != b
    assert disagreements / n_total < 0.01


# ---------------------------------------------------------------------------
# min_clearance

def test_min_clearance_empty_scene_sentinel(arm, unbounded_scene):
    assert min_clearance(arm, unbounded_scene, np.zeros(arm.dof)) == math.inf


def test_min_clearance_builds_one_link_batch(arm, shelf_scene, empty_scene, unbounded_scene, monkeypatch):
    built = []
    init = _RectBatch.__init__

    def counting(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(_RectBatch, "__init__", counting)
    q = np.random.default_rng(3).uniform(arm.lower, arm.upper)
    for scene in (shelf_scene, empty_scene, unbounded_scene):
        built.clear()
        min_clearance(arm, scene, q)
        assert len(built) == 1, scene.name


def test_min_clearance_known_gap():
    arm = flat_arm()
    # box hovering 1 m above the first link span, far from the others
    scene = Scene("gap", (ConvexShape.box(0.05, 1.04, 0.30, 1.50),))
    assert min_clearance(arm, scene, np.zeros(arm.dof)) == pytest.approx(1.0, abs=1e-3)


def test_min_clearance_negative_in_collision(arm):
    scene = Scene("hit", (ConvexShape.box(-0.02, 0.1, 0.02, 0.3),))
    assert min_clearance(arm, scene, np.zeros(arm.dof)) < 0.0


def test_collision_iff_nonpositive_clearance(arm, pole_scene):
    rng = np.random.default_rng(14)
    hits = 0
    for _ in range(300):
        q = rng.uniform(arm.lower, arm.upper)
        flag = config_in_collision(arm, pole_scene, q)
        clear = min_clearance(arm, pole_scene, q)
        assert flag == (clear <= 0.0)
        hits += flag
    assert 0 < hits < 300


def _random_convex_scene(rng, n_obstacles):
    """Random convex polygons around the default arm's reach, inside the
    authored scenes' workspace bounds."""
    obstacles = tuple(
        random_convex_polygon(rng, radius=0.25, center=rng.uniform((-1.0, -0.2), (1.0, 1.2)))
        for _ in range(n_obstacles)
    )
    return Scene("random_convex", obstacles, workspace_bounds=(-1.6, -0.6, 1.6, 1.6))


def _assert_signed_distances_match_reference(arm, scene, Q, far_cutoff=0.05):
    """Batched signed distances, exact and with ``far_cutoff``, against the
    per-pair ``geometry.signed_distance`` reference. Returns the reference."""
    exact = pair_signed_distances(arm, scene, Q)
    cut = pair_signed_distances(arm, scene, Q, far_cutoff=far_cutoff)
    ref = np.array([
        [[signed_distance(sh, ob) for ob in scene.obstacles] for sh in link_shapes(arm, q)]
        for q in Q
    ])
    assert exact == pytest.approx(ref, abs=1e-12)
    near = ref < far_cutoff
    assert cut[near] == pytest.approx(ref[near], abs=1e-12)
    assert (cut[~near] >= far_cutoff - 1e-12).all()
    assert (cut[~near] <= ref[~near] + 1e-12).all()
    return ref


def test_pair_signed_distances_match_reference(arm, shelf_scene):
    rng = np.random.default_rng(15)
    Q = rng.uniform(arm.lower, arm.upper, size=(25, arm.dof))
    _assert_signed_distances_match_reference(arm, shelf_scene, Q)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_pair_signed_distances_match_reference_random_convex(arm, seed):
    # unlike the shelf boxes, whose edge normals collapse into two axes,
    # random polygons give the kernel one axis per edge
    rng = np.random.default_rng(seed)
    scene = _random_convex_scene(rng, 3)
    Q = rng.uniform(arm.lower, arm.upper, size=(40, arm.dof))
    ref = _assert_signed_distances_match_reference(arm, scene, Q)
    assert (ref < 0.0).any() and (ref > 0.0).any()


def _assert_batched_checks_agree(arm, scene, Q):
    """Batched flags against single-configuration checks and clearances,
    and batched segments (first half of ``Q`` to second half) against
    single edge checks."""
    flags = configs_in_collision(arm, scene, Q).tolist()
    assert flags == [config_in_collision(arm, scene, q) for q in Q]
    assert flags == [min_clearance(arm, scene, q) <= 0.0 for q in Q]
    A, B = np.split(Q, 2)
    segs = segments_in_collision(arm, scene, A, B, np.linspace(0.0, 1.0, 22)).tolist()
    assert segs == [edge_in_collision(arm, scene, a, b, n_interp=20) for a, b in zip(A, B)]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_batched_checks_agree_on_random_convex_scenes(arm, seed):
    rng = np.random.default_rng(seed)
    scene = _random_convex_scene(rng, int(rng.integers(1, 5)))
    Q = rng.uniform(arm.lower, arm.upper, size=(16, arm.dof))
    _assert_batched_checks_agree(arm, scene, Q)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    name=st.sampled_from(["shelf_boxes", "tabletop_pole"]),
    chunks=st.lists(st.integers(1, 12), min_size=1, max_size=6),
)
def test_signed_distances_are_batch_invariant(arm, seed, name, chunks):
    """Each row's signed distances and hinge sum are bitwise the same whether
    the row is evaluated alone, in any chunk, or in one concatenated batch:
    the optimizer's batched line search relies on it to keep its records."""
    scene = build_scene(name)
    rng = np.random.default_rng(seed)
    # uniform rows, and rows close to one configuration as a line search
    # and a finite-difference gradient make them, so some pairs are near
    m = sum(chunks)
    base = rng.uniform(arm.lower, arm.upper)
    near = np.clip(base + rng.normal(scale=0.05, size=(m, arm.dof)), arm.lower, arm.upper)
    far = rng.uniform(arm.lower, arm.upper, size=(m, arm.dof))
    Q = np.where(rng.random((m, 1)) < 0.5, near, far)
    whole_sd = pair_signed_distances(arm, scene, Q, far_cutoff=D_SAFE)
    whole_sums = _hinge_sums(arm, scene, Q, D_SAFE)
    bounds = np.cumsum([0] + chunks)
    splits = [(bounds[i], bounds[i + 1]) for i in range(len(chunks))]
    splits += [(i, i + 1) for i in range(m)]        # every row alone
    for lo, hi in splits:
        part_sd = pair_signed_distances(arm, scene, Q[lo:hi], far_cutoff=D_SAFE)
        part_sums = _hinge_sums(arm, scene, Q[lo:hi], D_SAFE)
        assert np.array_equal(part_sd, whole_sd[lo:hi]), (lo, hi)
        assert np.array_equal(part_sums, whole_sums[lo:hi]), (lo, hi)


def test_padded_obstacles_match_reference(arm):
    # a triangle, a box and a hexagon: the kernel pads the triangle and the
    # box to six vertices, and the box's two axes to three. The triangle's
    # normals have no negated partner, so it can be pushed out along one
    # sign of each axis only; the box's and the hexagon's come in pairs.
    hexagon = [(0.125, 1.0), (0.0625, 1.125), (-0.0625, 1.125),
               (-0.125, 1.0), (-0.0625, 0.875), (0.0625, 0.875)]
    scene = Scene("triangle_box_hexagon", (
        ConvexShape([(0.25, 0.45), (0.6, 0.4), (0.4, 0.8)]),
        ConvexShape.box(-0.7, 0.3, -0.4, 0.6),
        ConvexShape(hexagon),
    ), workspace_bounds=(-1.6, -0.6, 1.6, 1.6))
    Q = np.random.default_rng(5).uniform(arm.lower, arm.upper, size=(40, arm.dof))
    ref = _assert_signed_distances_match_reference(arm, scene, Q)
    assert (ref < 0.0).any(axis=(0, 1)).all()    # each obstacle is penetrated
    assert (ref > 0.0).any(axis=(0, 1)).all()
    _assert_batched_checks_agree(arm, scene, Q)


@pytest.mark.parametrize("name", [*SCENE_NAMES, "empty_scene", "unbounded_scene"])
def test_scene_layout_sets_every_slot(name, request):
    """Every scene, one without obstacles or bounds included, gets the whole
    padded layout: O = A = P = 0 for no obstacles, infinite bounds for none."""
    scene = request.getfixturevalue(name) if name.endswith("_scene") else build_scene(name)
    geom = scene._geom
    n_obs = len(scene.obstacles)
    assert geom.n_obstacles == n_obs
    n_verts, n_axes, n_entries = geom.verts.shape[1], len(geom.axes), geom.axis.shape[1]
    assert geom.verts.shape == (n_obs, n_verts, 2)
    assert geom.aabbs.shape == (n_obs, 4)
    assert geom.axes.shape == (n_axes, 2)
    for slot in ("axis", "lo", "hi", "push_hi", "push_lo"):
        assert getattr(geom, slot).shape == (n_obs, n_entries), slot
    assert (n_axes == 0) == (n_entries == 0) == (n_obs == 0)
    assert geom.bounds == (scene.workspace_bounds or (-np.inf, -np.inf, np.inf, np.inf))


@pytest.mark.parametrize("name", ["empty_scene", "unbounded_scene"])
def test_obstacle_free_scene_runs_the_kernel(arm, name, request):
    scene = request.getfixturevalue(name)
    Q = np.random.default_rng(4).uniform(arm.lower, arm.upper, size=(7, arm.dof))
    assert not configs_in_collision(arm, scene, Q).any()
    for cutoff in (None, 0.05):
        sd = pair_signed_distances(arm, scene, Q, far_cutoff=cutoff)
        assert sd.shape == (7, arm.dof, 0) and sd.dtype == float
    clear = min_clearance(arm, scene, Q[0])
    assert (0.0 < clear < math.inf) if scene.workspace_bounds else clear == math.inf


def test_signed_distances_without_cutoff_skip_the_aabb_bound(arm, shelf_scene, monkeypatch):
    Q = np.random.default_rng(6).uniform(arm.lower, arm.upper, size=(12, arm.dof))
    calls = []
    bound = collision._aabb_gap_lower_bound
    monkeypatch.setattr(collision, "_aabb_gap_lower_bound", lambda *a: calls.append(1) or bound(*a))
    pair_signed_distances(arm, shelf_scene, Q)
    min_clearance(arm, shelf_scene, Q[0])
    assert calls == []
    pair_signed_distances(arm, shelf_scene, Q, far_cutoff=0.05)
    assert calls == [1]


_NON_FINITE_CALLS = {
    "configs_in_collision": lambda arm, scene, Q: configs_in_collision(arm, scene, Q),
    "segments_in_collision": lambda arm, scene, Q: segments_in_collision(
        arm, scene, np.zeros_like(Q), Q, _sample_fractions(4)),
    "pair_signed_distances": lambda arm, scene, Q: pair_signed_distances(arm, scene, Q),
    "pair_signed_distances_cut": lambda arm, scene, Q: pair_signed_distances(
        arm, scene, Q, far_cutoff=0.05),
    "min_clearance": lambda arm, scene, Q: min_clearance(arm, scene, Q[-1]),
}


@pytest.mark.parametrize("call", sorted(_NON_FINITE_CALLS))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["pole_scene", "empty_scene"])
def test_non_finite_configurations_are_rejected(arm, call, bad, name, request):
    # a NaN row used to read as free on an obstacle-free bounded scene and as
    # colliding on the pole scene, and min_clearance returned 0.0 for it
    scene = request.getfixturevalue(name)
    Q = np.zeros((3, arm.dof))
    Q[-1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        _NON_FINITE_CALLS[call](arm, scene, Q)


@pytest.mark.parametrize("name", SCENE_NAMES)
def test_authored_box_normals_share_two_axes(name):
    # a box's four normals lie on two directions; negating a zero component
    # gives -0.0, which must not make a third and a fourth
    assert len(build_scene(name)._geom.axes) == 2


def test_far_cutoff_short_circuit(arm, shelf_scene):
    rng = np.random.default_rng(16)
    q = rng.uniform(arm.lower, arm.upper, size=(10, arm.dof))
    exact = pair_signed_distances(arm, shelf_scene, q)
    cut = pair_signed_distances(arm, shelf_scene, q, far_cutoff=0.05)
    # identical wherever either is below the cutoff, lower bound elsewhere
    near = exact < 0.05
    assert np.allclose(cut[near], exact[near])
    assert (cut[~near] <= exact[~near] + 1e-12).all()
    assert (cut[~near] >= 0.05 - 1e-12).all()


# ---------------------------------------------------------------------------
# link batch fields against the eager oracle

class _EagerRectBatch:
    """Eager oracle for ``_RectBatch``: headings from ``chain_points``, their
    cosines and sines taken again, and every projection and bound built up
    front."""

    corners = _RectBatch.corners

    def __init__(self, arm, Q):
        origins, headings = chain_points(arm, Q)
        self.P = origins[:, :-1]
        cos, sin = np.cos(headings), np.sin(headings)
        self.u = np.stack([cos, sin], axis=-1)
        self.n = np.stack([-sin, cos], axis=-1)
        self.L = arm.lengths[None, :]
        self.W = arm.half_widths[None, :]
        self.Pu = (self.P * self.u).sum(-1)
        self.Pn = (self.P * self.n).sum(-1)
        lux = np.minimum(0.0, self.L * self.u[..., 0])
        luy = np.minimum(0.0, self.L * self.u[..., 1])
        hux = np.maximum(0.0, self.L * self.u[..., 0])
        huy = np.maximum(0.0, self.L * self.u[..., 1])
        wx = self.W * np.abs(self.n[..., 0])
        wy = self.W * np.abs(self.n[..., 1])
        self.xmin = self.P[..., 0] + lux - wx
        self.xmax = self.P[..., 0] + hux + wx
        self.ymin = self.P[..., 1] + luy - wy
        self.ymax = self.P[..., 1] + huy + wy


def _eager_aabbs(rb):
    return np.stack([rb.xmin, rb.ymin]), np.stack([rb.xmax, rb.ymax])


def _kernel_outputs(arm, scene, Q):
    t = np.linspace(0.0, 1.0, 7)
    return {
        "configs_in_collision": configs_in_collision(arm, scene, Q),
        "pair_signed_distances": pair_signed_distances(arm, scene, Q),
        "far_cutoff": pair_signed_distances(arm, scene, Q, far_cutoff=D_SAFE),
        "min_clearance": np.array([min_clearance(arm, scene, q) for q in Q[:6]]),
        "segments_in_collision": segments_in_collision(arm, scene, Q, Q[::-1], t),
    }


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.sampled_from([1, 2, 40, 102]),
    name=st.sampled_from([*SCENE_NAMES, "unbounded"]),
    offset_base=st.booleans(),
)
def test_link_batch_matches_eager_oracle(arm, seed, m, name, offset_base):
    """The link fields, bounds and projections, and every kernel output
    built on them, are bitwise those of the eager oracle batch, for the
    default arm and for a five-link arm whose base is off the origin."""
    scene = (Scene("unbounded", build_scene("shelf_boxes").obstacles)
             if name == "unbounded" else build_scene(name))
    if offset_base:
        arm = ArmModel(
            base=Pose2(0.13, -0.07, 1.9),
            links=arm.links + ((0.1, 0.02),),
            joint_limits=arm.joint_limits + ((-2.0, 2.0),),
        )
    rng = np.random.default_rng(seed)
    # rows along one short segment, as an RRT extension makes them, mixed
    # with uniform rows, so that both hit and separated pairs occur
    base = rng.uniform(arm.lower, arm.upper)
    along = base + np.linspace(0.0, 1.0, m)[:, None] * rng.normal(scale=0.2, size=arm.dof)
    Q = np.where(rng.random((m, 1)) < 0.5, along, rng.uniform(arm.lower, arm.upper, size=(m, arm.dof)))

    rb, eager = _RectBatch(arm, Q), _EagerRectBatch(arm, Q)
    for field in ("P", "u", "n", "L", "W"):
        assert np.array_equal(getattr(rb, field), getattr(eager, field)), field
    for got, want in zip(_link_aabbs(rb), _eager_aabbs(eager)):
        assert np.array_equal(got, want)
    # _sat projects the gathered rows of the pairs it keeps
    mi, ki = np.nonzero(np.ones(rb.P.shape[:2], dtype=bool))
    p = rb.P[mi, ki]
    assert np.array_equal((p * rb.u[mi, ki]).sum(-1), eager.Pu[mi, ki])
    assert np.array_equal((p * rb.n[mi, ki]).sum(-1), eager.Pn[mi, ki])

    got = _kernel_outputs(arm, scene, Q)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(collision, "_RectBatch", _EagerRectBatch)
        mp.setattr(collision, "_link_aabbs", _eager_aabbs)
        want = _kernel_outputs(arm, scene, Q)
    for key in want:
        assert np.array_equal(got[key], want[key]), key


@pytest.mark.parametrize("n", [0, 10, 40, 100])
def test_sample_fractions_are_cached_read_only_linspace(n):
    t = _sample_fractions(n)
    assert _sample_fractions(n) is t
    assert np.array_equal(t, np.linspace(0.0, 1.0, n + 2))
    with pytest.raises(ValueError):
        t[0] = 0.5


@pytest.mark.parametrize("bad", [-1, -2, 2.5, True, "3"])
def test_segment_checks_reject_bad_n_interp(arm, pole_scene, bad):
    # n_interp=-1 or -2 used to report a colliding segment as free, and True
    # ran as 1
    a, b = np.zeros(arm.dof), np.array([-1.3, -0.5, -0.4, -0.2])
    assert config_in_collision(arm, pole_scene, b) and not config_in_collision(arm, pole_scene, a)
    with pytest.raises(ValueError, match="n_interp must be an integer >= 0"):
        edge_in_collision(arm, pole_scene, a, b, bad)
    with pytest.raises(ValueError, match="n_interp must be an integer >= 0"):
        trajectory_in_collision(arm, pole_scene, np.array([a, b]), n_interp=bad)
    assert edge_in_collision(arm, pole_scene, a, b, 0)
    assert trajectory_in_collision(arm, pole_scene, np.array([a, b]), n_interp=0) == (True, 0)
