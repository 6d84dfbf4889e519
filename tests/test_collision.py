import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from armplan import collision
from armplan.collision import (
    Scene, config_in_collision, configs_in_collision, edge_in_collision,
    min_clearance, pair_signed_distances,
    segments_in_collision, trajectory_in_collision,
    _CERTIFY_MARGIN, _clear_or_hit, _gaps_margins, _link_aabbs, _RectBatch, _sample_fractions, _sat,
    _segment_flags,
)
from armplan.geometry import ConvexShape, Pose2, _point_segment_distance, signed_distance
from armplan.optimizer import D_SAFE, _hinge_sums
from armplan.roadmap import _T_COARSE, _T_FINE, _T_REST
from armplan.robot import ArmModel, chain_points, link_shapes
from armplan.scenarios import SCENE_NAMES, build_scene

from conftest import dense_segment_flags, random_convex_polygon, unscreened_flags


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


def test_scene_rejects_an_obstacle_that_is_not_a_shape():
    # a vertex array used to fail later, when the scene's geometry was built
    box = ConvexShape.box(0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="scene obstacles must be ConvexShapes, got ndarray"):
        Scene("x", [box, box.vertices])


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


def test_config_in_collision_rejects_a_batch(arm, pole_scene):
    # only the first row used to be judged: this pair read as free although
    # its second row collides on its own
    free, hit = [0.0, 0.0, 0.0, 0.0], [-1.3, -0.5, -0.4, -0.2]
    assert not config_in_collision(arm, pole_scene, free) and config_in_collision(arm, pole_scene, hit)
    with pytest.raises(ValueError, match=r"configuration must have 4 joint angles, got shape \(2, 4\)"):
        config_in_collision(arm, pole_scene, [free, hit])


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
        a, _ = trajectory_in_collision(arm, shelf_scene, traj)
        b = any(edge_in_collision(arm, shelf_scene, p, q, 1000) for p, q in zip(traj[:-1], traj[1:]))
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
    and batched segments (first half of ``Q`` to second half) at 22 and 102
    samples against the dense oracle."""
    flags = configs_in_collision(arm, scene, Q).tolist()
    assert flags == [config_in_collision(arm, scene, q) for q in Q]
    assert flags == [min_clearance(arm, scene, q) <= 0.0 for q in Q]
    A, B = np.split(Q, 2)
    for t in (np.linspace(0.0, 1.0, 22), _sample_fractions(100)):
        segs = segments_in_collision(arm, scene, A, B, t)
        assert np.array_equal(segs, dense_segment_flags(arm, scene, A, B, t))


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
    whole_sums = _hinge_sums(arm, scene, Q)[0]
    bounds = np.cumsum([0] + chunks)
    splits = [(bounds[i], bounds[i + 1]) for i in range(len(chunks))]
    splits += [(i, i + 1) for i in range(m)]        # every row alone
    for lo, hi in splits:
        part_sd = pair_signed_distances(arm, scene, Q[lo:hi], far_cutoff=D_SAFE)
        part_sums = _hinge_sums(arm, scene, Q[lo:hi])[0]
        assert np.array_equal(part_sd, whole_sd[lo:hi]), (lo, hi)
        assert np.array_equal(part_sums, whole_sums[lo:hi]), (lo, hi)


def test_padded_obstacles_match_reference(arm):
    scene = _triangle_box_hexagon_scene()
    Q = np.random.default_rng(5).uniform(arm.lower, arm.upper, size=(40, arm.dof))
    ref = _assert_signed_distances_match_reference(arm, scene, Q)
    assert (ref < 0.0).any(axis=(0, 1)).all()    # each obstacle is penetrated
    assert (ref > 0.0).any(axis=(0, 1)).all()
    _assert_batched_checks_agree(arm, scene, Q)


def _canonical_axes(normals):
    """The distinct sign-canonical directions of ``normals``, first seen
    first: a normal is kept when its first nonzero component is positive and
    negated otherwise, with no negative zero."""
    keep = (normals[:, 0] > 0.0) | ((normals[:, 0] == 0.0) & (normals[:, 1] > 0.0))
    canon = np.where(keep[:, None], normals, -normals) + 0.0
    return np.array(list(dict.fromkeys(map(tuple, canon.tolist()))))


@pytest.mark.parametrize("name", [*SCENE_NAMES, "empty_scene", "unbounded_scene", "random_convex"])
def test_scene_layout_sets_every_slot(name, request):
    """Every scene, one without obstacles or bounds included, gets the whole
    padded layout: O = A = P = 0 for no obstacles, infinite bounds for none.
    Each obstacle's entries are the canonical axes of its own edge normals,
    first seen first, with ``lo``/``hi`` the min and max of its vertices
    projected onto each, and the padding after them is infinite."""
    if name == "random_convex":
        rng = np.random.default_rng(9)
        scenes = [_random_convex_scene(rng, int(rng.integers(1, 6))) for _ in range(50)]
    else:
        scenes = [request.getfixturevalue(name) if name.endswith("_scene") else build_scene(name)]
    for scene in scenes:
        geom = scene._geom
        n_obs = len(scene.obstacles)
        assert geom.n_obstacles == n_obs
        n_verts, n_axes, n_entries = geom.verts.shape[1], len(geom.axes), geom.axis.shape[1]
        assert geom.verts.shape == (n_obs, n_verts, 2)
        assert geom.aabbs.shape == (n_obs, 4)
        assert geom.axes.shape == (n_axes, 2)
        for slot in ("axis", "lo", "hi"):
            assert getattr(geom, slot).shape == (n_obs, n_entries), slot
        assert (n_axes == 0) == (n_entries == 0) == (n_obs == 0)
        assert geom.bounds == (scene.workspace_bounds or (-np.inf, -np.inf, np.inf, np.inf))
        for o, ob in enumerate(scene.obstacles):
            own = _canonical_axes(ob.edge_normals())
            n_own = len(own)
            assert np.array_equal(geom.axes[geom.axis[o, :n_own]], own), o
            proj = ob.vertices @ own.T
            assert np.array_equal(geom.lo[o, :n_own], proj.min(axis=0)), o
            assert np.array_equal(geom.hi[o, :n_own], proj.max(axis=0)), o
            assert (geom.lo[o, n_own:] == -np.inf).all() and (geom.hi[o, n_own:] == np.inf).all(), o


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


def dense_signed_distances(arm, scene, Q, far_cutoff=None):
    """Test-only dense reference: the signed-distance core as it was before
    its broad phase. The separating-axis test and the penetration fill run
    on every (configuration, link, obstacle) triple, and the AABB bound only
    then replaces the exact distance of separated pairs at or above the
    cutoff."""
    geom, rb = scene._geom, _RectBatch(arm, Q)
    hit, pen = _sat(geom, rb, penetration=True)
    sd = np.where(pen > 0.0, -pen, 0.0)
    need_exact = ~hit
    if far_cutoff is not None:
        lower = np.hypot(*_gaps_margins(geom, rb)[0])
        far = need_exact & (lower >= far_cutoff)
        sd = np.where(far, lower, sd)
        need_exact &= ~far
    if need_exact.any():
        mi, ki, oi = np.nonzero(need_exact)
        a0 = rb.corners()[mi, ki]
        a1 = np.roll(a0, -1, axis=1)
        b0 = geom.verts[oi]
        b1 = np.roll(b0, -1, axis=1)
        d1 = _point_segment_distance(a0[:, :, None], b0[:, None], b1[:, None]).min(axis=(1, 2))
        d2 = _point_segment_distance(b0[:, :, None], a0[:, None], a1[:, None]).min(axis=(1, 2))
        sd[mi, ki, oi] = np.minimum(d1, d2)
    return sd


def _triangle_box_hexagon_scene():
    # a triangle, a box and a hexagon: the kernel pads the triangle and the
    # box to six vertices, and the box's two axes to three. The triangle's
    # normals have no negated partner, so it can be pushed out along one
    # sign of each axis only; the box's and the hexagon's come in pairs.
    hexagon = [(0.125, 1.0), (0.0625, 1.125), (-0.0625, 1.125),
               (-0.125, 1.0), (-0.0625, 0.875), (0.0625, 0.875)]
    return Scene("triangle_box_hexagon", (
        ConvexShape([(0.25, 0.45), (0.6, 0.4), (0.4, 0.8)]),
        ConvexShape.box(-0.7, 0.3, -0.4, 0.6),
        ConvexShape(hexagon),
    ), workspace_bounds=(-1.6, -0.6, 1.6, 1.6))


_DENSE_SCENES = [*SCENE_NAMES, "triangle_box_hexagon", "random_convex", "unbounded", "empty"]


def _dense_case_scene(name, rng):
    if name == "triangle_box_hexagon":
        return _triangle_box_hexagon_scene()
    if name == "random_convex":
        return _random_convex_scene(rng, 3)
    if name == "unbounded":
        return Scene("unbounded", build_scene("shelf_boxes").obstacles)
    if name == "empty":
        return Scene("empty", (), workspace_bounds=(-3.0, -3.0, 3.0, 3.0))
    return build_scene(name)


def _rows_near_an_obstacle(arm, scene, rng, m):
    """Uniform rows mixed with rows perturbed around a configuration whose
    closest pair is within a few cutoffs of an obstacle, as the optimizer's
    line search and finite-difference gradient make them."""
    uniform = rng.uniform(arm.lower, arm.upper, size=(m, arm.dof))
    base = uniform[0]
    if scene.obstacles:
        cand = rng.uniform(arm.lower, arm.upper, size=(400, arm.dof))
        closest = dense_signed_distances(arm, scene, cand).min(axis=(1, 2))
        base = cand[np.argmin(np.abs(closest - D_SAFE))]
    near = np.clip(base + rng.normal(scale=0.02, size=(m, arm.dof)), arm.lower, arm.upper)
    return np.where(rng.random((m, 1)) < 0.5, near, uniform)


@pytest.mark.parametrize("m", [1, 2, 40, 224])
@pytest.mark.parametrize("name", _DENSE_SCENES)
def test_broad_phase_matches_dense_reference(arm, name, m):
    """Signed distances, hinge sums and clearances are bitwise those of the
    dense reference, with the optimizer's cutoff and without one."""
    rng = np.random.default_rng([_DENSE_SCENES.index(name), m])
    scene = _dense_case_scene(name, rng)
    Q = _rows_near_an_obstacle(arm, scene, rng, m)
    cut = dense_signed_distances(arm, scene, Q, D_SAFE)
    assert np.array_equal(pair_signed_distances(arm, scene, Q, far_cutoff=D_SAFE), cut)
    assert np.array_equal(pair_signed_distances(arm, scene, Q), dense_signed_distances(arm, scene, Q))
    assert np.array_equal(_hinge_sums(arm, scene, Q)[0], np.maximum(0.0, D_SAFE - cut).sum(axis=(1, 2)))
    for q in Q[:8]:
        sd = dense_signed_distances(arm, scene, q[None])
        margin = _gaps_margins(scene._geom, _RectBatch(arm, q))[1]
        want = min(float(sd.min(initial=math.inf)), float(margin[0]))
        assert min_clearance(arm, scene, q) == want
    if scene.obstacles and m >= 40:
        # both phases are exercised: rows the broad phase settles, and rows
        # with a pair below the cutoff, a colliding one among them
        near_rows = (cut < D_SAFE).any(axis=(1, 2))
        assert near_rows.any() and not near_rows.all()
        assert (cut <= 0.0).any()


def test_rows_without_a_near_pair_skip_the_kernel(arm, shelf_scene, monkeypatch):
    Q = _rows_near_an_obstacle(arm, shelf_scene, np.random.default_rng(9), 40)
    lower = np.hypot(*_gaps_margins(shelf_scene._geom, _RectBatch(arm, Q))[0])
    near = (lower < D_SAFE).any(axis=(1, 2))
    assert near.any() and not near.all()
    seen = []
    monkeypatch.setattr(collision, "_sat", lambda geom, rb, **kw: seen.append(rb.P.copy()) or _sat(geom, rb, **kw))
    sd = pair_signed_distances(arm, shelf_scene, Q[~near], far_cutoff=D_SAFE)
    assert seen == []
    assert np.array_equal(sd, lower[~near])
    # a mixed batch sends its near rows only, sliced from the whole batch
    pair_signed_distances(arm, shelf_scene, Q, far_cutoff=D_SAFE)
    assert len(seen) == 1 and np.array_equal(seen[0], _RectBatch(arm, Q).P[near])


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1, True])
def test_far_cutoff_must_be_a_positive_number(arm, shelf_scene, bad):
    # nan used to mean no cutoff, True ran as 1.0, and 0.0 reported separated
    # pairs as touching
    Q = np.random.default_rng(17).uniform(arm.lower, arm.upper, size=(50, arm.dof))
    with pytest.raises(ValueError, match="far_cutoff must be None or a number > 0"):
        pair_signed_distances(arm, shelf_scene, Q, far_cutoff=bad)


_NON_FINITE_CALLS = {
    "configs_in_collision": lambda arm, scene, Q: configs_in_collision(arm, scene, Q),
    "segments_in_collision": lambda arm, scene, Q: segments_in_collision(
        arm, scene, np.zeros_like(Q), Q, _sample_fractions(4)),
    "pair_signed_distances": lambda arm, scene, Q: pair_signed_distances(arm, scene, Q),
    "pair_signed_distances_cut": lambda arm, scene, Q: pair_signed_distances(
        arm, scene, Q, far_cutoff=0.05),
    "min_clearance": lambda arm, scene, Q: min_clearance(arm, scene, Q[-1]),
}


_BATCH_CALLS = {
    "configs_in_collision": configs_in_collision,
    "pair_signed_distances": pair_signed_distances,
    "chain_points": lambda arm, scene, Q: chain_points(arm, Q),
}


@pytest.mark.parametrize("call", sorted(_BATCH_CALLS))
def test_batch_calls_reject_a_stack_of_matrices(arm, pole_scene, call):
    # a (2, 4, 4) stack passed the width check and died in numpy with "axes
    # don't match array"
    with pytest.raises(ValueError, match=r"configurations must be an \(M, 4\) matrix, got shape \(2, 4, 4\)"):
        _BATCH_CALLS[call](arm, pole_scene, np.zeros((2, arm.dof, arm.dof)))


@pytest.mark.parametrize("shape", [(1, 4), (2, 4)])
def test_edge_in_collision_rejects_batched_endpoints(arm, pole_scene, shape):
    # a (1, 4) pair returned a verdict, and a (2, 4) pair raised numpy's
    # "truth value of an array ... is ambiguous"
    q, batch = np.zeros(arm.dof), np.zeros(shape)
    for q1, q2 in ((batch, q), (q, batch), (batch, batch)):
        with pytest.raises(ValueError, match=r"configuration must have 4 joint angles, got shape"):
            edge_in_collision(arm, pole_scene, q1, q2)


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


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(3, 8),
    stretched=st.booleans(),
    one_joint=st.booleans(),
    scale=st.sampled_from([1e-3, 0.1, 1.0]),
)
@example(seed=0, k=3, stretched=True, one_joint=True, scale=1e-3)
def test_motion_bound_covers_link_and_screen_motion(seed, k, stretched, one_joint, scale):
    """The motion bound ``segments_in_collision`` certifies samples with
    (Schwarzer, Saha & Latombe): from fraction t_a to t_b of a joint-space
    step dq, no link-rectangle corner moves farther than
    ``|t_a - t_b| * sum_j R_j |dq_j|``, and a row's clearance bound (smallest
    AABB gap folded with the workspace margin, as ``_clear_or_hit`` reports
    it) by no more than sqrt(2) times that. A fully stretched arm turning about one joint is the tight case:
    its far corners lie beyond the summed link lengths."""
    rng = np.random.default_rng(seed)
    arm = ArmModel(
        base=Pose2(*rng.uniform(-1.0, 1.0, 2), rng.uniform(-math.pi, math.pi)),
        links=tuple(zip(rng.uniform(0.05, 0.6, k).tolist(), rng.uniform(0.005, 0.1, k).tolist())),
        joint_limits=((-math.pi, math.pi),) * k,
    )
    q = np.zeros(k) if stretched else rng.uniform(-math.pi, math.pi, k)
    dq = rng.normal(scale=scale, size=k)
    if one_joint:
        dq *= np.eye(k)[rng.integers(k)]
    t = np.linspace(0.0, 1.0, 11)
    rb = _RectBatch(arm, q + t[:, None] * dq)
    # R_j: the links from j on, end to end, plus the widest link's half-width
    reach = [sum(length for length, _ in arm.links[j:]) + max(w for _, w in arm.links) for j in range(k)]
    assert arm.joint_reach == pytest.approx(reach, rel=1e-12, abs=0.0)
    allowed = np.abs(t[:, None] - t) * (np.abs(dq) @ arm.joint_reach)
    slack = 1e-12 * (1.0 + allowed)
    corners = rb.corners()
    moved = np.linalg.norm(corners[:, None] - corners, axis=-1).max(axis=(2, 3))
    assert (moved <= allowed + slack).all(), (moved - allowed).max()
    bound = _clear_or_hit(arm, _random_convex_scene(rng, int(rng.integers(1, 5)))._geom, q + t[:, None] * dq)[1]
    assert (np.abs(bound[:, None] - bound) <= math.sqrt(2.0) * allowed + slack).all()


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

def five_link_offset_arm(arm):
    """The arm with a fifth link, on a base off the origin and turned."""
    return ArmModel(
        base=Pose2(0.13, -0.07, 1.9),
        links=arm.links + ((0.1, 0.02),),
        joint_limits=arm.joint_limits + ((-2.0, 2.0),),
    )


class _EagerRectBatch:
    """Eager oracle for ``_RectBatch``: headings from ``chain_points``, their
    cosines and sines taken again, and every projection and bound built up
    front."""

    corners = _RectBatch.corners

    def rows(self, idx):
        sub = object.__new__(_EagerRectBatch)
        sub.__dict__.update((k, v if k in ("L", "W") else v[idx]) for k, v in vars(self).items())
        return sub

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
        arm = five_link_offset_arm(arm)
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
    assert edge_in_collision(arm, pole_scene, a, b, 0)


# ---------------------------------------------------------------------------
# certified segment checks

def _grazing_scene(arm, kind, q, gap, rng):
    """A scene whose nearest obstacle (``grazing_box``) or workspace bound
    (``grazing_bounds``) lies ``gap`` to the right of the rightmost link
    AABB of ``q``. That link's extreme corner is the closest point, so the
    clearance of ``q`` is ``gap`` up to rounding."""
    lo, hi = _link_aabbs(_RectBatch(arm, q))
    k = int(np.argmax(hi[0, 0]))
    x = float(hi[0, 0, k]) + gap
    if kind == "grazing_bounds":
        return Scene("grazing_bounds", (), workspace_bounds=(-3.0, -3.0, x, 3.0))
    box = ConvexShape.box(x, float(lo[1, 0, k]) - 0.05, x + 0.3, float(hi[1, 0, k]) + 0.05)
    return Scene("grazing_box", (box, *_random_convex_scene(rng, 1).obstacles))


_CERTIFY_SCENES = ["random_convex", "unbounded", "obstacle_free", "grazing_box", "grazing_bounds"]


def _certify_scene(arm, kind, rng, q):
    """A scene of one of the ``_CERTIFY_SCENES`` kinds; a grazing one
    grazes the configuration ``q`` at a gap around the 1e-9 margin."""
    if kind == "random_convex":
        return _random_convex_scene(rng, int(rng.integers(1, 5)))
    if kind == "unbounded":
        return Scene("unbounded", build_scene("shelf_boxes").obstacles)
    if kind == "obstacle_free":
        return Scene("obstacle_free", (), workspace_bounds=(-1.6, -0.6, 1.6, 1.6))
    gap = float(rng.choice([-1e-9, 0.0, 1e-12, 5e-10, 1e-9, 1.5e-9, 1e-8, 1e-6]))
    return _grazing_scene(arm, kind, q, gap, rng)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(_CERTIFY_SCENES),
    five_links=st.booleans(),
    n_t=st.sampled_from([12, 18, 42, 84, 102]),
    scale=st.sampled_from([0.05, 0.3, 1.5]),
)
def test_certified_segments_match_dense_oracle(arm, seed, kind, five_links, n_t, scale):
    """Segment flags are those of the dense oracle, from one segment up, at
    the sample counts of an RRT extension (12 to 42), the roadmap's coarse
    and rest sets (18, 84) and a full edge (102): random convex scenes, an
    unbounded and an obstacle-free one, and scenes that graze a sample at a
    gap around the 1e-9 margin; the default arm and a five-link arm on an
    offset base; some segments of zero length."""
    if five_links:
        arm = five_link_offset_arm(arm)
    rng = np.random.default_rng(seed)
    n_seg = int(rng.integers(1, 25))
    t = _sample_fractions(n_t - 2)
    A = rng.uniform(arm.lower, arm.upper, size=(n_seg, arm.dof))
    B = np.clip(A + rng.normal(scale=scale, size=A.shape), arm.lower, arm.upper)
    still = rng.random(n_seg) < 0.2
    B[still] = A[still]
    i, j = int(rng.integers(n_seg)), int(rng.integers(n_t))
    scene = _certify_scene(arm, kind, rng, A[i] + t[j] * (B[i] - A[i]))
    assert np.array_equal(segments_in_collision(arm, scene, A, B, t), dense_segment_flags(arm, scene, A, B, t))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(_CERTIFY_SCENES),
    five_links=st.booleans(),
    m=st.sampled_from([1, 2, 40, 1024]),
)
def test_screened_configs_match_the_unscreened_kernel(arm, seed, kind, five_links, m):
    """``configs_in_collision``, which sends only the rows its AABB screen
    cannot clear to the kernel, flags the rows the kernel flags on every
    row: single IK-filter and endpoint rows up to a sampler's batch, on the
    scenes of the certified segment checks; half the rows of a batch lie
    within about 1e-9 rad of the grazed one."""
    if five_links:
        arm = five_link_offset_arm(arm)
    rng = np.random.default_rng(seed)
    Q = rng.uniform(arm.lower, arm.upper, size=(m, arm.dof))
    Q[m // 2 + 1:] = Q[0] + rng.normal(scale=1e-9, size=(m - m // 2 - 1, arm.dof))
    scene = _certify_scene(arm, kind, rng, Q[0])
    assert np.array_equal(configs_in_collision(arm, scene, Q), unscreened_flags(arm, scene, Q))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    name=st.sampled_from([*SCENE_NAMES, "random_convex", "grazing_box"]),
    five_links=st.booleans(),
    m=st.sampled_from([1, 40, 224]),
)
def test_screen_bound_is_at_most_the_exact_clearance(arm, seed, name, five_links, m):
    """The clearance bound of ``_clear_or_hit``, one square root of the
    smallest squared AABB gap folded with the workspace margin, is at most
    the exact clearance (``pair_signed_distances`` without a cutoff, folded
    with the margin, a penetration counted as 0, where the gaps are 0), up
    to 1e-12, and its flags are the unscreened kernel's: the four authored
    scenes and random convex ones, half the rows near an obstacle, and a
    box a known gap beside a link corner of the first row, where the bound
    is the clearance."""
    if five_links:
        arm = five_link_offset_arm(arm)
    rng = np.random.default_rng(seed)
    if name == "grazing_box":
        Q = rng.uniform(arm.lower, arm.upper, size=(m, arm.dof))
        gap = float(rng.choice([1e-6, 1e-3, 0.05]))
        scene = Scene(name, _grazing_scene(arm, name, Q[0], gap, rng).obstacles[:1])
        assert _clear_or_hit(arm, scene._geom, Q[:1])[1][0] == pytest.approx(gap, rel=1e-9, abs=1e-15)
    else:
        scene = _random_convex_scene(rng, int(rng.integers(1, 5))) if name == "random_convex" else build_scene(name)
        Q = _rows_near_an_obstacle(arm, scene, rng, m)
    hit, bound = _clear_or_hit(arm, scene._geom, Q)
    margin = _gaps_margins(scene._geom, _RectBatch(arm, Q))[1]
    sd = pair_signed_distances(arm, scene, Q).min(axis=(1, 2), initial=np.inf)
    assert (bound <= np.minimum(np.maximum(sd, 0.0), margin) + 1e-12).all()
    assert np.array_equal(hit, unscreened_flags(arm, scene, Q))


def _contact_segment(arm, scene, rng, free):
    """A segment from a free configuration A to a free configuration B at a
    contact, so that B's clearance bound is at most the margin, whose one
    colliding sample is the last, ``A + (B - A)``: one joint of a row of
    ``free`` is turned until it collides, bisected to two adjacent doubles,
    free B and colliding C, and A is drawn on the free side until
    ``A + (B - A)`` rounds to C and the other samples are free."""
    def hit(Q):
        return unscreened_flags(arm, scene, np.atleast_2d(Q))
    while True:
        q = free[rng.integers(len(free))]
        j = int(rng.integers(arm.dof))
        far = q.copy()
        far[j] = arm.upper[j] if rng.random() < 0.5 else arm.lower[j]
        sweep = q + np.linspace(0.0, 1.0, 200)[:, None] * (far - q)
        flags = hit(sweep)
        if not flags.any():
            continue
        first = int(np.argmax(flags))
        B = sweep[first - 1].copy()
        lo, hi = B[j], sweep[first, j]
        while True:
            B[j] = mid = lo + (hi - lo) / 2
            if mid in (lo, hi):
                break
            lo, hi = (lo, mid) if hit(B)[0] else (mid, hi)
        B[j] = lo
        assert _clear_or_hit(arm, scene._geom, B[None])[1][0] <= _CERTIFY_MARGIN
        for a in rng.uniform(min(q[j], lo), max(q[j], lo), 200):
            A = B.copy()
            A[j] = a
            if a + (lo - a) == hi and not dense_segment_flags(arm, scene, A, B, _T_FINE[:-1]):
                return A, B


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    name=st.sampled_from([*SCENE_NAMES, "random_convex"]),
    stage=st.sampled_from(["fine", "coarse", "rest", "ends"]),
    scale=st.sampled_from([0.05, 0.3, 1.5]),
    contact=st.booleans(),
)
@example(seed=0, name="shelf_boxes", stage="fine", scale=0.3, contact=True)
@example(seed=1, name="kitchen", stage="coarse", scale=0.05, contact=True)
def test_segments_certified_from_free_end_bounds_match_dense_oracle(arm, seed, name, stage, scale, contact):
    """Segments between free configurations, checked with the clearance
    bounds of both ends passed in as the roadmap build passes its nodes',
    get the flags of the dense oracle over every sample: at the roadmap's
    full, coarse and rest sample sets and at the two ends alone, on the
    authored scenes and a random convex one. Among the ends are free ones
    whose bound is at most the margin (link boxes overlapping an obstacle's
    box), and, with ``contact``, a segment whose only colliding sample is
    its last, ``A + (B - A)``, one ulp past its free end B, and the same
    segment reversed."""
    rng = np.random.default_rng(seed)
    scene = _random_convex_scene(rng, 3) if name == "random_convex" else build_scene(name)
    t = {"fine": _T_FINE, "coarse": _T_COARSE, "rest": _T_REST, "ends": _sample_fractions(0)}[stage]
    Q = rng.uniform(arm.lower, arm.upper, size=(100, arm.dof))
    free = Q[~unscreened_flags(arm, scene, Q)]
    assume(len(free))   # a random obstacle can cover the arm's base
    A = free[:int(rng.integers(1, 25))]
    B = np.clip(A + rng.normal(scale=scale, size=A.shape), arm.lower, arm.upper)
    A, B = A[~unscreened_flags(arm, scene, B)], B[~unscreened_flags(arm, scene, B)]
    if contact:
        a, b = _contact_segment(arm, scene, rng, free)
        A, B = np.vstack([A, a, b]), np.vstack([B, b, a])
    ends = np.column_stack([_clear_or_hit(arm, scene._geom, A)[1], _clear_or_hit(arm, scene._geom, B)[1]])
    want = dense_segment_flags(arm, scene, A, B, t)
    assert np.array_equal(_segment_flags(arm, scene, A, B, t, ends), want)
    if contact and 1.0 in t:
        assert want[-2] and not want[-1]


@pytest.mark.parametrize("n_t", [17, 22])
def test_certified_segments_on_a_fast_sweep_past_a_thin_bar(n_t):
    """The first joint swings the straight arm 2 rad past a bar near its tip,
    so that a segment collides at one or two samples, or at none; a motion
    bound half as large as the true one reported 22 or 30 of these 40
    segments free."""
    arm, scene, _, _ = _mid_sweep_case()
    t = _sample_fractions(n_t - 2)
    A = np.zeros((40, arm.dof))
    A[:, 0] = np.linspace(0.9, 1.1, 40)
    B = A - [2.0, 0.0, 0.0, 0.0]
    dense = dense_segment_flags(arm, scene, A, B, t)
    assert dense.any() and not dense.all()
    assert np.array_equal(segments_in_collision(arm, scene, A, B, t), dense)


def test_rrt_sized_segment_clear_of_every_obstacle_skips_the_kernel(arm, pole_scene, monkeypatch):
    """A 42-sample segment, the size of an RRT extension, whose samples all
    clear the pole and the workspace bounds is certified free by its
    clearance bounds alone."""
    monkeypatch.setattr(collision, "_sat", lambda *a, **kw: pytest.fail("kernel"))
    assert not segments_in_collision(arm, pole_scene, np.zeros(arm.dof), np.full(arm.dof, 0.2), _sample_fractions(40))


def test_rrt_sized_segment_into_the_pole_is_flagged(arm, pole_scene):
    a, hit = np.zeros(arm.dof), np.array([-1.3, -0.5, -0.4, -0.2])
    t = _sample_fractions(40)
    assert dense_segment_flags(arm, pole_scene, a, hit, t)
    assert segments_in_collision(arm, pole_scene, a, hit, t)


def test_certified_trajectory_reports_the_first_bad_segment():
    arm, scene, q1, q2 = _mid_sweep_case()
    safe = np.array([1.2, 0.4, 0.3, 0.2])
    traj = np.vstack([safe, q1, q2, q2, q1, q1])   # segments 1 and 3 collide
    t = _sample_fractions(collision.DEFAULT_EDGE_INTERP)
    dense = dense_segment_flags(arm, scene, traj[:-1], traj[1:], t)
    assert np.flatnonzero(dense).tolist() == [1, 3]
    assert trajectory_in_collision(arm, scene, traj) == (True, 1)


@pytest.mark.parametrize("A_shape, B_shape, want", [
    ((0, 4), (0, 4), (0,)), ((4,), (0, 4), (0,)), ((2, 1, 4), (3, 4), (2, 3)),
])
def test_segment_batches_of_any_broadcast_shape(arm, pole_scene, A_shape, B_shape, want):
    # with zero segments the certified path raised "cannot reshape array of size 0"
    rng = np.random.default_rng(6)
    A = rng.uniform(arm.lower, arm.upper, size=A_shape)
    B = rng.uniform(arm.lower, arm.upper, size=B_shape)
    t = _sample_fractions(40)
    flags = segments_in_collision(arm, pole_scene, A, B, t)
    assert flags.shape == want
    assert np.array_equal(flags, dense_segment_flags(arm, pole_scene, A, B, t))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_segment_fractions_must_be_finite(arm, bad):
    # a NaN fraction used to raise "joint angles must be finite" for finite
    # endpoints
    with pytest.raises(ValueError, match="sample fractions t must be finite"):
        segments_in_collision(arm, build_scene("kitchen"), np.zeros(4), np.full(4, 0.1), [0.0, bad, 1.0])


@pytest.mark.parametrize("t", [np.array([]), 0.5, np.linspace(0.0, 1.0, 6).reshape(2, 3)])
def test_segment_fractions_must_be_a_non_empty_vector(arm, pole_scene, t):
    # an empty t used to report every segment free without a check, a
    # scalar raised IndexError and a 2-D t a broadcast error
    a, b = np.zeros(arm.dof), np.array([-1.3, -0.5, -0.4, -0.2])
    with pytest.raises(ValueError, match="sample fractions t must be a non-empty 1-D array"):
        segments_in_collision(arm, pole_scene, a, b, t)
