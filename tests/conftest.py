import numpy as np
import pytest

from armplan import (
    ConvexShape, RoadmapParams, Scene, build_roadmap, build_scene, default_arm,
    generate_test_suite,
)
from armplan.collision import _gaps_margins, _RectBatch, _sat


@pytest.fixture(scope="session")
def arm():
    return default_arm()


@pytest.fixture(scope="session")
def empty_scene():
    return Scene("empty", (), workspace_bounds=(-3.0, -3.0, 3.0, 3.0))


@pytest.fixture(scope="session")
def unbounded_scene():
    return Scene("unbounded", ())


@pytest.fixture(scope="session")
def pole_scene():
    return build_scene("tabletop_pole")


@pytest.fixture(scope="session")
def shelf_scene():
    return build_scene("shelf_boxes")


@pytest.fixture(scope="session")
def small_pole_roadmap(pole_scene, arm):
    return build_roadmap(pole_scene, arm, RoadmapParams(n_nodes=120, k_neighbors=8, rng_seed=5))


@pytest.fixture(scope="session")
def small_pole_suite(pole_scene, arm):
    return generate_test_suite(pole_scene, arm, 12, rng_seed=21)


def random_convex_polygon(rng, n_points=8, radius=1.0, center=None):
    """Random strictly convex polygon: convex hull of random points, retried
    until the construction validator accepts it."""
    from scipy.spatial import ConvexHull

    while True:
        pts = rng.uniform(-radius, radius, size=(n_points, 2))
        hull = ConvexHull(pts)
        verts = pts[hull.vertices]  # counter-clockwise by convention
        if center is not None:
            verts = verts + np.asarray(center)
        try:
            return ConvexShape(verts)
        except ValueError:
            continue


def unscreened_flags(arm, scene, Q):
    """Test-only oracle for ``configs_in_collision``: the workspace margin
    and the separating-axis kernel on every row of ``Q`` (M, K), with no
    AABB screen in front of the kernel."""
    geom, rb = scene._geom, _RectBatch(arm, Q)
    return (_gaps_margins(geom, rb)[1] <= 0.0) | _sat(geom, rb)[0].any(axis=(1, 2))


def dense_segment_flags(arm, scene, A, B, t):
    """Test-only dense oracle for ``segments_in_collision``: every
    interpolated sample through ``unscreened_flags``, then any per
    segment."""
    samples = A[..., None, :] + t[:, None] * (B - A)[..., None, :]
    flags = unscreened_flags(arm, scene, samples.reshape(-1, samples.shape[-1]))
    return flags.reshape(samples.shape[:-1]).any(axis=-1)
