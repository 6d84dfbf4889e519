import numpy as np
import pytest

from armplan import (
    ConvexShape, RoadmapParams, Scene, build_roadmap, build_scene, default_arm,
    generate_test_suite,
)
from armplan.collision import configs_in_collision


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


def dense_segment_flags(arm, scene, A, B, t):
    """Test-only dense oracle for ``segments_in_collision``: every
    interpolated sample through ``configs_in_collision``, then any per
    segment."""
    samples = A[..., None, :] + t[:, None] * (B - A)[..., None, :]
    flags = configs_in_collision(arm, scene, samples.reshape(-1, samples.shape[-1]))
    return flags.reshape(samples.shape[:-1]).any(axis=-1)
