"""Planar-arm motion planning: sparse roadmap with cached shortest paths,
sequential-convex trajectory optimization, and a benchmark harness."""

from .geometry import ConvexShape, Pose2, normalize_angle, signed_distance, transform
from .robot import (
    ArmModel, EEPose, ee_jacobian, forward_kinematics, link_shapes, solve_ik, within_limits,
)
from .collision import (
    Scene, config_in_collision, configs_in_collision, edge_in_collision,
    min_clearance, trajectory_in_collision,
)
from .scenarios import (
    SCENE_NAMES, TestCase, TestSuite, build_scene, default_arm,
    generate_test_suite, load_scene, load_suite, save_scene, save_suite,
)
from .roadmap import (
    QueryResult, Roadmap, RoadmapBuildError, RoadmapParams, build_roadmap,
    invalidate_and_requery, k_shortest_paths, load_roadmap, query, save_roadmap,
)
from .baselines import rrt_plan
from .seedprep import path_length, resample_path, straight_line_seed
from .optimizer import OptResult, collision_penalty, optimize, smoothness_cost
from .bench import (
    BenchParams, RunRecord, SummaryRow, emit_report, run_benchmark, summarize,
)

__version__ = "0.1.0"
