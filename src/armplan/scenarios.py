"""Authored benchmark environments, test-case generation, and file formats.

The four scenes are planar, desk-scale analogs of common manipulation
setups, ordered roughly by difficulty: an open tabletop split by a slender
pole, a tabletop with a U-shaped container, a kitchen with counters and
ledges, and a shelf whose slots are barely wider than the arm links.

Suite starts and goals and roadmap nodes come from one rejection sampler,
``_free_configs``, which checks ``_SAMPLE_BATCH`` draws in each collision
batch and stops after ``MAX_SAMPLE_ATTEMPTS`` draws in all.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baselines import rrt_plan, rrt_seed
from .collision import Scene, configs_in_collision
from .geometry import ConvexShape, Pose2
from .robot import ArmModel, EEPose, _check_int, _check_kind, forward_kinematics, goal_seed, solve_ik, within_limits

# One version per file format: a roadmap binding hashes ``scene_to_dict``,
# version included, so only a scene version bump rebinds saved roadmaps.
_SCENE_FORMAT_VERSION = 1
_SUITE_FORMAT_VERSION = 1
SCENE_NAMES = ("tabletop_pole", "tabletop_container", "kitchen", "shelf_boxes")

# The one cap on configurations ``_free_configs`` draws for one suite or
# one roadmap, and the draws it checks in one collision batch.
MAX_SAMPLE_ATTEMPTS = 1_000_000
_SAMPLE_BATCH = 1024

DEFAULT_BASE = Pose2(0.0, 0.0, math.pi / 2)
DEFAULT_LINKS = ((0.50, 0.040), (0.40, 0.035), (0.30, 0.030), (0.20, 0.025))
DEFAULT_JOINT_LIMITS = ((-2.96, 2.96), (-2.53, 2.53), (-2.53, 2.53), (-2.53, 2.53))


class GenerationError(RuntimeError):
    """Raised when rejection sampling cannot produce the requested cases."""


def default_arm() -> ArmModel:
    """The 4-link desk arm every authored scene is designed around."""
    return ArmModel(base=DEFAULT_BASE, links=DEFAULT_LINKS, joint_limits=DEFAULT_JOINT_LIMITS)


def _box(xmin, ymin, xmax, ymax) -> ConvexShape:
    return ConvexShape.box(xmin, ymin, xmax, ymax)


def build_scene(name: str) -> Scene:
    """Deterministic hand-authored scene by name."""
    bounds = (-1.6, -0.6, 1.6, 1.6)
    if name == "tabletop_pole":
        obstacles = (
            _box(-1.55, -0.42, 1.55, -0.22),   # table slab
            _box(0.48, -0.22, 0.56, 0.55),     # slender pole splitting the reach space
            _box(0.85, -0.22, 1.05, -0.06),    # box on the far side
        )
    elif name == "tabletop_container":
        obstacles = (
            _box(-1.55, -0.42, 1.55, -0.22),   # table slab
            _box(-1.00, -0.22, -0.94, 0.18),   # container left wall
            _box(-0.50, -0.22, -0.44, 0.18),   # container right wall
            _box(-0.80, -0.22, -0.66, -0.10),  # box inside the container
            _box(0.55, -0.22, 0.75, -0.06),    # box outside
        )
    elif name == "kitchen":
        obstacles = (
            _box(-1.55, -0.42, -0.70, 0.02),   # left counter block
            _box(-1.55, 0.60, -0.85, 1.05),    # upper cabinet
            _box(-1.25, 0.02, -1.05, 0.20),    # box on the left counter
            _box(0.70, -0.42, 1.55, -0.02),    # right counter block
            _box(0.95, 0.55, 1.55, 0.95),      # hood over the right counter
            _box(0.85, -0.02, 1.02, 0.16),     # pot on the right counter
        )
    elif name == "shelf_boxes":
        boards = [
            _box(0.60, y, 1.30, y + 0.04)
            for y in (-0.30, 0.00, 0.30, 0.60, 0.90)
        ]
        boxes = [
            _box(0.78, -0.26, 0.94, -0.14),
            _box(1.05, -0.26, 1.21, -0.14),
            _box(1.00, 0.04, 1.16, 0.16),
            _box(0.70, 0.34, 0.86, 0.46),
            _box(1.00, 0.34, 1.16, 0.46),
            _box(0.95, 0.64, 1.11, 0.76),
        ]
        obstacles = tuple(boards + boxes)
    else:
        raise ValueError(f"unknown scene {name!r}; expected one of {SCENE_NAMES}")
    return Scene(name=name, obstacles=obstacles, workspace_bounds=bounds)


@dataclass(frozen=True)
class TestCase:
    """One planning query: a collision-free start configuration and a
    kinematically feasible goal tip pose. Raises ValueError unless ``id``
    and ``scene_name`` are strings, ``start`` is a sequence of numbers
    (stored as a tuple of floats) and ``goal`` is an ``EEPose``; the width
    and limits of the start are checked by the suite, which knows the arm."""

    id: str
    start: tuple[float, ...]
    goal: EEPose
    scene_name: str

    def __post_init__(self):
        for name in ("id", "scene_name"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"test case {name} must be a string, got {getattr(self, name)!r}")
        try:
            object.__setattr__(self, "start", tuple(float(x) for x in self.start))
        except (TypeError, ValueError):
            raise ValueError(f"case {self.id!r}: start must be a sequence of numbers, got {self.start!r}") from None
        if not isinstance(self.goal, EEPose):
            raise ValueError(f"case {self.id!r}: goal must be an EEPose, got {type(self.goal).__name__}")

    @property
    def start_config(self) -> np.ndarray:
        return np.array(self.start)


@dataclass(frozen=True)
class TestSuite:
    """Test cases of one scene for one arm, under generation's rules: raises
    ValueError unless ``arm`` is an ``ArmModel``, ``rng_seed`` an integer
    >= 0 (stored as int), and ``cases`` one or more ``TestCase``s (stored as
    a tuple) with unique ids, each of the suite's scene and with a start of
    one angle per joint within the arm's limits."""

    scene_name: str
    rng_seed: int
    arm: ArmModel
    cases: tuple[TestCase, ...]

    def __post_init__(self):
        if not isinstance(self.arm, ArmModel):
            raise ValueError(f"suite arm must be an ArmModel, got {type(self.arm).__name__}")
        object.__setattr__(self, "rng_seed", _check_int("rng_seed", self.rng_seed, 0))
        object.__setattr__(self, "cases", tuple(self.cases))
        if not self.cases:
            raise ValueError("suite has no cases; generate_test_suite writes at least one")
        for c in self.cases:
            if not isinstance(c, TestCase):
                raise ValueError(f"suite cases must be TestCases, got {type(c).__name__}")
        ids = [c.id for c in self.cases]
        if len(set(ids)) != len(ids):
            raise ValueError("test case ids must be unique")
        for c in self.cases:
            if c.scene_name != self.scene_name:
                raise ValueError(f"case {c.id!r} is for scene {c.scene_name!r}, not the suite's {self.scene_name!r}")
            if len(c.start) != self.arm.dof or not within_limits(self.arm, c.start):
                raise ValueError(f"case {c.id!r}: start must be {self.arm.dof} finite joint angles "
                                 "within the arm's joint limits")

    def __len__(self) -> int:
        return len(self.cases)


def _free_configs(scene: Scene, arm: ArmModel, rng: np.random.Generator, sampled: int):
    """Yield collision-free configurations in the order ``rng`` draws them:
    the first ``sampled`` joints uniform in their limits, the rest at the
    midpoint of theirs. Each batch of draws is checked in one collision
    call; a row's verdict does not depend on its batch, and ``rng.uniform``
    yields the same doubles row by row as one draw at a time. Raises
    GenerationError after ``MAX_SAMPLE_ATTEMPTS`` draws in all."""
    for drawn in itertools.count(0, _SAMPLE_BATCH):
        if drawn >= MAX_SAMPLE_ATTEMPTS:
            raise GenerationError(f"exceeded {MAX_SAMPLE_ATTEMPTS} samples drawing collision-free "
                                  f"configurations for scene {scene.name!r}; it may be over-constrained")
        batch = np.tile((arm.lower + arm.upper) / 2.0, (min(_SAMPLE_BATCH, MAX_SAMPLE_ATTEMPTS - drawn), 1))
        batch[:, :sampled] = rng.uniform(arm.lower[:sampled], arm.upper[:sampled], size=(len(batch), sampled))
        yield from batch[~configs_in_collision(arm, scene, batch)]


def ik_goal_configs(arm: ArmModel, scene: Scene, goal: EEPose) -> list[np.ndarray]:
    """Collision-free IK solutions for a goal pose, with the package-wide
    deterministic seed convention and ``solve_ik``'s restarts."""
    _check_kind("arm", arm, ArmModel)
    _check_kind("scene", scene, Scene)
    sols = solve_ik(arm, goal, rng_seed=goal_seed(goal))
    if not sols:
        return []
    hit = configs_in_collision(arm, scene, np.array(sols))
    return [q for q, bad in zip(sols, hit) if not bad]


def generate_test_suite(
    scene: Scene,
    arm: ArmModel,
    count: int,
    rng_seed: int,
) -> TestSuite:
    """Rejection-sample feasible test cases for a scene.

    Starts are uniform in the joint limits and kept when collision-free.
    Goals are the tip poses of sampled collision-free goal configurations,
    which makes them kinematically feasible by construction. A case is kept
    only when the goal pose admits a collision-free IK solution under the
    standard seed convention and the RRT baseline solves the query within
    the benchmark's budget (``baselines.RRT_MAX_ITERS``), so every stored
    case is known to have a solution. Raises ValueError when count is not an
    integer >= 1 or rng_seed not an integer >= 0.
    """
    _check_kind("scene", scene, Scene)
    _check_kind("arm", arm, ArmModel)
    count = _check_int("count", count, 1)
    rng_seed = _check_int("rng_seed", rng_seed, 0)    # an int: the suite file's JSON stores no numpy int
    free = _free_configs(scene, arm, np.random.default_rng(rng_seed), arm.dof)
    cases: list[TestCase] = []
    attempt = 0

    while len(cases) < count:
        attempt += 1
        start, goal_q = next(free), next(free)
        _, ee = forward_kinematics(arm, goal_q)
        goal = EEPose(ee.x, ee.y, ee.heading, heading_matters=False)
        goal_cfgs = ik_goal_configs(arm, scene, goal)
        if not goal_cfgs:
            continue
        if rrt_plan(scene, arm, start, goal_cfgs, rrt_seed(rng_seed, attempt)) is None:
            continue
        cid = f"{scene.name}-{rng_seed}-{len(cases):04d}"
        cases.append(TestCase(id=cid, start=tuple(start.tolist()), goal=goal, scene_name=scene.name))
    return TestSuite(scene_name=scene.name, rng_seed=rng_seed, arm=arm, cases=tuple(cases))


# ---------------------------------------------------------------------------
# file formats

def scene_to_dict(scene: Scene) -> dict:
    _check_kind("scene", scene, Scene)
    return {
        "format_version": _SCENE_FORMAT_VERSION,
        "name": scene.name,
        "workspace_bounds": list(scene.workspace_bounds) if scene.workspace_bounds else None,
        "obstacles": [{"vertices": ob.vertices.tolist()} for ob in scene.obstacles],
    }


def scene_from_dict(data: dict) -> Scene:
    if isinstance(data, dict) and data.get("format_version") != _SCENE_FORMAT_VERSION:
        raise ValueError(f"unsupported scene format version {data.get('format_version')!r}")
    bounds = data.get("workspace_bounds") if isinstance(data, dict) else None
    _check_json_layout(data, {**_SCENE_LAYOUT, "workspace_bounds": [_NUMBER] if bounds else type(None)}, "scene")
    if bounds and len(bounds) != 4:
        raise ValueError(f"scene.workspace_bounds has {len(bounds)} numbers, not 4")
    return Scene(
        name=data["name"],
        obstacles=tuple(ConvexShape(ob["vertices"]) for ob in data["obstacles"]),
        workspace_bounds=tuple(bounds) if bounds else None,
    )


def save_scene(scene: Scene, path) -> None:
    Path(path).write_text(json.dumps(scene_to_dict(scene), indent=2, sort_keys=True) + "\n")


def load_scene(path) -> Scene:
    """Read a scene file; any fault in it raises ValueError naming the file:
    not JSON, another format version, keys other than ``scene_to_dict``'s, a
    ``workspace_bounds`` not null or 4 numbers, or an invalid obstacle."""
    try:
        return scene_from_dict(json.loads(Path(path).read_text()))
    except ValueError as exc:
        raise ValueError(f"scene file {path}: {exc}") from None


def suite_to_dict(suite: TestSuite) -> dict:
    if suite.arm.base != DEFAULT_BASE:  # the format stores no base pose
        raise ValueError(f"a suite file holds only arms based at {DEFAULT_BASE}, not {suite.arm.base}")
    return {
        "format_version": _SUITE_FORMAT_VERSION,
        "scene_name": suite.scene_name,
        "rng_seed": suite.rng_seed,
        "arm": {
            "links": [list(l) for l in suite.arm.links],
            "joint_limits": [list(j) for j in suite.arm.joint_limits],
        },
        "cases": [
            {
                "id": c.id,
                "start": list(c.start),
                "goal": {
                    "x": c.goal.x,
                    "y": c.goal.y,
                    "heading": c.goal.heading,
                    "heading_matters": c.goal.heading_matters,
                },
            }
            for c in suite.cases
        ],
    }


def _check_json_layout(value, layout, where: str) -> None:
    """Raise ValueError unless ``value`` is JSON data laid out as ``layout``:
    a dict wants exactly its keys, a one-item list a list of that item, and
    a type or tuple of types a value of that type (a bool is no number)."""
    kind = type(layout) if isinstance(layout, (dict, list)) else layout
    if not isinstance(value, kind) or (type(value) is bool and kind is not bool):
        raise ValueError(f"{where} is {type(value).__name__}, not {getattr(kind, '__name__', 'a number')}")
    if isinstance(layout, dict):
        if set(value) != set(layout):
            raise ValueError(f"{where} has keys {sorted(value)}, not {sorted(layout)}")
        for key, item in layout.items():
            _check_json_layout(value[key], item, f"{where}.{key}")
    elif isinstance(layout, list):
        for i, item in enumerate(value):
            _check_json_layout(item, layout[0], f"{where}[{i}]")


_NUMBER = (int, float)
_SCENE_LAYOUT = {"format_version": int, "name": str, "obstacles": [{"vertices": [[_NUMBER]]}]}
_SUITE_LAYOUT = {
    "format_version": int, "scene_name": str, "rng_seed": int,
    "arm": {"links": [[_NUMBER]], "joint_limits": [[_NUMBER]]},
    "cases": [{"id": str, "start": [_NUMBER], "goal": {
        "x": _NUMBER, "y": _NUMBER, "heading": _NUMBER, "heading_matters": bool}}],
}


def suite_from_dict(data: dict) -> TestSuite:
    if isinstance(data, dict) and data.get("format_version") != _SUITE_FORMAT_VERSION:
        raise ValueError(f"unsupported suite format version {data.get('format_version')!r}")
    _check_json_layout(data, _SUITE_LAYOUT, "suite")
    scene_name = data["scene_name"]
    return TestSuite(
        scene_name=scene_name,
        rng_seed=data["rng_seed"],
        arm=ArmModel(base=DEFAULT_BASE, **data["arm"]),
        cases=tuple(
            TestCase(id=c["id"], start=c["start"], goal=EEPose(**c["goal"]), scene_name=scene_name)
            for c in data["cases"]
        ),
    )


def save_suite(suite: TestSuite, path) -> None:
    Path(path).write_text(json.dumps(suite_to_dict(suite), indent=2, sort_keys=True) + "\n")


def load_suite(path) -> TestSuite:
    """Read a suite file; any fault in it raises ValueError naming the file.
    A suite loads under generation's rules: at least one case and an
    ``rng_seed`` that is an integer >= 0."""
    try:
        return suite_from_dict(json.loads(Path(path).read_text()))
    except ValueError as exc:
        raise ValueError(f"suite file {path}: {exc}") from None
