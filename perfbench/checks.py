"""Output checks: every returned path is judged independently of the
planner that produced it. Each function returns a list of violations."""

from __future__ import annotations

import math

import numpy as np

from armplan import bench, collision, roadmap, robot


def _final_path(planner: str, returns: dict):
    """The path a record with outcome ok stands for."""
    if planner == "roadmap":
        return returns["query"].path
    if planner == "rrt":
        return np.array(returns["rrt_plan"])
    if planner == "roadmap+opt":
        return returns["optimize"].trajectory
    raise ValueError(f"no path source for planner {planner!r}")


def check_paths(arm, scene, cases, results, captured) -> list[str]:
    bad = []
    for i, (case, res) in enumerate(zip(cases, results)):
        rec = res.record
        if rec.outcome != bench.OUTCOME_OK:
            continue
        path = np.asarray(_final_path(rec.planner_id, captured.get(i, {})), dtype=float)
        where = f"case {case.id}"
        if not np.array_equal(path[0], case.start_config):
            bad.append(f"{where}: path does not start at the case start")
        if (path < arm.lower).any() or (path > arm.upper).any():
            bad.append(f"{where}: path leaves the joint limits")
        _, tip = robot.forward_kinematics(arm, path[-1])
        goal = case.goal
        if math.hypot(tip.x - goal.x, tip.y - goal.y) >= robot.IK_POSITION_TOL:
            bad.append(f"{where}: final configuration misses the goal position")
        if goal.heading_matters and abs(math.remainder(tip.heading - goal.heading, 2 * math.pi)) >= robot.IK_HEADING_TOL:
            bad.append(f"{where}: final configuration misses the goal heading")
        if len(path) > 1 and collision.trajectory_in_collision(arm, scene, path)[0]:
            bad.append(f"{where}: path fails trajectory_in_collision")
        if rec.final_length is None or not math.isclose(rec.final_length, bench.path_length(path), rel_tol=1e-12):
            bad.append(f"{where}: recorded final length does not match the path")
    return bad


def _edge(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


def check_requeries(rm: roadmap.Roadmap, results) -> list[str]:
    bad = []
    edges = set(rm.edge_list)
    for res in results:
        if res.requery is None:
            continue
        u, v, blocked, path = res.requery
        where = f"requery {u}->{v}"
        if path is None:
            # None is only correct when every cached alternate uses the edge
            key = _edge(*blocked)
            for alt in roadmap.k_shortest_paths(rm, u, v):
                if all(_edge(a, b) != key for a, b in zip(alt[:-1], alt[1:])):
                    bad.append(f"{where}: returned None although an alternate avoids the blocked edge")
                    break
            continue
        steps = [_edge(a, b) for a, b in zip(path[:-1], path[1:])]
        if path[0] != u or path[-1] != v:
            bad.append(f"{where}: path does not join the pair")
        if any(e not in edges for e in steps):
            bad.append(f"{where}: path uses a pair of nodes that is not an edge")
        if _edge(*blocked) in steps:
            bad.append(f"{where}: path uses the blocked edge")
        length = sum(float(np.linalg.norm(rm.nodes[a] - rm.nodes[b])) for a, b in zip(path[:-1], path[1:]))
        if length < rm.apsp_dist[u, v] - 1e-9:
            bad.append(f"{where}: path is shorter than apsp_dist")
    return bad


def _comparable(res) -> tuple:
    r = res.record
    rq = None if res.requery is None else res.requery[:3] + (
        None if res.requery[3] is None else tuple(res.requery[3]),)
    return (r.case_id, r.scene_name, r.planner_id, r.outcome, r.seed_length, r.final_length, rq)


def check_same_records(timed, traced) -> list[str]:
    """Records of the traced pass must equal the timed pass, timings aside."""
    if len(timed) != len(traced):
        return [f"traced pass ran {len(traced)} cases, timed pass {len(timed)}"]
    return [f"case {a.record.case_id}: traced record differs from timed record"
            for a, b in zip(timed, traced) if _comparable(a) != _comparable(b)]
