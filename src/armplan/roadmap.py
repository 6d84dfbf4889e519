"""Sparse probabilistic roadmap with cached shortest-path and alternate-path queries.

Construction takes its nodes from ``scenarios._free_configs``, the one
rejection sampler (uniform over the four most proximal joints, the others
held at the midpoint of their limits), connects each node to its nearest
neighbors through collision-free straight edges with ``_first_free_edges``,
the one edge scan that queries use too, prunes everything outside the
largest connected component, and caches the all-pairs shortest-path
distances. A shortest path is read off those distances by walking from its
source towards its target. Loopless alternate paths between node pairs are
computed with Yen's algorithm and memoized, which is what edge invalidation
falls back on. Every path search orders paths by length first and, among
equal lengths, by the lexicographically smallest node sequence.

A saved roadmap (format 3) holds only what the build decided: nodes, edges,
weights, the four ``RoadmapParams`` values, and the scene and arm it is
bound to (a sha256 of the scene's JSON form and the arm's fingerprint). The
path caches are not stored: every ``Roadmap`` rebuilds the APSP distances
from its edges when it is constructed, and memoizes alternate paths again on
demand. Files of formats 1 and 2 are rejected.
"""

from __future__ import annotations

import hashlib
import heapq
import io
import itertools
import json
import zipfile
import zlib
from dataclasses import dataclass, asdict, fields
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra as _sparse_dijkstra

from .collision import DEFAULT_EDGE_INTERP, Scene, _check_free, _sample_fractions, segments_in_collision
from .geometry import _vector_length, wrap_angles
from .robot import IK_HEADING_TOL, IK_POSITION_TOL, ArmModel, EEPose, _check_int, _is_integer, chain_points
from . import scenarios
from .scenarios import _check_json_layout, ik_goal_configs, scene_to_dict

FORMAT_VERSION = 3
SAMPLED_JOINTS = 4

# Edge sample fractions, endpoints included. The coarse ones are a strict
# subset of the fine ones: a segment blocked at a coarse sample is also
# blocked at full density, so a coarse prescreen can only reject safely,
# and a segment free at the coarse samples is free at full density when it
# is free at the rest.
_T_FINE = _sample_fractions(DEFAULT_EDGE_INTERP)
_COARSE_IDX = list(range(0, DEFAULT_EDGE_INTERP + 2, 6)) + [DEFAULT_EDGE_INTERP + 1]
_T_COARSE = _T_FINE[_COARSE_IDX]
_T_REST = np.delete(_T_FINE, _COARSE_IDX)
# Fewest candidate edges prescreened in one batch.
_CHUNK_MIN = 8


class RoadmapBuildError(RuntimeError):
    """Raised when sampling cannot collect the requested number of nodes."""


@dataclass(frozen=True)
class RoadmapParams:
    n_nodes: int = 1000
    k_neighbors: int = 10
    k_paths: int = 3
    rng_seed: int = 0

    def __post_init__(self):
        for name, least in (("n_nodes", 2), ("k_neighbors", 1), ("k_paths", 1), ("rng_seed", 0)):
            # stored as int: the file's JSON stores no numpy int
            object.__setattr__(self, name, _check_int(name, getattr(self, name), least))


def _edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


def _binding(scene: Scene, arm: ArmModel) -> dict:
    """The scene and arm a roadmap belongs to, in the JSON form its file stores."""
    scene_json = json.dumps(scene_to_dict(scene), sort_keys=True)
    return {
        "scene_name": scene.name,
        "scene_sha256": hashlib.sha256(scene_json.encode()).hexdigest(),
        "arm_fingerprint": json.loads(json.dumps(arm.fingerprint())),
    }


class Roadmap:
    """Immutable-after-build roadmap: nodes, weighted edges and path caches,
    bound to the scene and arm it was built for. The APSP distances are
    computed from the edges here, once; a malformed graph raises ValueError
    first."""

    def __init__(self, nodes, edge_list, edge_weights, params: RoadmapParams, binding: dict):
        self.nodes = np.asarray(nodes, dtype=float)
        self.edge_list = [(int(u), int(v)) for u, v in edge_list]
        self.edge_weights = np.asarray(edge_weights, dtype=float)
        _check_graph(self.nodes, self.edge_list, self.edge_weights)
        self.params = params
        self.binding = binding
        # Yen memo: (u, v) -> (the k it ran for, its paths)
        self._ksp: dict[tuple[int, int], tuple[int, list[tuple[int, ...]]]] = {}
        self._node_ee: tuple[np.ndarray, np.ndarray] | None = None
        # the edges as a symmetric CSR matrix, the alternate-path searches' graph
        self.graph = _csr_graph(len(self.nodes), self.edge_list, self.edge_weights)
        self.apsp_dist = _sparse_dijkstra(self.graph, directed=True)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edge_list)

    def _check_nodes(self, *ids) -> None:
        for node in ids:
            if not _is_integer(node) or not 0 <= node < self.n_nodes:
                raise ValueError(f"node {node!r} is not an integer in 0..{self.n_nodes - 1}")

    def shortest_node_path(self, u: int, v: int) -> list[int]:
        """The lexicographically smallest shortest path from u to v, walked
        over the cached distances from v (the graph is symmetric). Raises
        ValueError when u or v is no node index or v is not reachable from u."""
        self._check_nodes(u, v)
        if not np.isfinite(self.apsp_dist[v, u]):
            raise ValueError(f"node {v} is not reachable from node {u}")
        return _walk_to(self.graph, self.graph.data, self.apsp_dist[v], u, v)[1]

    def node_tip_poses(self, arm: ArmModel) -> tuple[np.ndarray, np.ndarray]:
        """Tip positions (N, 2) and headings (N,) of all nodes for the
        roadmap's own arm, computed once."""
        if self._node_ee is None:
            origins, headings = chain_points(arm, self.nodes)
            self._node_ee = (origins[:, -1].copy(), wrap_angles(headings[:, -1]))
        return self._node_ee

    def check_binding(self, scene: Scene, arm: ArmModel) -> None:
        """Raise ValueError unless the roadmap was built for this scene (name,
        bounds and obstacles) and this arm."""
        want, have = _binding(scene, arm), self.binding
        if want["scene_sha256"] != have["scene_sha256"]:
            raise ValueError(
                f"roadmap is for scene {have['scene_name']!r} (sha256 {have['scene_sha256'][:12]}), "
                f"not {scene.name!r} (sha256 {want['scene_sha256'][:12]}); rebuild it for this scene")
        if want["arm_fingerprint"] != have["arm_fingerprint"]:
            raise ValueError(f"roadmap is for arm {have['arm_fingerprint']}, "
                             f"not {want['arm_fingerprint']}; rebuild it for this arm")


def _check_graph(nodes: np.ndarray, edges: list[tuple[int, int]], weights: np.ndarray) -> None:
    """Raise ValueError unless the nodes are finite, every edge joins two
    distinct nodes at most once, and each edge has one finite, non-negative
    weight."""
    n = len(nodes)
    if not np.isfinite(nodes).all():
        raise ValueError("roadmap nodes must be finite")
    ends = np.array(edges, dtype=np.int64).reshape(-1, 2)
    if ((ends < 0) | (ends >= n)).any() or (ends[:, 0] == ends[:, 1]).any():
        raise ValueError(f"every roadmap edge must join two distinct nodes of 0..{n - 1}")
    if len(np.unique(np.sort(ends, axis=1), axis=0)) != len(ends):
        raise ValueError("a roadmap edge is listed twice")
    if weights.shape != (len(edges),):
        raise ValueError(f"{weights.size} edge weights for {len(edges)} edges")
    if not (np.isfinite(weights) & (weights >= 0)).all():
        raise ValueError("roadmap edge weights must be finite and non-negative")


def _sample_nodes(scene: Scene, arm: ArmModel, params: RoadmapParams) -> np.ndarray:
    rng = np.random.default_rng(params.rng_seed)
    free = scenarios._free_configs(scene, arm, rng, min(SAMPLED_JOINTS, arm.dof))
    try:
        return np.array(list(itertools.islice(free, params.n_nodes)))
    except scenarios.GenerationError as exc:
        raise RoadmapBuildError(f"could not sample {params.n_nodes} nodes: {exc}") from None


def _first_free_edges(arm: ArmModel, scene: Scene, q, nodes: np.ndarray, candidates, want: int):
    """``(j, free)`` verdicts of the straight edges from ``q`` to ``nodes[j]``
    in ``candidates`` order, up to and including the ``want``-th free one.
    The first ``want`` are checked at full density in one batch; each later
    chunk is prescreened on the coarse samples, and its survivors are checked
    on the rest, as many at a time as free edges are still wanted."""
    candidates = iter(candidates)
    chunk = list(itertools.islice(candidates, want))
    if not chunk:
        return []
    free = ~segments_in_collision(arm, scene, q, nodes[chunk], _T_FINE)
    verdicts = list(zip(chunk, free.tolist()))
    need = want - int(free.sum())
    while need > 0 and (chunk := list(itertools.islice(candidates, max(2 * need, _CHUNK_MIN)))):
        free = ~segments_in_collision(arm, scene, q, nodes[chunk], _T_COARSE)
        survivors = np.flatnonzero(free)
        done = found = 0
        while done < len(survivors) and found < need:
            batch = survivors[done:done + need - found]
            free[batch] = ~segments_in_collision(arm, scene, q, nodes[np.take(chunk, batch)], _T_REST)
            found += int(free[batch].sum())
            done += len(batch)
        # survivors left unchecked all lie past the need-th free edge
        cut = int(np.flatnonzero(free)[need - 1]) + 1 if found == need else len(chunk)
        verdicts += zip(chunk[:cut], free[:cut].tolist())
        need -= found
    return verdicts


def _connect_knn(scene: Scene, arm: ArmModel, nodes: np.ndarray, k: int):
    """Connect each node to its k nearest neighbors reachable by a
    collision-free straight edge.

    Nodes take turns in index order. Each scans the others nearest first,
    skips pairs already decided from either side, and accepts free edges
    until its degree reaches k, with the verdicts of
    :func:`_first_free_edges`. Only the verdicts this scan reaches are kept,
    so the edges and weights are those of checking each edge in turn with
    ``edge_in_collision``: a verdict kept beyond that would spare the later
    scan from ``j`` its own check of the edge, whose samples
    ``j + t (i - j)`` can differ from ``i + t (j - i)`` in the last bit.
    """
    n = len(nodes)
    status: dict[tuple[int, int], bool] = {}
    degree = np.zeros(n, dtype=int)
    edges: list[tuple[int, int]] = []
    weights: list[float] = []
    for i in range(n):
        if degree[i] >= k:
            continue
        dist = np.linalg.norm(nodes[i] - nodes, axis=1)
        unknown = (
            j for j in np.argsort(dist, kind="stable").tolist()
            if j != i and _edge_key(i, j) not in status
        )
        for j, free in _first_free_edges(arm, scene, nodes[i], nodes, unknown, k - degree[i]):
            key = _edge_key(i, j)
            status[key] = free
            if free:
                edges.append(key)
                weights.append(float(dist[j]))
                degree[i] += 1
                degree[j] += 1
    return edges, weights


def _largest_component(n: int, edges: list[tuple[int, int]]) -> np.ndarray:
    """Nodes of the largest connected component. Components are labelled in
    order of their lowest node, so on a tie the lowest-indexed one wins."""
    us, vs = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    graph = csr_matrix((np.ones(len(us)), (us, vs)), shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    return np.flatnonzero(labels == np.argmax(np.bincount(labels)))


def _csr_graph(n: int, edges, weights) -> csr_matrix:
    """Symmetric weighted adjacency, each row's neighbours ascending."""
    us, vs = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    ws = np.asarray(weights, dtype=float)
    graph = csr_matrix((np.concatenate([ws, ws]), (np.r_[us, vs], np.r_[vs, us])), shape=(n, n))
    graph.sort_indices()
    return graph


def _walk_to(graph: csr_matrix, data: np.ndarray, to_dst: np.ndarray, src: int, dst: int):
    """(length, node list) of the lexicographically smallest shortest path
    from src to dst, given each node's distance ``to_dst`` to dst over the
    edge weights ``data`` (``graph``'s structure). At each node the walk
    takes the lowest-indexed neighbour on a shortest path, and it sums the
    length forward. src must reach dst.
    """
    indptr, indices = graph.indptr, graph.indices
    node, path, length = src, [src], 0.0
    while node != dst:
        row = slice(indptr[node], indptr[node + 1])
        step = int(np.argmax(to_dst[indices[row]] + data[row] == to_dst[node]))
        length += float(data[row][step])
        node = int(indices[row][step])
        path.append(node)
    return length, path


def build_roadmap(scene: Scene, arm: ArmModel, params: RoadmapParams = RoadmapParams()) -> Roadmap:
    """Build the roadmap for a static scene.

    Sampling, connection, pruning, and the APSP cache are all deterministic
    given (scene, arm, params), and the roadmap is bound to the scene and the
    arm. Alternate-path entries are memoized on demand by
    :func:`k_shortest_paths` rather than precomputed for every pair.
    """
    nodes = _sample_nodes(scene, arm, params)
    edges, weights = _connect_knn(scene, arm, nodes, params.k_neighbors)
    keep = _largest_component(len(nodes), edges)
    remap = np.full(len(nodes), -1)
    remap[keep] = np.arange(len(keep))  # increasing, so each edge stays (low, high)
    ends = remap[np.array(edges, dtype=np.int64).reshape(-1, 2)]
    kept = ends[:, 0] >= 0  # an edge's ends share a component
    return Roadmap(nodes[keep], ends[kept], np.array(weights)[kept], params, _binding(scene, arm))


# ---------------------------------------------------------------------------
# k shortest loopless paths (Yen)

def _edge_index(graph: csr_matrix, a: int, b: int) -> int:
    """Position of edge a -> b in ``graph.data``."""
    lo, hi = graph.indptr[a], graph.indptr[a + 1]
    return int(lo + np.searchsorted(graph.indices[lo:hi], b))


def _dijkstra_path(graph: csr_matrix, src: int, dst: int, banned_nodes: set, banned_edges: set):
    """(length, node list) of the shortest src -> dst path avoiding the banned
    nodes and edges, or (inf, None): distances to dst from one scipy Dijkstra
    run with those rows and edges at inf, then :func:`_walk_to` from src.
    """
    indptr, indices = graph.indptr, graph.indices
    data = graph.data.copy()
    for b in banned_nodes:
        data[indptr[b]:indptr[b + 1]] = np.inf
    for a, b in banned_edges:
        data[[_edge_index(graph, a, b), _edge_index(graph, b, a)]] = np.inf
    to_dst = _sparse_dijkstra(csr_matrix((data, indices, indptr), shape=graph.shape),
                              directed=True, indices=dst)
    to_dst[list(banned_nodes)] = np.inf
    if not np.isfinite(to_dst[src]):
        return float("inf"), None
    return _walk_to(graph, data, to_dst, src, dst)


def _yen(graph: csr_matrix, src: int, dst: int, k: int) -> list[tuple[int, ...]]:
    d0, p0 = _dijkstra_path(graph, src, dst, set(), set())
    if p0 is None:
        return []
    paths: list[tuple[float, tuple[int, ...]]] = [(d0, tuple(p0))]
    candidates: list[tuple[float, tuple[int, ...]]] = []
    in_candidates: set[tuple[int, ...]] = set()
    accepted: set[tuple[int, ...]] = {tuple(p0)}
    while len(paths) < k:
        _, prev = paths[-1]
        root_len = 0.0
        for i in range(len(prev) - 1):
            spur = prev[i]
            root = prev[: i + 1]
            banned_edges = {
                _edge_key(p[i], p[i + 1])
                for _, p in paths
                if len(p) > i + 1 and p[: i + 1] == root
            }
            banned_nodes = set(root[:-1])
            ds, ps = _dijkstra_path(graph, spur, dst, banned_nodes, banned_edges)
            if ps is not None:
                cand = root[:-1] + tuple(ps)
                if cand not in in_candidates and cand not in accepted:
                    heapq.heappush(candidates, (root_len + ds, cand))
                    in_candidates.add(cand)
            root_len += float(graph.data[_edge_index(graph, prev[i], prev[i + 1])])
        if not candidates:
            break
        length, best = heapq.heappop(candidates)
        in_candidates.discard(best)
        paths.append((length, best))
        accepted.add(best)
    return [p for _, p in paths]


def k_shortest_paths(roadmap: Roadmap, u: int, v: int, k_paths: int | None = None) -> list[list[int]]:
    """Up to k loopless node paths from u to v in non-decreasing length.

    Results are memoized on the roadmap. Paths are ordered by length, and
    paths of equal length by their node sequences, lexicographically
    smallest first. Runs Yen's algorithm on ``roadmap.graph``. Raises
    ValueError when ``k_paths`` is not an integer >= 1 (a bool is not one),
    or when u or v is no node index.
    """
    k = roadmap.params.k_paths if k_paths is None else _check_int("k_paths", k_paths, 1)
    roadmap._check_nodes(u, v)
    if u == v:
        return [[u]]
    memo = roadmap._ksp.get((u, v))
    if memo is None or memo[0] < k:
        memo = roadmap._ksp[(u, v)] = (k, _yen(roadmap.graph, u, v, k))
    return [list(p) for p in memo[1][:k]]


def invalidate_and_requery(roadmap: Roadmap, blocked_edges, u: int, v: int) -> list[int] | None:
    """First cached alternate path between two nodes that avoids every blocked
    edge, or None when all cached alternatives are blocked. The roadmap graph
    itself is never modified. Raises ValueError, naming the edge, when a
    blocked edge is not a pair of node indices."""
    blocked = set()
    for edge in blocked_edges:
        try:
            a, b = edge
            roadmap._check_nodes(a, b)
        except (TypeError, ValueError) as err:
            raise ValueError(f"blocked edge {edge!r} is not a pair of node indices: {err}") from None
        blocked.add(_edge_key(int(a), int(b)))
    for path in k_shortest_paths(roadmap, u, v):
        if all(_edge_key(a, b) not in blocked for a, b in zip(path[:-1], path[1:])):
            return path
    return None


# ---------------------------------------------------------------------------
# query

@dataclass(frozen=True)
class QueryResult:
    """Roadmap query outcome. ``failure`` is one of 'no_ik', 'start_connect',
    'goal_connect' when no path was found."""

    path: np.ndarray | None
    failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.path is not None


# Most candidate nodes a start or goal tries to connect to, nearest first.
_CONNECT_SCAN_LIMIT = 50


def _nearest_connectable(roadmap: Roadmap, arm: ArmModel, scene: Scene, q: np.ndarray,
                         dist: np.ndarray) -> int | None:
    """Nearest of the ``_CONNECT_SCAN_LIMIT`` nearest roadmap nodes (joint
    space) joined to ``q`` by a collision-free straight edge; ``dist`` holds
    the joint-space distances from ``q`` to every node."""
    if len(dist) > _CONNECT_SCAN_LIMIT:
        # the stable argsort's first entries without sorting the rest: every
        # node up to the limit-th smallest distance, ties kept in index order
        cut = np.partition(dist, _CONNECT_SCAN_LIMIT - 1)[_CONNECT_SCAN_LIMIT - 1]
        near = np.flatnonzero(dist <= cut)
        order = near[np.argsort(dist[near], kind="stable")][:_CONNECT_SCAN_LIMIT]
    else:
        order = np.argsort(dist, kind="stable")
    verdicts = _first_free_edges(arm, scene, q, roadmap.nodes, order, 1)
    return int(verdicts[-1][0]) if verdicts and verdicts[-1][1] else None


def query(roadmap: Roadmap, arm: ArmModel, scene: Scene, start, goal: EEPose) -> QueryResult:
    """Plan through the roadmap from a start configuration to a tip-pose goal.

    The goal resolves to candidate configurations through
    :func:`ik_goal_configs`; roadmap nodes whose tip pose already matches the
    goal join the candidate set. Start and each goal candidate connect to the
    nearest node reachable by a collision-free straight edge, and the result
    is start + cached shortest node path + goal for the goal candidate with
    the smallest total length. Raises ValueError when the roadmap was built
    for another scene or arm, or the start is outside the joint limits or in
    collision.
    """
    roadmap.check_binding(scene, arm)
    start = np.asarray(start, dtype=float)
    _check_free(arm, scene, [("start configuration", start)])

    candidates = ik_goal_configs(arm, scene, goal)
    tip_pos, tip_heading = roadmap.node_tip_poses(arm)
    pos_err = np.linalg.norm(tip_pos - np.array([goal.x, goal.y])[None, :], axis=1)
    matched = pos_err < IK_POSITION_TOL
    if goal.heading_matters:
        dh = np.abs(wrap_angles(tip_heading - goal.heading))
        matched &= dh < IK_HEADING_TOL
    candidates.extend(roadmap.nodes[i].copy() for i in np.flatnonzero(matched))
    if not candidates:
        return QueryResult(None, failure="no_ik")

    # joint-space distances from the start (row 0) and every goal to every node
    dist = np.linalg.norm(roadmap.nodes - np.array([start, *candidates])[:, None], axis=2)
    s_node = _nearest_connectable(roadmap, arm, scene, start, dist[0])
    if s_node is None:
        return QueryResult(None, failure="start_connect")
    start_leg = _vector_length(start - roadmap.nodes[s_node])

    # every goal connects to its nearest connectable node, which can only be
    # as good as the best node overall: a valid lower bound on each goal's
    # total length, letting the scan stop once no candidate can win
    from_s = roadmap.apsp_dist[s_node]
    bounds = sorted((start_leg + lb, gi) for gi, lb in enumerate((from_s + dist[1:]).min(axis=1).tolist()))

    best = None
    for lb, gi in bounds:
        if best is not None and lb >= best[0] - 1e-12:
            break
        g = candidates[gi]
        g_node = _nearest_connectable(roadmap, arm, scene, g, dist[1 + gi])
        if g_node is None:
            continue
        total = (
            start_leg
            + float(roadmap.apsp_dist[s_node, g_node])
            + _vector_length(roadmap.nodes[g_node] - g)
        )
        if best is None or total < best[0]:
            best = (total, g, g_node)
    if best is None:
        return QueryResult(None, failure="goal_connect")

    _, g, g_node = best
    node_path = roadmap.shortest_node_path(s_node, g_node)
    waypoints = [start] + [roadmap.nodes[i] for i in node_path] + [g]
    deduped = [waypoints[0]]
    for w in waypoints[1:]:
        if _vector_length(w - deduped[-1]) > 1e-12:
            deduped.append(w)
    return QueryResult(np.array(deduped))


# ---------------------------------------------------------------------------
# serialization

def _write_deterministic_zip(path, arrays: dict[str, np.ndarray]) -> None:
    """npz-compatible container with fixed timestamps so identical builds
    produce identical bytes."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
        for name in sorted(arrays):
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.ascontiguousarray(arrays[name]), version=(1, 0))
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_DEFLATED
            info.external_attr = 0o644 << 16
            zf.writestr(info, buf.getvalue())


def save_roadmap(roadmap: Roadmap, path) -> None:
    meta = {
        "format_version": FORMAT_VERSION,
        "binding": roadmap.binding,
        "params": asdict(roadmap.params),
    }
    arrays = {
        "meta": np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8),
        "nodes": roadmap.nodes,
        "edges": np.array(roadmap.edge_list, dtype=np.int32).reshape(-1, 2),
        "edge_weights": roadmap.edge_weights,
    }
    _write_deterministic_zip(Path(path), arrays)


_ARRAYS = ("meta", "nodes", "edges", "edge_weights")
_META_LAYOUT = {"format_version": int, "params": {f.name: int for f in fields(RoadmapParams)},
                "binding": {"scene_name": str, "scene_sha256": str, "arm_fingerprint": list}}


def load_roadmap(path) -> Roadmap:
    """Read a roadmap file. Raises ValueError naming the file when it is no
    intact zip archive of arrays, lacks an array, or has a meta record that
    is not JSON, of another format version or laid out otherwise than
    ``_META_LAYOUT``, or a malformed graph."""
    try:
        with zipfile.ZipFile(Path(path)) as zf:
            data = {name: np.lib.format.read_array(zf.open(name + ".npy"))
                    for name in _ARRAYS if name + ".npy" in zf.namelist()}
    except (ValueError, EOFError, zlib.error, zipfile.BadZipFile) as exc:
        raise ValueError(f"roadmap file {path} is corrupt: {exc}") from None
    missing = [name for name in _ARRAYS if name not in data]
    if missing:
        raise ValueError(f"roadmap file {path} has no {', '.join(missing)} array; "
                         "rebuild it with `armplan roadmap build`")
    try:
        meta = json.loads(bytes(data["meta"]).decode())
        if isinstance(meta, dict) and meta.get("format_version") != FORMAT_VERSION:
            raise ValueError(f"format version {meta.get('format_version')!r}, not {FORMAT_VERSION}; "
                             "rebuild it with `armplan roadmap build`")
        _check_json_layout(meta, _META_LAYOUT, "meta")
        return Roadmap(
            nodes=data["nodes"],
            edge_list=data["edges"].reshape(-1, 2).tolist(),
            edge_weights=data["edge_weights"],
            params=RoadmapParams(**meta["params"]),
            binding=meta["binding"],
        )
    except ValueError as exc:
        raise ValueError(f"roadmap file {path}: {exc}") from None
