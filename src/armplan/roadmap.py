"""Sparse probabilistic roadmap with cached shortest-path and alternate-path queries.

Construction takes its nodes from ``scenarios._free_configs``, the one
rejection sampler (uniform over the four most proximal joints, the others
held at the midpoint of their limits), connects each node to its nearest
neighbors through collision-free straight edges with the windowed edge scan
of ``_connect_knn`` (``_EdgeScan``), which a query runs as a window of one
source (``_first_free_edges``), prunes everything outside the
largest connected component, and caches the all-pairs shortest-path
distances. The build computes every node's clearance bound once, and each
edge check certifies samples from the bounds of its two end nodes as well
as from its own checked samples; a scan sorts only the nearest part of its
candidates until its walk reads past it. A shortest path is read off those
distances by walking from its source towards its target. The ``k_paths`` loopless alternate paths of a
node pair come from scipy's Yen (``scipy.sparse.csgraph.yen``) and are
memoized, which is what edge invalidation falls back on. Every path
search orders paths by length first and, among equal lengths, by the
lexicographically smallest node sequence; scipy returns equal-length
paths in no set order, so ``_yen`` completes each tie group before it
orders it. Yen runs on the subgraph of the nodes that the cached
distances allow on a path no longer than a bound: a node w is on no
u -> v path shorter than ``apsp_dist[u, w] + apsp_dist[v, w]``, so the
subgraph holds every path within the bound, and when its k-th path is
within the bound, its first k paths are the whole graph's, ties included
(``k_shortest_paths`` says how the bound grows until they are).

A saved roadmap (format 3) holds only what the build decided: nodes, edges,
weights, the four ``RoadmapParams`` values, and the scene and arm it is
bound to (a sha256 of the scene's JSON form and the arm's fingerprint). The
path caches are not stored: every ``Roadmap`` rebuilds the APSP distances
from its edges when it is constructed, and memoizes alternate paths again on
demand. Files of formats 1 and 2 are rejected.

A roadmap holds the arm it is bound to, rebuilt once from the fingerprint,
and compares a query's arm with it by value; a query's scene is hashed only
when it is not the scene last matched.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import weakref
import zipfile
import zlib
from dataclasses import dataclass, asdict, fields
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra as _sparse_dijkstra, yen as _sparse_yen

from .collision import (
    DEFAULT_EDGE_INTERP, Scene, _check_free, _clear_or_hit, _coarse_split, _sample_fractions, _segment_flags,
)
from .geometry import Pose2, _vector_length
from .robot import ArmModel, EEPose, _at_goal, _check_int, _check_kind, _is_integer, _read_only, chain_points
from . import scenarios
from .scenarios import _check_json_layout, ik_goal_configs, scene_to_dict

FORMAT_VERSION = 3
SAMPLED_JOINTS = 4

# Edge sample fractions, endpoints included, and their split into the
# samples a segment check makes first and the rest. A segment blocked at a
# coarse sample is also blocked at full density, so a coarse prescreen can
# only reject safely, and a segment free at the coarse samples is free at
# full density when it is free at the rest.
_T_FINE = _sample_fractions(DEFAULT_EDGE_INTERP)
_T_COARSE, _T_REST = (_T_FINE[idx] for idx in _coarse_split(len(_T_FINE)))
# Fewest candidate edges prescreened in one batch.
_CHUNK_MIN = 8
# Nodes whose edge scans ``_connect_knn`` advances together, most samples
# (edges times sample fractions) in one shared segment check, and
# candidates a scan's walk converts to Python ints at a time (also the
# length of the sorted prefix of a build scan's order).
_WINDOW = 32
_CALL_SAMPLES = 2048
_WALK_BLOCK = 64


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


def _scene_sha256(scene: Scene) -> str:
    return hashlib.sha256(json.dumps(scene_to_dict(scene), sort_keys=True).encode()).hexdigest()


def _arm_fingerprint(arm: ArmModel) -> list:
    """``arm.fingerprint()`` in the JSON form a roadmap file stores."""
    return json.loads(json.dumps(arm.fingerprint()))


def _binding(scene: Scene, arm: ArmModel) -> dict:
    """The scene and arm a roadmap belongs to, in the JSON form its file stores."""
    return {
        "scene_name": scene.name,
        "scene_sha256": _scene_sha256(scene),
        "arm_fingerprint": _arm_fingerprint(arm),
    }


class Roadmap:
    """Immutable-after-build roadmap: nodes, weighted edges and path caches,
    bound to the scene and arm it was built for. The APSP distances are
    computed from the edges here, once; a malformed graph raises ValueError
    first. ``nodes``, ``edge_weights`` and the binding are copies of the
    values passed in; the arrays, ``graph``'s CSR arrays, ``apsp_dist`` and
    the tip arrays of ``node_tip_poses`` are read-only, and ``binding``
    returns a fresh copy of the binding. ``arm``, the bound arm, is rebuilt
    from the binding on first use. A pickled copy is built again from the
    same arguments."""

    def __init__(self, nodes, edge_list, edge_weights, params: RoadmapParams, binding: dict):
        self.nodes = _read_only(np.array(nodes, dtype=float))
        self.edge_list = [(int(u), int(v)) for u, v in edge_list]
        self.edge_weights = _read_only(np.array(edge_weights, dtype=float))
        _check_graph(self.nodes, self.edge_list, self.edge_weights)
        self.params = params
        self._binding = json.loads(json.dumps(binding))
        # Yen memo: (u, v) -> its paths
        self._ksp: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        # weak reference to the scene check_binding last matched: a roadmap
        # keeps no scene alive
        self._matched_scene: weakref.ref[Scene] | None = None
        # the edges as a symmetric CSR matrix, the alternate-path searches' graph
        self.graph = _csr_graph(len(self.nodes), self.edge_list, self.edge_weights)
        for a in (self.graph.data, self.graph.indices, self.graph.indptr):
            _read_only(a)
        self.apsp_dist = _read_only(_sparse_dijkstra(self.graph, directed=True))

    def __reduce__(self):
        return Roadmap, (self.nodes, self.edge_list, self.edge_weights, self.params, self._binding)

    @property
    def binding(self) -> dict:
        """A copy of the scene and arm the roadmap is bound to, in the JSON
        form its file stores; editing it changes nothing of the roadmap's."""
        return json.loads(json.dumps(self._binding))

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
        return _walk_to(self.graph, self.apsp_dist[v], u, v)

    @cached_property
    def arm(self) -> ArmModel:
        """The arm the roadmap is bound to, rebuilt from the binding's
        ``arm_fingerprint``. Raises ValueError unless that is the fingerprint
        of an arm with one joint per node angle."""
        fingerprint = self._binding["arm_fingerprint"]
        try:
            x, y, heading, links, joint_limits = fingerprint
            arm = ArmModel(Pose2(x, y, heading), links, joint_limits)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"arm_fingerprint {fingerprint} is not an arm's: {exc}") from None
        if _arm_fingerprint(arm) != fingerprint:
            raise ValueError(f"arm_fingerprint {fingerprint} is not an arm's: the arm it describes "
                             f"has the fingerprint {_arm_fingerprint(arm)}")
        if self.nodes.shape[1] != arm.dof:
            raise ValueError(f"roadmap nodes have {self.nodes.shape[1]} joint angles, not the arm's "
                             f"{arm.dof}; rebuild it for this arm")
        return arm

    @cached_property
    def _node_tips(self) -> tuple[np.ndarray, np.ndarray]:
        origins, headings = chain_points(self.arm, self.nodes)
        return _read_only(origins[:, -1].copy()), _read_only(headings[:, -1].copy())

    def node_tip_poses(self) -> tuple[np.ndarray, np.ndarray]:
        """Tip positions (N, 2) and raw headings (N,) of all nodes for the
        bound arm, computed once; both arrays are read-only."""
        return self._node_tips

    def check_binding(self, scene: Scene, arm: ArmModel) -> None:
        """Raise ValueError unless the roadmap was built for this scene (name,
        bounds and obstacles) and an arm equal to this one. The scene is
        hashed only when it is not the scene this check last matched."""
        _check_kind("scene", scene, Scene)
        _check_kind("arm", arm, ArmModel)
        if self._matched_scene is None or self._matched_scene() is not scene:
            sha, have = _scene_sha256(scene), self._binding
            if sha != have["scene_sha256"]:
                raise ValueError(
                    f"roadmap is for scene {have['scene_name']!r} (sha256 {have['scene_sha256'][:12]}), "
                    f"not {scene.name!r} (sha256 {sha[:12]}); rebuild it for this scene")
            self._matched_scene = weakref.ref(scene)
        if arm != self.arm:
            raise ValueError(f"roadmap is for arm {self._binding['arm_fingerprint']}, "
                             f"not {_arm_fingerprint(arm)}; rebuild it for this arm")


def _check_graph(nodes: np.ndarray, edges: list[tuple[int, int]], weights: np.ndarray) -> None:
    """Raise ValueError unless the nodes are a finite (n, dof) matrix, every
    edge joins two distinct nodes at most once, and each edge has one finite,
    positive weight, so that a shortest-path walk always gets closer to its
    target."""
    if nodes.ndim != 2:
        raise ValueError(f"roadmap nodes must be an (n, dof) matrix, got shape {nodes.shape}")
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
    if not (np.isfinite(weights) & (weights > 0)).all():
        raise ValueError("roadmap edge weights must be finite and positive")


def _sample_nodes(scene: Scene, arm: ArmModel, params: RoadmapParams) -> np.ndarray:
    rng = np.random.default_rng(params.rng_seed)
    free = scenarios._free_configs(scene, arm, rng, min(SAMPLED_JOINTS, arm.dof))
    try:
        return np.array(list(itertools.islice(free, params.n_nodes)))
    except scenarios.GenerationError as exc:
        raise RoadmapBuildError(f"could not sample {params.n_nodes} nodes: {exc}") from None


def _stable_prefix(dist: np.ndarray, count: int) -> np.ndarray:
    """The first entries of ``np.argsort(dist, kind="stable")`` without
    sorting the rest: every index no farther than the ``count``-th nearest
    (all of them when there are fewer), ties kept in index order."""
    kth = min(count, len(dist)) - 1
    near = np.flatnonzero(dist <= np.partition(dist, kth)[kth])
    return near[np.argsort(dist[near], kind="stable")]


class _EdgeScan:
    """The edge scan of one source configuration ``q`` over candidate nodes
    in the order of a numpy row, nearest first, with a memo of the verdicts
    of the edges from ``q`` it has had checked, and where its last walk
    stopped. Given the distances ``dist`` the order is built lazily:
    ``order`` is then a prefix of ``np.argsort(dist, kind="stable")``
    (``_stable_prefix``), extended to the whole argsort when a walk runs
    past it. ``bound`` is the clearance bound of ``q`` when it is a free
    node whose edges may be certified from it, and None otherwise."""

    __slots__ = ("q", "order", "dist", "bound", "memo", "key", "at", "verdicts", "left")

    def __init__(self, q: np.ndarray, order, dist: np.ndarray | None = None, bound: float | None = None):
        self.q, self.order, self.bound = q, np.asarray(order, dtype=np.int32), bound
        self.dist = None if dist is None or len(self.order) == len(dist) else dist
        self.memo: dict[int, bool] = {}
        self.key = None

    def _candidates(self, start: int):
        """The candidates from position ``start`` on as Python ints,
        converted ``_WALK_BLOCK`` at a time, so a walk converts only what it
        reads; passing the end of a prefix sorts the whole order once."""
        while True:
            for at in range(start, len(self.order), _WALK_BLOCK):
                yield from self.order[at:at + _WALK_BLOCK].tolist()
            if self.dist is None:
                return
            start = max(start, len(self.order))
            self.order, self.dist = np.argsort(self.dist, kind="stable").astype(np.int32), None

    def walk(self, need: int, skip=frozenset()) -> tuple[list[tuple[int, bool]], list[int]]:
        """The ``(j, free)`` verdicts of the candidates not in ``skip``, in
        order up to and including the ``need``-th free one, read from the
        memo, and the candidates the scan waits on: none when it reached the
        ``need``-th free edge or ran dry, otherwise the next unchecked
        candidates, the first ``need`` when nothing has been checked yet (a
        dense batch) and ``max(2 * need, _CHUNK_MIN, len(memo))`` later (a
        prescreened one). The memo always covers a prefix of the candidates
        not in ``skip``, so every candidate after the first unchecked one is
        unchecked. The nearest candidates are mostly free, so a prescreen
        would only add a second pass for them, while later ones are mostly
        blocked, and the prescreen drops most of them at 18 of the 102
        samples. A chunk grows with the memo, so a scan that stays deep
        doubles what it has checked each round and reaches its end in
        O(log n) rounds: one that runs dry reads every candidate anyway,
        and one that stops checks at most one chunk past its last verdict.

        ``skip`` may only grow from walk to walk. A walk with the ``need``
        and the size of ``skip`` of the last one goes on from where that one
        stopped; any other starts again from the first candidate, over the
        memo, so it re-checks nothing."""
        key = (need, len(skip))
        if self.key != key:
            self.key, self.at, self.verdicts, self.left = key, 0, [], need
        waiting: list[int] = []
        left = self.left
        if left <= 0:
            return self.verdicts, waiting
        memo, verdicts = self.memo, self.verdicts
        size = 0
        for at, j in enumerate(self._candidates(self.at), self.at):
            if j in skip:
                continue
            if not waiting:
                free = memo.get(j)
                if free is not None:
                    verdicts.append((j, free))
                    left -= free
                    if left == 0:
                        break
                    continue
                self.at = at
                size = max(2 * left, _CHUNK_MIN, len(memo)) if memo else left
            waiting.append(j)
            if len(waiting) == size:
                break
        self.left = left
        if not waiting:
            self.at = len(self.order)
        return verdicts, waiting


def _check_waiting(arm: ArmModel, scene: Scene, nodes: np.ndarray, waiting, bounds: np.ndarray | None = None) -> None:
    """Check the edges the ``(scan, candidates)`` pairs of ``waiting`` wait
    on and add their verdicts to the scans' memos. The edges of every scan
    that has checked nothing yet are checked at full density, and the others
    prescreened on the coarse samples, their survivors then checked on the
    rest; each stage shares its segment checks among the scans, at most
    ``_CALL_SAMPLES`` samples a call. Given the clearance bounds ``bounds``
    of the nodes (all free) and each scan's ``bound``, every edge is also
    certified from the bounds of its two ends (``_segment_flags``). An
    edge's verdict does not depend on the call it is checked in, nor on the
    samples certified."""
    dense, screened = [], []
    for scan, js in waiting:
        (screened if scan.memo else dense).append((scan, js))
    for group, t in ((dense, _T_FINE), (screened, _T_COARSE)):
        if not group:
            continue
        single = len(group) == 1
        counts = [len(w) for _, w in group]
        if single:
            (scan, js), = group
            starts = scan.q                 # broadcast over the edges
        else:
            js = [j for _, scan_js in group for j in scan_js]
            starts = np.repeat(np.array([scan.q for scan, _ in group]), counts, axis=0)
        ends = nodes[js]
        known = None
        if bounds is not None:
            known = np.column_stack([np.repeat([scan.bound for scan, _ in group], counts), bounds[js]])
        free = ~_segments_in_calls(arm, scene, starts, ends, t, known)
        if t is _T_COARSE:
            survivors = free.nonzero()[0]
            if len(survivors):
                free[survivors] = ~_segments_in_calls(
                    arm, scene, starts if single else starts[survivors], ends[survivors], _T_REST,
                    None if known is None else known[survivors])
        free = iter(free.tolist())
        for scan, js in group:
            scan.memo.update(zip(js, free))


def _segments_in_calls(arm: ArmModel, scene: Scene, A: np.ndarray, B: np.ndarray, t: np.ndarray,
                       known: np.ndarray | None = None) -> np.ndarray:
    """``_segment_flags`` of the segments from ``A`` (one start, or one per
    segment) to ``B``, with the endpoint bounds ``known`` (one row per
    segment) when given, in calls of at most ``_CALL_SAMPLES`` samples (at
    least one segment)."""
    per_call = max(1, _CALL_SAMPLES // len(t))
    if len(B) <= per_call:
        return _segment_flags(arm, scene, A, B, t, known)
    A = np.broadcast_to(A, B.shape)
    return np.concatenate([
        _segment_flags(arm, scene, A[s:s + per_call], B[s:s + per_call], t,
                       None if known is None else known[s:s + per_call])
        for s in range(0, len(B), per_call)
    ])


def _first_free_edges(arm: ArmModel, scene: Scene, q, nodes: np.ndarray, candidates, want: int):
    """``(j, free)`` verdicts of the straight edges from ``q`` to ``nodes[j]``
    in ``candidates`` order, up to and including the ``want``-th free one:
    the edge scan of ``_connect_knn`` over a window of one source, with
    nothing to skip. Its first round checks the first ``want`` candidates at
    full density in one batch; each later round prescreens a chunk on the
    coarse samples and checks its survivors on the rest in one batch."""
    scan = _EdgeScan(q, candidates)
    while True:
        verdicts, waiting = scan.walk(want)
        if not waiting:
            return verdicts
        _check_waiting(arm, scene, nodes, [(scan, waiting)])


def _connect_knn(scene: Scene, arm: ArmModel, nodes: np.ndarray, k: int):
    """Connect each node to its k nearest neighbors reachable by a
    collision-free straight edge.

    The edges and weights are those of nodes taking turns in index order,
    each scanning the others nearest first, skipping pairs already decided
    from either side and accepting free edges until its degree reaches k,
    with each edge checked in turn by ``edge_in_collision``.

    The scans of the ``_WINDOW`` nodes from the first uncommitted one on
    advance together. Each round walks every scan over its memo
    (``_EdgeScan.walk``) with the degrees and decided pairs of the nodes
    committed so far, commits the first node while its walk waits on
    nothing, and checks every edge the other walks wait on in shared calls
    (``_check_waiting``). A commit keeps only the verdicts its walk read.
    An edge is checked from the side of the scan that reads it, as in turn:
    the samples ``j + t (i - j)`` can differ from ``i + t (j - i)`` in the
    last bit. When a commit decides a pair a later scan has read, or adds an
    edge to its node, that scan's next walk starts again over its memo and
    re-checks nothing. A scan that stays deep takes chunks that grow with
    its memo, so it runs dry in O(log n) rounds.

    Every node's clearance bound (``collision._clear_or_hit``) is computed
    once, in one batch: the nodes were sampled free. Each edge check takes
    the bounds of its two nodes (``collision._segment_flags``), so its
    ``t = 0`` sample, the start node bit for bit, is not checked again, and
    the other samples near either node are certified without the kernel.
    An edge's verdict does not depend on which samples were certified.

    A scan holds its candidate order as an int32 row: the stable partial
    sort of its first ``_WALK_BLOCK`` candidates (``_stable_prefix``, ties
    in index order), extended to the full stable argsort only when a walk
    passes it. A committed node's scan and decided pairs are dropped; an
    edge's weight is the norm the order was sorted by, made again for the
    accepted neighbours only.
    """
    n = len(nodes)
    degree = [0] * n
    # the candidates the scan of each node not yet committed skips: the node
    # itself and the pairs the scans of committed nodes decided
    decided: dict[int, set[int]] = {}
    edges: list[tuple[int, int]] = []
    weights: list[float] = []
    window: dict[int, _EdgeScan] = {}
    # every node's clearance bound, from one batch: the nodes were sampled free
    bounds = _clear_or_hit(arm, scene._geom, nodes)[1]
    first = 0   # the first node not committed
    while first < n:
        waiting = []
        for i in range(first, min(first + _WINDOW, n)):
            scan = window.get(i)
            if scan is None:
                dist = np.linalg.norm(nodes[i] - nodes, axis=1)
                scan = window[i] = _EdgeScan(nodes[i], _stable_prefix(dist, _WALK_BLOCK), dist, bounds[i])
                decided.setdefault(i, set()).add(i)
            verdicts, wait = scan.walk(k - degree[i], decided[i])
            if wait:
                waiting.append((scan, wait))
            elif i == first:
                accepted = [j for j, free in verdicts if free]
                for j, _ in verdicts:
                    if j > i:
                        decided.setdefault(j, set()).add(i)
                for j in accepted:
                    edges.append(_edge_key(i, j))
                    degree[j] += 1
                degree[i] += len(accepted)
                weights += np.linalg.norm(nodes[i] - nodes[accepted], axis=1).tolist()
                del window[i], decided[i]
                first += 1
        _check_waiting(arm, scene, nodes, waiting, bounds)
    return edges, weights


def _largest_component(n: int, edges: list[tuple[int, int]]) -> np.ndarray:
    """Nodes of the largest connected component. Components are labelled in
    order of their lowest node, so on a tie the lowest-indexed one wins."""
    _, labels = connected_components(_csr_graph(n, edges, np.ones(len(edges))), directed=False)
    return np.flatnonzero(labels == np.argmax(np.bincount(labels)))


def _csr_graph(n: int, edges, weights) -> csr_matrix:
    """Symmetric weighted adjacency, each row's neighbours ascending."""
    us, vs = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    ws = np.asarray(weights, dtype=float)
    graph = csr_matrix((np.concatenate([ws, ws]), (np.r_[us, vs], np.r_[vs, us])), shape=(n, n))
    graph.sort_indices()
    return graph


def _walk_to(graph: csr_matrix, to_dst: np.ndarray, src: int, dst: int) -> list[int]:
    """The lexicographically smallest shortest path from src to dst, given
    each node's distance ``to_dst`` to dst over ``graph``'s edge weights. At
    each node the walk takes the lowest-indexed neighbour on a shortest path.
    src must reach dst.
    """
    indptr, indices, data = graph.indptr, graph.indices, graph.data
    node, path = src, [src]
    while node != dst:
        row = slice(indptr[node], indptr[node + 1])
        node = int(indices[row][np.argmax(to_dst[indices[row]] + data[row] == to_dst[node])])
        path.append(node)
    return path


def build_roadmap(scene: Scene, arm: ArmModel, params: RoadmapParams = RoadmapParams()) -> Roadmap:
    """Build the roadmap for a static scene.

    Sampling, connection, pruning, and the APSP cache are all deterministic
    given (scene, arm, params), and the roadmap is bound to the scene and the
    arm. Alternate-path entries are memoized on demand by
    :func:`k_shortest_paths` rather than precomputed for every pair.
    """
    _check_kind("scene", scene, Scene)
    _check_kind("arm", arm, ArmModel)
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

# Bounds of the alternate-path search: the first bound on the k-th path's
# length, as a multiple of the shortest path's; the factor by which a bound
# that leaves fewer than k paths grows its excess over the shortest path; and
# the relative rounding margin of the node test. They decide how many passes
# a search takes, never its paths.
_FIRST_BOUND = 1.1
_WIDEN = 4.0
_ROUNDING = 1e-9


def _ranked_yen(graph: csr_matrix, src: int, dst: int, k: int) -> list[tuple[float, tuple[int, ...]]]:
    """The first k loopless src -> dst paths by (length, node sequence), as
    (length, path) pairs.

    scipy's Yen returns equal-length paths in no set order, so it is asked
    for m > k paths, m doubling until fewer than m exist or the m-th is
    longer than the k-th: then every path tied with the k-th is among them,
    and sorting them by (length, path) picks the first k.
    """
    if src == dst:
        return [(0.0, (src,))]
    m = k + 1
    while True:
        lengths, pred = _sparse_yen(graph, src, dst, m, return_predecessors=True)
        if len(lengths) < m or lengths[-1] > lengths[k - 1]:
            break
        m *= 2
    paths = []
    for length, row in zip(lengths.tolist(), pred.tolist()):
        path = [dst]
        while path[-1] != src:
            path.append(row[path[-1]])
        paths.append((length, tuple(path[::-1])))
    return sorted(paths)[:k]


def _yen(graph: csr_matrix, src: int, dst: int, k: int) -> list[tuple[int, ...]]:
    """The first k loopless src -> dst paths by (length, node sequence), the
    paths of :func:`_ranked_yen`."""
    return [p for _, p in _ranked_yen(graph, src, dst, k)]


def _induced_subgraph(graph: csr_matrix, keep: np.ndarray) -> csr_matrix:
    """The subgraph of ``graph`` on the ascending node ids ``keep``, node
    ``keep[i]`` numbered i; each row's neighbours stay ascending."""
    indptr, indices = graph.indptr, graph.indices
    starts, counts = indptr[keep], indptr[keep + 1] - indptr[keep]
    # the positions of the kept rows' entries in graph.indices, row by row
    pos = np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)
    number = np.full(graph.shape[0], -1)
    number[keep] = np.arange(len(keep))
    cols = number[indices[pos]]
    inside = cols >= 0
    rows = np.repeat(np.arange(len(keep)), counts)[inside]
    sub_indptr = np.r_[0, np.cumsum(np.bincount(rows, minlength=len(keep)))]
    return csr_matrix((graph.data[pos][inside], cols[inside], sub_indptr), shape=(len(keep), len(keep)))


def _bounded_yen(graph: csr_matrix, apsp: np.ndarray, u: int, v: int, k: int) -> list[tuple[int, ...]]:
    """``_yen(graph, u, v, k)``, run on the subgraphs of the nodes w with
    ``apsp[u, w] + apsp[v, w]`` within a bound that grows from a little above
    the shortest length until the answer is exact (see
    :func:`k_shortest_paths`). ``apsp`` holds ``graph``'s distances."""
    if u == v:
        return [(u,)]
    via = apsp[u] + apsp[v]     # the graph is symmetric: apsp[v, w] is w's distance to v
    shortest = via[u]
    if not np.isfinite(shortest):
        return []
    component = np.count_nonzero(np.isfinite(via))
    bound, kept = shortest * _FIRST_BOUND, 0
    while True:
        keep = np.flatnonzero(via <= bound * (1 + _ROUNDING))
        if len(keep) > kept:    # otherwise the last pass's subgraph and paths stand
            kept, ids = len(keep), keep.tolist()
            src, dst = np.searchsorted(keep, [u, v]).tolist()
            ranked = _ranked_yen(_induced_subgraph(graph, keep), src, dst, k)
            paths = [tuple(ids[i] for i in p) for _, p in ranked]
        if kept == component or len(ranked) == k and ranked[-1][0] <= bound:
            return paths
        bound = ranked[-1][0] if len(ranked) == k else shortest + _WIDEN * (bound - shortest)


def k_shortest_paths(roadmap: Roadmap, u: int, v: int) -> list[list[int]]:
    """Up to ``roadmap.params.k_paths`` loopless node paths from u to v in
    non-decreasing length.

    Results are memoized on the roadmap. Paths are ordered by length, and
    paths of equal length by their node sequences, lexicographically
    smallest first: the paths of :func:`_yen` on ``roadmap.graph``, found on
    a subgraph. A loopless u -> v path no longer than B visits only nodes w
    with ``apsp_dist[u, w] + apsp_dist[v, w] <= B``, so the subgraph of
    those nodes holds every such path. When the subgraph's k-th path is no
    longer than B, every path that ranks before it, ties included, is in the
    subgraph, and the subgraph's first k paths are the graph's; node ids
    keep their order in the subgraph, so equal-length paths keep theirs. A
    longer k-th path bounds the graph's k-th, so one more pass at its length
    is exact, and a subgraph of fewer than k paths widens B, up to the whole
    component of u. B starts a little above ``apsp_dist[u, v]``. A pair
    u == v has the one path ``[u]``. Raises ValueError when u or v is no
    node index.
    """
    roadmap._check_nodes(u, v)
    paths = roadmap._ksp.get((u, v))
    if paths is None:
        paths = roadmap._ksp[(u, v)] = _bounded_yen(roadmap.graph, roadmap.apsp_dist, u, v,
                                                    roadmap.params.k_paths)
    return [list(p) for p in paths]


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
    if len(dist) == 0:
        return None     # a roadmap without nodes
    order = _stable_prefix(dist, _CONNECT_SCAN_LIMIT)[:_CONNECT_SCAN_LIMIT]
    verdicts = _first_free_edges(arm, scene, q, roadmap.nodes, order, 1)
    return int(verdicts[-1][0]) if verdicts and verdicts[-1][1] else None


def query(roadmap: Roadmap, arm: ArmModel, scene: Scene, start, goal: EEPose) -> QueryResult:
    """Plan through the roadmap from a start configuration to a tip-pose goal.

    The goal resolves to candidate configurations through
    :func:`ik_goal_configs`; roadmap nodes whose tip pose already matches the
    goal join the candidate set. Start and each goal candidate connect to the
    nearest node reachable by a collision-free straight edge, and the result
    is start + cached shortest node path + goal for the goal candidate with
    the smallest total length. A goal candidate whose node the start's node
    cannot reach (a roadmap of several components) is skipped; with none
    left the query fails with 'goal_connect'. Raises ValueError when the
    roadmap was built for another scene or arm (``Roadmap.check_binding``),
    or the start is outside the joint limits or in collision. The node tips
    the goal is matched against are the bound arm's, computed once per
    roadmap.
    """
    _check_kind("roadmap", roadmap, Roadmap)
    roadmap.check_binding(scene, arm)
    start = np.asarray(start, dtype=float)
    _check_free(arm, scene, [("start configuration", start)])

    candidates = ik_goal_configs(arm, scene, goal)
    matched = _at_goal(*roadmap.node_tip_poses(), goal)
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

    # (total, goal, its node); a goal node unreachable from s_node totals inf
    best = (np.inf, None, None)
    for lb, gi in bounds:
        if lb >= best[0] - 1e-12:
            break
        g = candidates[gi]
        g_node = _nearest_connectable(roadmap, arm, scene, g, dist[1 + gi])
        if g_node is None:
            continue
        total = start_leg + float(from_s[g_node]) + _vector_length(roadmap.nodes[g_node] - g)
        if total < best[0]:
            best = (total, g, g_node)
    _, g, g_node = best
    if g_node is None:
        return QueryResult(None, failure="goal_connect")
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
    ``_META_LAYOUT``, a malformed graph, an ``arm_fingerprint`` that is no
    arm's, or nodes of another width than that arm's joint count."""
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
        if data["edges"].dtype.kind not in "iu":
            raise ValueError(f"edges must be integers, not {data['edges'].dtype}")
        rm = Roadmap(
            nodes=data["nodes"],
            edge_list=data["edges"].reshape(-1, 2).tolist(),
            edge_weights=data["edge_weights"],
            params=RoadmapParams(**meta["params"]),
            binding=meta["binding"],
        )
        rm.arm  # rebuilt and checked here, so that a bad binding names the file
        return rm
    except ValueError as exc:
        raise ValueError(f"roadmap file {path}: {exc}") from None
