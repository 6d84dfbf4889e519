import contextlib
import functools
import heapq
import itertools
import json
import re
import signal
import tracemalloc
import zipfile
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from armplan.collision import config_in_collision, configs_in_collision, edge_in_collision
from armplan.collision import Scene, segments_in_collision
from armplan.robot import ArmModel, EEPose, forward_kinematics
from armplan import roadmap as roadmap_module
from armplan.roadmap import (
    Roadmap, RoadmapBuildError, RoadmapParams, build_roadmap, invalidate_and_requery,
    k_shortest_paths, load_roadmap, query, save_roadmap, _connect_knn, _dijkstra_path,
    _edge_key, _first_free_edges, _largest_component, _nearest_connectable, _sample_nodes, _yen,
)
from armplan.scenarios import build_scene, default_arm, load_scene, save_scene, scene_to_dict
from armplan.seedprep import path_length


def graph_roadmap(n, edges, weights, k_paths=3):
    """Roadmap wrapper around a hand-built weighted graph (graph ops only)."""
    return Roadmap(
        nodes=np.zeros((n, 3)),
        edge_list=[tuple(sorted(e)) for e in edges],
        edge_weights=np.asarray(weights, dtype=float),
        params=RoadmapParams(n_nodes=max(2, n), k_paths=k_paths),
        binding={},
    )


@contextlib.contextmanager
def within_seconds(seconds):
    """Fail with TimeoutError when the block runs longer than ``seconds``."""
    def timeout(signum, frame):
        raise TimeoutError(f"did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def rewrite_roadmap_file(src, dst, drop=(), **edits):
    """Copy a saved roadmap file to ``dst``, leaving out the arrays named in
    ``drop`` and replacing those given in ``edits``."""
    with np.load(src) as data:
        arrays = {name: data[name] for name in data.files if name not in drop}
    arrays.update(edits)
    np.savez(dst, **arrays)


def sequential_connect_knn(scene, arm, nodes, k):
    """Reference connector: the greedy degree-capped scan with one
    ``edge_in_collision`` call per candidate edge, nearest first. Also
    returns how many nodes already had degree k when their turn came."""
    n = len(nodes)
    diffs = nodes[:, None, :] - nodes[None, :, :]
    dist = np.linalg.norm(diffs, axis=2)
    order = np.argsort(dist, axis=1, kind="stable")
    status = {}
    degree = np.zeros(n, dtype=int)
    edges, weights = [], []
    full_at_turn = 0
    for i in range(n):
        full_at_turn += int(degree[i] >= k)
        for j in order[i]:
            if degree[i] >= k:
                break
            j = int(j)
            if j == i:
                continue
            key = _edge_key(i, j)
            if key in status:
                continue
            ok = not edge_in_collision(arm, scene, nodes[i], nodes[j])
            status[key] = ok
            if ok:
                edges.append(key)
                weights.append(float(dist[i, j]))
                degree[i] += 1
                degree[j] += 1
    return edges, weights, full_at_turn


def first_free_walk(arm, scene, q, nodes, candidates, want):
    """Reference scan: one ``edge_in_collision`` call per candidate, in
    order, until the ``want``-th free edge."""
    verdicts, found = [], 0
    for j in candidates:
        free = not edge_in_collision(arm, scene, q, nodes[j])
        verdicts.append((int(j), free))
        found += free
        if found == want:
            break
    return verdicts


def random_free_config(arm, scene, rng):
    while True:
        q = rng.uniform(arm.lower, arm.upper)
        if not config_in_collision(arm, scene, q):
            return q


def floyd_warshall(n, edges, weights):
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for (u, v), w in zip(edges, weights):
        d[u, v] = min(d[u, v], w)
        d[v, u] = min(d[v, u], w)
    for k in range(n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d


def adjacency_lists(n, edges, weights):
    """Per-node (neighbour, weight) lists, neighbours ascending."""
    adj = [[] for _ in range(n)]
    for (u, v), w in zip(edges, weights):
        adj[u].append((v, float(w)))
        adj[v].append((u, float(w)))
    return [sorted(lst) for lst in adj]


def reference_dijkstra_path(adj, src, dst, banned_nodes, banned_edges):
    """Reference spur search: Dijkstra carrying the partial path in the heap,
    so that ties break on the lexicographically smallest node sequence."""
    heap = [(0.0, (src,))]
    done = set()
    while heap:
        d, path = heapq.heappop(heap)
        node = path[-1]
        if node in done:
            continue
        if node == dst:
            return d, list(path)
        done.add(node)
        for nbr, w in adj[node]:
            if nbr in done or nbr in banned_nodes or _edge_key(node, nbr) in banned_edges:
                continue
            heapq.heappush(heap, (d + w, path + (nbr,)))
    return float("inf"), None


def reference_yen(adj, src, dst, k):
    """Reference Yen's algorithm over ``reference_dijkstra_path``."""
    weight = {(a, b): w for a in range(len(adj)) for b, w in adj[a]}
    d0, p0 = reference_dijkstra_path(adj, src, dst, set(), set())
    if p0 is None:
        return []
    paths = [(d0, tuple(p0))]
    candidates, in_candidates, accepted = [], set(), {tuple(p0)}
    while len(paths) < k:
        _, prev = paths[-1]
        root_len = 0.0
        for i in range(len(prev) - 1):
            root = prev[: i + 1]
            banned_edges = {
                _edge_key(p[i], p[i + 1]) for _, p in paths if len(p) > i + 1 and p[: i + 1] == root
            }
            ds, ps = reference_dijkstra_path(adj, prev[i], dst, set(root[:-1]), banned_edges)
            if ps is not None:
                cand = root[:-1] + tuple(ps)
                if cand not in in_candidates and cand not in accepted:
                    heapq.heappush(candidates, (root_len + ds, cand))
                    in_candidates.add(cand)
            root_len += weight[prev[i], prev[i + 1]]
        if not candidates:
            break
        length, best = heapq.heappop(candidates)
        in_candidates.discard(best)
        paths.append((length, best))
        accepted.add(best)
    return [p for _, p in paths]


def reference_next_hop_table(graph, dist):
    """Reference next-hop table: for every pair (u, v), the lowest-indexed
    neighbour of u that minimizes its edge weight plus its distance to v."""
    n = graph.shape[0]
    nxt = np.full((n, n), -1, dtype=np.int32)
    for u in range(n):
        row = slice(graph.indptr[u], graph.indptr[u + 1])
        nbrs, w = graph.indices[row], graph.data[row]
        if len(nbrs):
            nxt[u] = nbrs[np.argmin(w[:, None] + dist[nbrs], axis=0)]
        nxt[u, u] = u
    return nxt


def reference_next_hop_path(nxt, u, v):
    path = [u]
    while path[-1] != v:
        path.append(int(nxt[path[-1], v]))
    return path


def all_simple_paths_sorted(adj, u, v):
    """Exhaustive enumeration of loopless paths sorted by (length, sequence)."""
    out = []

    def dfs(node, seen, path, length):
        if node == v:
            out.append((length, tuple(path)))
            return
        for nbr, w in adj[node]:
            if nbr not in seen:
                seen.add(nbr)
                path.append(nbr)
                dfs(nbr, seen, path, length + w)
                path.pop()
                seen.remove(nbr)

    dfs(u, {u}, [u], 0.0)
    out.sort()
    return out


# ---------------------------------------------------------------------------
# construction

def test_params_validation():
    with pytest.raises(ValueError):
        RoadmapParams(n_nodes=1)
    with pytest.raises(ValueError):
        RoadmapParams(k_paths=0)


@pytest.mark.parametrize("field, bad", [
    ("n_nodes", 10.5), ("n_nodes", 10.0), ("k_neighbors", True), ("k_paths", 2.0),
    ("rng_seed", 1.5), ("rng_seed", False), ("rng_seed", -1),
])
def test_params_reject_non_integers(field, bad):
    # RoadmapParams(n_nodes=10.5) used to be accepted, and its build died
    # with a TypeError; a bool k_neighbors ran as 1; rng_seed=-1 failed only
    # in the build, with numpy's message naming no field
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        RoadmapParams(**{field: bad})


def test_params_store_numpy_integers_as_ints(pole_scene, arm, tmp_path):
    params = RoadmapParams(n_nodes=np.int64(30), k_neighbors=np.int32(4), k_paths=np.uint8(2), rng_seed=np.int16(3))
    assert params == RoadmapParams(n_nodes=30, k_neighbors=4, k_paths=2, rng_seed=3)
    assert all(type(value) is int for value in asdict(params).values())
    save_roadmap(build_roadmap(pole_scene, arm, params), tmp_path / "rm.npz")
    assert load_roadmap(tmp_path / "rm.npz").params == params


def test_node_sampling_stops_at_the_shared_attempt_cap(arm, monkeypatch):
    # a workspace smaller than the first link leaves no free configuration
    cramped = Scene("cramped", (), workspace_bounds=(-0.2, -0.2, 0.2, 0.2))
    checked = []

    def counting(arm_, scene, qs):
        checked.append(len(qs))
        return configs_in_collision(arm_, scene, qs)

    monkeypatch.setattr("armplan.scenarios.MAX_SAMPLE_ATTEMPTS", 3000)
    monkeypatch.setattr("armplan.scenarios.configs_in_collision", counting)
    with within_seconds(5.0):
        with pytest.raises(RoadmapBuildError, match="exceeded 3000 samples .* scene 'cramped'"):
            build_roadmap(cramped, arm, RoadmapParams(n_nodes=10))
    assert checked == [1024, 1024, 952]  # batches of 1024, the last cut at the cap


def test_free_space_build_keeps_every_node(empty_scene, arm):
    rm = build_roadmap(empty_scene, arm, RoadmapParams(n_nodes=50, k_neighbors=5, rng_seed=0))
    assert rm.n_nodes == 50
    # connected: every pairwise distance finite
    assert np.isfinite(rm.apsp_dist).all()


def test_nodes_and_edges_collision_free(small_pole_roadmap, arm, pole_scene):
    rm = small_pole_roadmap
    assert not configs_in_collision(arm, pole_scene, rm.nodes).any()
    for u, v in rm.edge_list:
        assert not edge_in_collision(arm, pole_scene, rm.nodes[u], rm.nodes[v])


def test_edge_weights_are_joint_space_distances(small_pole_roadmap):
    rm = small_pole_roadmap
    for (u, v), w in zip(rm.edge_list, rm.edge_weights):
        assert w == pytest.approx(float(np.linalg.norm(rm.nodes[u] - rm.nodes[v])), abs=1e-12)


def test_apsp_matches_floyd_warshall(small_pole_roadmap):
    rm = small_pole_roadmap
    want = floyd_warshall(rm.n_nodes, rm.edge_list, rm.edge_weights)
    assert np.abs(rm.apsp_dist - want).max() < 1e-9


def test_apsp_table_invariants(small_pole_roadmap):
    rm = small_pole_roadmap
    d = rm.apsp_dist
    assert np.abs(d - d.T).max() < 1e-9
    assert np.abs(np.diag(d)).max() == 0.0
    # triangle inequality over a sample of triples
    rng = np.random.default_rng(0)
    idx = rng.integers(0, rm.n_nodes, size=(200, 3))
    for i, j, k in idx:
        assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


def test_next_hop_reconstruction_matches_distances(small_pole_roadmap):
    rm = small_pole_roadmap
    rng = np.random.default_rng(1)
    for _ in range(100):
        u, v = rng.integers(0, rm.n_nodes, 2)
        path = rm.shortest_node_path(int(u), int(v))
        assert path[0] == u and path[-1] == v
        assert len(path) == len(set(path))
        assert path_length(rm.nodes[path]) == pytest.approx(float(rm.apsp_dist[u, v]), abs=1e-9)


def test_shortest_node_path_matches_next_hop_reference(small_pole_roadmap):
    rm = small_pole_roadmap
    nxt = reference_next_hop_table(rm.graph, rm.apsp_dist)
    for u, v in itertools.product(range(rm.n_nodes), repeat=2):
        assert rm.shortest_node_path(u, v) == reference_next_hop_path(nxt, u, v), (u, v)


def test_shortest_node_path_breaks_ties_like_next_hop_reference():
    # integer weights make length ties common; pairs in different
    # components have no path and are skipped
    rng = np.random.default_rng(23)
    for trial in range(40):
        n = int(rng.integers(3, 10))
        edges, weights = [], []
        for i, j in itertools.combinations(range(n), 2):
            if rng.random() < 0.5:
                edges.append((i, j))
                weights.append(float(rng.integers(1, 4)))
        rm = graph_roadmap(n, edges, weights)
        nxt = reference_next_hop_table(rm.graph, rm.apsp_dist)
        for u, v in itertools.product(range(n), repeat=2):
            if np.isfinite(rm.apsp_dist[u, v]):
                assert rm.shortest_node_path(u, v) == reference_next_hop_path(nxt, u, v), (trial, u, v)


@pytest.mark.parametrize("u,v", [(3, -1), (-1, 3), (0, 60), (65, 0), (2.0, 3), (True, 5)])
def test_node_paths_reject_bad_node_index(u, v):
    rm = graph_roadmap(60, [(i, i + 1) for i in range(59)], np.ones(59))
    with within_seconds(1.0):
        with pytest.raises(ValueError, match=r"is not an integer in 0\.\.59"):
            rm.shortest_node_path(u, v)
        with pytest.raises(ValueError, match=r"is not an integer in 0\.\.59"):
            k_shortest_paths(rm, u, v)
    assert rm.shortest_node_path(np.int64(3), 5) == [3, 4, 5]


def test_shortest_node_path_rejects_disconnected_pair():
    rm = graph_roadmap(4, [(0, 1), (2, 3)], [1.0, 1.0])
    with within_seconds(1.0):
        for u, v in ((0, 3), (3, 0), (1, 2)):
            with pytest.raises(ValueError, match="not reachable"):
                rm.shortest_node_path(u, v)
    assert rm.shortest_node_path(0, 1) == [0, 1]
    assert rm.shortest_node_path(3, 3) == [3]


def test_build_deterministic_and_serialization_roundtrip(pole_scene, arm, tmp_path):
    params = RoadmapParams(n_nodes=60, k_neighbors=6, rng_seed=3)
    a = build_roadmap(pole_scene, arm, params)
    b = build_roadmap(pole_scene, arm, params)
    pa, pb = tmp_path / "a.rm", tmp_path / "b.rm"
    k_shortest_paths(a, 0, min(10, a.n_nodes - 1))  # a memoized entry is not saved
    save_roadmap(a, pa)
    save_roadmap(b, pb)
    assert pa.read_bytes() == pb.read_bytes()
    c = load_roadmap(pa)
    assert np.array_equal(c.nodes, a.nodes)
    assert c.edge_list == a.edge_list
    assert np.array_equal(c.apsp_dist, a.apsp_dist)
    for u, v in itertools.product(range(a.n_nodes), repeat=2):
        assert c.shortest_node_path(u, v) == a.shortest_node_path(u, v)
    rng = np.random.default_rng(8)
    for _ in range(20):
        u, v = (int(x) for x in rng.choice(a.n_nodes, size=2, replace=False))
        assert k_shortest_paths(c, u, v) == k_shortest_paths(a, u, v), (u, v)
    assert k_shortest_paths(c, 0, 10, 5) == k_shortest_paths(a, 0, 10, 5)
    assert c.params == a.params
    assert c.binding == a.binding
    assert c.binding["scene_name"] == "tabletop_pole"


def test_saved_file_holds_no_apsp_tables(small_pole_roadmap, tmp_path):
    k_shortest_paths(small_pole_roadmap, 0, 9)
    save_roadmap(small_pole_roadmap, tmp_path / "rm.npz")
    with zipfile.ZipFile(tmp_path / "rm.npz") as zf:
        names = zf.namelist()
    assert sorted(names) == ["edge_weights.npy", "edges.npy", "meta.npy", "nodes.npy"]
    with np.load(tmp_path / "rm.npz") as data:
        meta = json.loads(bytes(data["meta"]).decode())
    assert meta["params"] == {"n_nodes": 120, "k_neighbors": 8, "k_paths": 3, "rng_seed": 5}


@pytest.mark.parametrize("version", [1, 2])
def test_load_rejects_old_format_version(small_pole_roadmap, tmp_path, version):
    rm = small_pole_roadmap
    params = {**asdict(rm.params), "distal_values": None, "max_sample_attempts": 1_000_000,
              "connect_scan_limit": 50}
    meta = {"format_version": version, "params": params}
    if version == 1:
        meta["scene_name"] = "tabletop_pole"
        tables = {"apsp_dist": rm.apsp_dist,
                  "apsp_next": np.zeros((rm.n_nodes, rm.n_nodes), dtype=np.int32)}
    else:
        meta["binding"] = rm.binding
        tables = {}
    empty = np.zeros(0, dtype=np.int32)
    np.savez(
        tmp_path / "old.npz",
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        nodes=rm.nodes, edges=np.array(rm.edge_list, dtype=np.int32),
        edge_weights=rm.edge_weights, **tables,
        ksp_keys=empty.reshape(0, 2), ksp_kmax=empty, ksp_path_counts=empty,
        ksp_path_lens=empty, ksp_flat=empty,
    )
    with within_seconds(1.0):
        with pytest.raises(ValueError, match=f"format version {version}, not 3; rebuild it"):
            load_roadmap(tmp_path / "old.npz")


@pytest.mark.parametrize("drop", ["meta", "nodes", "edges", "edge_weights"])
def test_load_rejects_file_without_array(small_pole_roadmap, tmp_path, drop):
    save_roadmap(small_pole_roadmap, tmp_path / "rm.npz")
    rewrite_roadmap_file(tmp_path / "rm.npz", tmp_path / "bad.npz", drop=[drop])
    with within_seconds(1.0):
        with pytest.raises(ValueError, match=f"bad.npz has no {drop} array; rebuild it"):
            load_roadmap(tmp_path / "bad.npz")


def _replaced(a, index, value):
    a = a.copy()
    a[index] = value
    return a


# case -> (array edited, edit of that array given the node count, message)
MALFORMED_GRAPHS = {
    "negative_weight": ("edge_weights", lambda w, n: _replaced(w, 5, -1.0), "finite and non-negative"),
    "nan_weight": ("edge_weights", lambda w, n: _replaced(w, 5, np.nan), "finite and non-negative"),
    "inf_weight": ("edge_weights", lambda w, n: _replaced(w, 5, np.inf), "finite and non-negative"),
    "short_weights": ("edge_weights", lambda w, n: w[:-1], "edge weights for"),
    "long_weights": ("edge_weights", lambda w, n: np.r_[w, 1.0], "edge weights for"),
    "inf_node": ("nodes", lambda q, n: _replaced(q, (7, 2), np.inf), "nodes must be finite"),
    "nan_node": ("nodes", lambda q, n: _replaced(q, (7, 2), np.nan), "nodes must be finite"),
    "self_loop": ("edges", lambda e, n: _replaced(e, 3, (0, 0)), "two distinct nodes"),
    "endpoint_past_end": ("edges", lambda e, n: _replaced(e, 3, (0, n)), "two distinct nodes"),
    "negative_endpoint": ("edges", lambda e, n: _replaced(e, 3, (-1, 0)), "two distinct nodes"),
    "duplicate_edge": ("edges", lambda e, n: _replaced(e, 3, e[0, ::-1]), "listed twice"),
}


def write_malformed_roadmap(rm, tmp_path, case):
    """Save ``rm``, then write a copy with one array edited as ``case`` says.
    Returns the copy's path and the message loading it must raise."""
    name, edit, message = MALFORMED_GRAPHS[case]
    save_roadmap(rm, tmp_path / "rm.npz")
    with np.load(tmp_path / "rm.npz") as data:
        bad = edit(data[name], rm.n_nodes)
    rewrite_roadmap_file(tmp_path / "rm.npz", tmp_path / "bad.npz", **{name: bad})
    return tmp_path / "bad.npz", message


def forbid_dijkstra(monkeypatch):
    """scipy's Dijkstra on a negative weight can abort the whole process, so
    a test of a malformed graph must fail before reaching it."""
    def no_dijkstra(*args, **kwargs):
        raise AssertionError("Dijkstra ran on a malformed graph")

    monkeypatch.setattr("armplan.roadmap._sparse_dijkstra", no_dijkstra)


@pytest.mark.parametrize("case", sorted(MALFORMED_GRAPHS))
def test_load_rejects_malformed_graph(small_pole_roadmap, tmp_path, monkeypatch, case):
    path, message = write_malformed_roadmap(small_pole_roadmap, tmp_path, case)
    forbid_dijkstra(monkeypatch)
    with within_seconds(1.0):
        with pytest.raises(ValueError, match=message):
            load_roadmap(path)


@pytest.mark.parametrize("scene_fixture", ["pole_scene", "shelf_scene"])
@pytest.mark.parametrize("n_nodes,k,seed", [(60, 1, 0), (80, 3, 1), (100, 10, 2), (40, 30, 3)])
def test_connect_knn_matches_sequential_reference(request, arm, scene_fixture, n_nodes, k, seed):
    scene = request.getfixturevalue(scene_fixture)
    nodes = _sample_nodes(scene, arm, RoadmapParams(n_nodes=n_nodes, rng_seed=seed))
    want_edges, want_weights, full_at_turn = sequential_connect_knn(scene, arm, nodes, k)
    edges, weights = _connect_knn(scene, arm, nodes, k)
    assert edges == want_edges
    assert np.array_equal(np.array(weights), np.array(want_weights))
    if k <= 3:
        assert full_at_turn > 0  # some nodes are skipped, not scanned
    if k == 30:
        assert min(np.bincount(np.ravel(edges), minlength=n_nodes)) < k  # some scans run dry


def test_connect_knn_memory_is_per_row(unbounded_scene, arm):
    # ranking all neighbours at once (an n x n x K difference tensor) peaks
    # near 80 MB here; ranking one row at a time stays under 2 MB
    nodes = np.random.default_rng(0).uniform(arm.lower, arm.upper, size=(1000, arm.dof))
    tracemalloc.start()
    try:
        edges, _ = _connect_knn(unbounded_scene, arm, nodes, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(edges) >= 1000 * 10 // 2
    assert peak < 16 * 2**20


@functools.lru_cache(maxsize=None)
def scan_setup(scene_name):
    scene = build_scene(scene_name)
    return scene, _sample_nodes(scene, default_arm(), RoadmapParams(n_nodes=60, rng_seed=9))


@pytest.mark.parametrize("scene_name", ["tabletop_pole", "shelf_boxes"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_first_free_edges_matches_sequential_walk(scene_name, data):
    arm = default_arm()
    scene, nodes = scan_setup(scene_name)
    q = random_free_config(arm, scene, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    candidates = data.draw(st.permutations(range(len(nodes))))[:data.draw(st.integers(0, len(nodes)))]
    if data.draw(st.booleans()):  # nearest first, as both callers scan
        candidates.sort(key=lambda j: np.linalg.norm(nodes[j] - q))
    want = data.draw(st.integers(1, 12))
    got = _first_free_edges(arm, scene, q, nodes, candidates, want)
    assert got == first_free_walk(arm, scene, q, nodes, candidates, want)


def test_first_free_edges_checks_a_free_nearest_edge_in_one_call(arm, pole_scene, monkeypatch):
    nodes = _sample_nodes(pole_scene, arm, RoadmapParams(n_nodes=60, rng_seed=9))
    rng = np.random.default_rng(4)
    while True:
        q = random_free_config(arm, pole_scene, rng)
        order = np.argsort(np.linalg.norm(nodes - q, axis=1), kind="stable")
        if not edge_in_collision(arm, pole_scene, q, nodes[order[0]]):
            break
    calls = []

    def counting(*args):
        calls.append(args)
        return segments_in_collision(*args)

    monkeypatch.setattr(roadmap_module, "segments_in_collision", counting)
    assert _first_free_edges(arm, pole_scene, q, nodes, order, 1) == [(order[0], True)]
    assert len(calls) == 1


@pytest.mark.parametrize("n_nodes", [30, 120])
def test_nearest_connectable_scans_the_stable_nearest_order(monkeypatch, n_nodes):
    """The candidates scanned are the first 50 of the stable argsort of the
    distances, ties at the 50th place included."""
    scanned = []

    def record(arm, scene, q, nodes, candidates, want):
        scanned.append(list(candidates))
        return []

    monkeypatch.setattr(roadmap_module, "_first_free_edges", record)
    rm = graph_roadmap(n_nodes, [(i, i + 1) for i in range(n_nodes - 1)], np.ones(n_nodes - 1))
    rng = np.random.default_rng(4)
    for _ in range(50):
        dist = rng.integers(0, 6, size=n_nodes).astype(float)   # many ties
        assert _nearest_connectable(rm, None, None, None, dist) is None
        assert scanned[-1] == np.argsort(dist, kind="stable")[:50].tolist()


def test_nearest_connectable_matches_sequential_reference(arm, pole_scene, shelf_scene):
    nearest_blocked = unconnected = 0
    for scene in (pole_scene, shelf_scene):
        rm = build_roadmap(scene, arm, RoadmapParams(n_nodes=60, k_neighbors=6, rng_seed=8))
        rng = np.random.default_rng(12)
        for _ in range(40):
            q = random_free_config(arm, scene, rng)
            order = np.argsort(np.linalg.norm(rm.nodes - q, axis=1), kind="stable")[:50]
            walk = first_free_walk(arm, scene, q, rm.nodes, order, 1)
            want = walk[-1][0] if walk[-1][1] else None
            dist = np.linalg.norm(rm.nodes - q, axis=1)
            assert _nearest_connectable(rm, arm, scene, q, dist) == want
            nearest_blocked += not walk[0][1]
            unconnected += want is None
    assert nearest_blocked > 0 and unconnected > 0


def test_largest_component_prunes_and_breaks_ties_low():
    # components {0, 1}, {2, 3, 4} and the isolated node 5
    assert _largest_component(6, [(0, 1), (2, 3), (4, 3)]).tolist() == [2, 3, 4]
    # {1, 4, 5} and {0, 2, 3} tie at three nodes; the one holding node 0
    # wins although its edges come last
    edges = [(1, 4), (4, 5), (2, 3), (0, 3)]
    assert _largest_component(7, edges).tolist() == [0, 2, 3]
    assert _largest_component(3, []).tolist() == [0]


# ---------------------------------------------------------------------------
# k shortest paths

def test_ksp_self_pair(small_pole_roadmap):
    assert k_shortest_paths(small_pole_roadmap, 4, 4) == [[4]]


def test_ksp_matches_exhaustive_enumeration():
    rng = np.random.default_rng(5)
    for trial in range(25):
        n = int(rng.integers(4, 9))
        edges = []
        weights = []
        for i, j in itertools.combinations(range(n), 2):
            if rng.random() < 0.45:
                edges.append((i, j))
                # integer weights make length ties common, exercising tie-breaks
                weights.append(float(rng.integers(1, 6)))
        rm = graph_roadmap(n, edges, weights)
        adj = adjacency_lists(n, rm.edge_list, rm.edge_weights)
        u, v = 0, n - 1
        want = all_simple_paths_sorted(adj, u, v)
        for k in (1, 3, 6):
            got = _yen(rm.graph, u, v, k)
            assert [tuple(p) for p in got] == [p for _, p in want[:k]], (trial, k)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_yen_matches_enumeration_for_every_pair(data):
    # integer weights make length ties common; isolated nodes and split
    # components make disconnected pairs, whose enumeration is empty
    n = data.draw(st.integers(2, 6), label="n")
    pairs = list(itertools.combinations(range(n), 2))
    present = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, keep in zip(pairs, present) if keep]
    weights = data.draw(st.lists(st.integers(1, 5), min_size=len(edges), max_size=len(edges)))
    rm = graph_roadmap(n, edges, weights)
    adj = adjacency_lists(n, rm.edge_list, rm.edge_weights)
    for u, v in itertools.product(range(n), repeat=2):
        want = [p for _, p in all_simple_paths_sorted(adj, u, v)]
        for k in range(1, 7):
            assert _yen(rm.graph, u, v, k) == want[:k], (u, v, k)


def test_spur_search_avoids_banned_nodes_and_edges():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(60):
        n = int(rng.integers(4, 9))
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        weights = rng.integers(1, 4, size=len(edges)).astype(float)
        rm = graph_roadmap(n, edges, weights)
        adj = adjacency_lists(n, rm.edge_list, rm.edge_weights)
        src, dst = 0, n - 1
        banned_nodes = {int(x) for x in rng.choice(np.arange(1, n - 1), size=2, replace=False)}
        banned_edges = {rm.edge_list[i] for i in rng.choice(len(edges), size=min(2, len(edges)),
                                                             replace=False)} if edges else set()
        d, p = _dijkstra_path(rm.graph, src, dst, banned_nodes, banned_edges)
        assert (d, p) == reference_dijkstra_path(adj, src, dst, banned_nodes, banned_edges)
        if p is None:
            assert d == float("inf")
            continue
        assert p[0] == src and p[-1] == dst
        assert not banned_nodes & set(p)
        assert not banned_edges & {_edge_key(a, b) for a, b in zip(p[:-1], p[1:])}
        checked += 1
    assert checked > 20
    # 0 -1- 1 -1- 3 is the shortest route; banning node 1 or edge (1, 3)
    # leaves 0 -2- 2 -2- 3, and banning both detours leaves no route
    rm = graph_roadmap(4, [(0, 1), (1, 3), (0, 2), (2, 3)], [1.0, 1.0, 2.0, 2.0])
    assert _dijkstra_path(rm.graph, 0, 3, set(), set()) == (2.0, [0, 1, 3])
    assert _dijkstra_path(rm.graph, 0, 3, {1}, set()) == (4.0, [0, 2, 3])
    assert _dijkstra_path(rm.graph, 0, 3, set(), {(1, 3)}) == (4.0, [0, 2, 3])
    assert _dijkstra_path(rm.graph, 0, 3, {1}, {(0, 2)}) == (float("inf"), None)
    # node 4 has no edges at all
    rm = graph_roadmap(5, [(0, 1), (1, 2)], [1.0, 1.0])
    assert _dijkstra_path(rm.graph, 0, 4, set(), set()) == (float("inf"), None)
    assert _yen(rm.graph, 0, 4, 3) == []


def test_ksp_matches_reference_yen(pole_scene, arm):
    rm = build_roadmap(pole_scene, arm, RoadmapParams(n_nodes=300, rng_seed=4))
    adj = adjacency_lists(rm.n_nodes, rm.edge_list, rm.edge_weights)
    rng = np.random.default_rng(12)
    for _ in range(100):
        u, v = (int(x) for x in rng.choice(rm.n_nodes, size=2, replace=False))
        want = reference_yen(adj, u, v, 5)
        assert k_shortest_paths(rm, u, v, 5) == [list(p) for p in want], (u, v)


def test_ksp_lengths_nondecreasing_and_first_matches_apsp(small_pole_roadmap):
    rm = small_pole_roadmap
    rng = np.random.default_rng(6)
    for _ in range(100):
        u, v = (int(x) for x in rng.integers(0, rm.n_nodes, 2))
        if u == v:
            continue
        paths = k_shortest_paths(rm, u, v, 3)
        lengths = [path_length(rm.nodes[p]) for p in paths]
        assert all(a <= b + 1e-12 for a, b in zip(lengths, lengths[1:]))
        assert all(len(p) == len(set(p)) for p in paths)
        assert lengths[0] == pytest.approx(float(rm.apsp_dist[u, v]), abs=1e-9)


def test_dijkstra_lexicographic_tie_break():
    #   0 -1- 1 -1- 3    two equal-length routes 0-1-3 and 0-2-3
    #   0 -1- 2 -1- 3
    rm = graph_roadmap(4, [(0, 1), (1, 3), (0, 2), (2, 3)], [1.0, 1.0, 1.0, 1.0])
    d, p = _dijkstra_path(rm.graph, 0, 3, set(), set())
    assert d == 2.0 and p == [0, 1, 3]


# ---------------------------------------------------------------------------
# invalidation

def test_invalidate_empty_blocked_set(small_pole_roadmap):
    rm = small_pole_roadmap
    paths = k_shortest_paths(rm, 0, 9)
    assert invalidate_and_requery(rm, set(), 0, 9) == paths[0]


def test_invalidate_falls_back_to_second_path():
    # two edge-disjoint routes: 0-1-3 (len 2) and 0-2-3 (len 3)
    rm = graph_roadmap(4, [(0, 1), (1, 3), (0, 2), (2, 3)], [1.0, 1.0, 1.5, 1.5], k_paths=2)
    first = k_shortest_paths(rm, 0, 3)[0]
    assert first == [0, 1, 3]
    blocked = {(0, 1)}
    assert invalidate_and_requery(rm, blocked, 0, 3) == [0, 2, 3]
    # blocking everything leaves no cached alternative
    assert invalidate_and_requery(rm, {(0, 1), (0, 2)}, 0, 3) is None


def test_invalidate_success_monotone_in_k(small_pole_roadmap):
    rm = small_pole_roadmap
    rng = np.random.default_rng(7)
    edges = rm.edge_list
    successes = {k: 0 for k in (1, 2, 3, 5)}
    for trial in range(40):
        u, v = (int(x) for x in rng.integers(0, rm.n_nodes, 2))
        if u == v:
            continue
        n_block = max(1, len(edges) // 10)
        idx = rng.choice(len(edges), size=n_block, replace=False)
        blocked = {edges[i] for i in idx}
        for k in successes:
            paths = k_shortest_paths(rm, u, v, k)
            ok = any(
                all(tuple(sorted(e)) not in blocked for e in zip(p[:-1], p[1:]))
                for p in paths
            )
            successes[k] += ok
    ks = sorted(successes)
    for a, b in zip(ks, ks[1:]):
        assert successes[a] <= successes[b]


def three_route_roadmap():
    """Six nodes with three equal-length routes from 0 to 2 (through 1, 3
    and 4) and node 5 hanging off node 2."""
    edges = [(0, 1), (1, 2), (0, 3), (3, 2), (0, 4), (4, 2), (2, 5)]
    return graph_roadmap(6, edges, np.ones(len(edges)))


@pytest.mark.parametrize("k_paths", [2.7, 2.0, True, False, "2"])
def test_k_shortest_paths_rejects_non_integer_k(k_paths):
    rm = three_route_roadmap()
    with within_seconds(1.0):
        with pytest.raises(ValueError, match="k_paths must be an integer"):
            k_shortest_paths(rm, 0, 2, k_paths)
    assert k_shortest_paths(rm, 0, 2) == [[0, 1, 2], [0, 3, 2], [0, 4, 2]]
    assert k_shortest_paths(rm, 0, 2, np.int64(2)) == [[0, 1, 2], [0, 3, 2]]


@pytest.mark.parametrize("edge", [(0, 9), (0, 1, 2), (0,), 7, (-1, 0), (0.0, 1), (True, 2)])
def test_invalidate_rejects_malformed_blocked_edge(edge):
    rm = three_route_roadmap()
    with within_seconds(1.0):
        with pytest.raises(ValueError, match=f"blocked edge {re.escape(repr(edge))} is not a pair"):
            invalidate_and_requery(rm, [(1, 2), edge], 0, 2)
    assert invalidate_and_requery(rm, [(1, 2), (np.int64(3), np.int64(0))], 0, 2) == [0, 4, 2]


def test_roadmap_not_mutated_by_invalidate(small_pole_roadmap):
    rm = small_pole_roadmap
    edges_before = list(rm.edge_list)
    nodes_before = rm.nodes.copy()
    invalidate_and_requery(rm, {rm.edge_list[0]}, 0, 5)
    assert rm.edge_list == edges_before
    assert np.array_equal(rm.nodes, nodes_before)


# ---------------------------------------------------------------------------
# query

def test_query_between_node_poses(empty_scene, arm):
    rm = build_roadmap(empty_scene, arm, RoadmapParams(n_nodes=40, k_neighbors=5, rng_seed=2))
    start = rm.nodes[3].copy()
    _, ee = forward_kinematics(arm, rm.nodes[17])
    goal = EEPose(ee.x, ee.y, ee.heading, heading_matters=True)
    res = query(rm, arm, empty_scene, start, goal)
    assert res.ok
    want = rm.shortest_node_path(3, 17)
    assert np.allclose(res.path, rm.nodes[want])


def test_query_unreachable_goal(small_pole_roadmap, arm, pole_scene):
    res = query(small_pole_roadmap, arm, pole_scene, np.zeros(arm.dof), EEPose(10.0, 0.0))
    assert not res.ok and res.failure == "no_ik"


def test_query_rejects_colliding_start(small_pole_roadmap, arm, pole_scene):
    bad = np.array([-1.3, -0.5, -0.4, -0.2])
    assert config_in_collision(arm, pole_scene, bad)
    with pytest.raises(ValueError):
        query(small_pole_roadmap, arm, pole_scene, bad, EEPose(0.5, 0.5))


def test_query_rejects_start_outside_limits(empty_scene, arm):
    rm = build_roadmap(empty_scene, arm, RoadmapParams(n_nodes=40, k_neighbors=5, rng_seed=2))
    _, ee = forward_kinematics(arm, rm.nodes[17])
    goal = EEPose(ee.x, ee.y)
    assert query(rm, arm, empty_scene, rm.nodes[3], goal).ok
    for bad in (2.7, -2.7, np.nan, np.inf):  # joint 1 limits are +-2.53
        start = rm.nodes[3].copy()
        start[1] = bad
        with pytest.raises(ValueError, match="joint limits"):
            query(rm, arm, empty_scene, start, goal)


def _moved_obstacle_scene(scene, tmp_path):
    """The scene under its own name, loaded from JSON with obstacle 1 moved."""
    data = scene_to_dict(scene)
    data["obstacles"][1]["vertices"] = (np.array(data["obstacles"][1]["vertices"]) + [0.05, 0.0]).tolist()
    path = tmp_path / "moved.json"
    path.write_text(json.dumps(data))
    return load_scene(path)


def _node_query(rm, arm):
    _, ee = forward_kinematics(arm, rm.nodes[17])
    return rm.nodes[3].copy(), EEPose(ee.x, ee.y)


def test_query_rejects_same_name_scene_with_moved_obstacle(small_pole_roadmap, arm, pole_scene, tmp_path):
    start, goal = _node_query(small_pole_roadmap, arm)
    save_scene(pole_scene, tmp_path / "same.json")
    assert query(small_pole_roadmap, arm, load_scene(tmp_path / "same.json"), start, goal).ok
    moved = _moved_obstacle_scene(pole_scene, tmp_path)
    assert moved.name == pole_scene.name
    with pytest.raises(ValueError, match="roadmap is for scene 'tabletop_pole'"):
        query(small_pole_roadmap, arm, moved, start, goal)


def test_query_rejects_other_arm(small_pole_roadmap, arm, pole_scene):
    start, goal = _node_query(small_pole_roadmap, arm)
    longer = ArmModel(arm.base, arm.links[:-1] + ((0.25, arm.links[-1][1]),), arm.joint_limits)
    with pytest.raises(ValueError, match="roadmap is for arm"):
        query(small_pole_roadmap, longer, pole_scene, start, goal)


def test_query_paths_validate(small_pole_roadmap, small_pole_suite, arm, pole_scene):
    from armplan.collision import trajectory_in_collision

    n_ok = 0
    for case in small_pole_suite.cases:
        res = query(small_pole_roadmap, arm, pole_scene, case.start_config, case.goal)
        if res.ok:
            n_ok += 1
            flag, _ = trajectory_in_collision(arm, pole_scene, res.path)
            assert not flag
            assert np.allclose(res.path[0], case.start_config)
    assert n_ok >= len(small_pole_suite.cases) // 2
