import numpy as np
import pytest

from domainmix.errors import GraphFormatError, ValidationError
from domainmix.align import AlignedFeatures
from domainmix.graphs import (
    build_domain_graph,
    drop_nodes,
    extract_ego,
    extract_egos,
    load_graph,
)
from domainmix.io import write_edge_list, write_matrix


def random_graph(rng, n, p, dim=4, domain_id=0):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return build_domain_graph(edges, rng.normal(size=(n, dim)), domain_id=domain_id)


def adjacency_sets(edges, n):
    adj = {u: set() for u in range(n)}
    for u, v in edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def bfs_oracle(adj, center, hops):
    """Plain dict-based BFS out to `hops` hops."""
    dist = {center: 0}
    frontier = [center]
    for d in range(1, hops + 1):
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return set(dist)


def test_build_dedupes_and_symmetrizes():
    feats = np.zeros((4, 2))
    g = build_domain_graph([(0, 1), (1, 0), (0, 1), (2, 2), (3, 1)], feats)
    assert g.num_edges == 2
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert g.has_edge(1, 3)
    assert not g.has_edge(2, 2)
    assert not g.has_edge(0, 3)
    np.testing.assert_array_equal(g.neighbors(1), [0, 3])
    assert g.degree(2) == 0


def test_build_rejects_out_of_range_edge():
    with pytest.raises(ValidationError):
        build_domain_graph([(0, 7)], np.zeros((3, 2)))


def test_build_rejects_empty_graph():
    with pytest.raises(ValidationError):
        build_domain_graph([], np.zeros((0, 2)))


def test_edge_array_sorted_unique():
    rng = np.random.default_rng(3)
    g = random_graph(rng, 30, 0.2)
    arr = g.edge_array()
    assert (arr[:, 0] < arr[:, 1]).all()
    as_tuples = [tuple(e) for e in arr]
    assert as_tuples == sorted(set(as_tuples))
    assert len(as_tuples) == g.num_edges


def test_load_graph_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(6, 3))
    write_edge_list(tmp_path / "e.txt", [(0, 1), (1, 2), (4, 5)])
    write_matrix(tmp_path / "x.mdgf", feats)
    g = load_graph(tmp_path / "e.txt", tmp_path / "x.mdgf", domain_id=2)
    assert g.domain_id == 2
    assert g.num_nodes == 6
    assert g.num_edges == 3
    np.testing.assert_array_equal(
        g.features_raw, feats.astype(np.float32).astype(np.float64)
    )


def test_load_graph_edge_past_feature_rows(tmp_path):
    write_edge_list(tmp_path / "e.txt", [(0, 9)])
    write_matrix(tmp_path / "x.mdgf", np.zeros((3, 2)))
    with pytest.raises(GraphFormatError):
        load_graph(tmp_path / "e.txt", tmp_path / "x.mdgf")


def test_ego_zero_hops_is_center_only():
    g = build_domain_graph([(0, 1)], np.arange(6).reshape(3, 2).astype(float))
    ego = extract_ego(g, 1, 0)
    np.testing.assert_array_equal(ego.nodes_global, [1])
    assert ego.center_local == 0
    assert ego.edges.shape == (0, 2)
    np.testing.assert_array_equal(ego.features, [[2.0, 3.0]])


def test_ego_path_graph_by_hand():
    # 0-1-2-3-4 path, center 2, 1 hop -> {1,2,3} with edges (1,2),(2,3)
    g = build_domain_graph([(i, i + 1) for i in range(4)], np.zeros((5, 1)))
    ego = extract_ego(g, 2, 1)
    np.testing.assert_array_equal(ego.nodes_global, [1, 2, 3])
    assert ego.center_local == 1
    assert ego.edge_set() == {(0, 1), (1, 2)}


def test_ego_matches_bfs_oracle():
    # sweep of random (graph, center, hops) triples against a dict BFS
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(2, 40))
        g = random_graph(rng, n, float(rng.uniform(0.02, 0.3)))
        adj = adjacency_sets([tuple(e) for e in g.edge_array()], n)
        center = int(rng.integers(n))
        hops = int(rng.integers(0, 4))
        ego = extract_ego(g, center, hops)
        want_nodes = bfs_oracle(adj, center, hops)
        assert set(int(x) for x in ego.nodes_global) == want_nodes
        # induced edges: both endpoints inside, relabeled by sorted order
        order = sorted(want_nodes)
        local = {gid: i for i, gid in enumerate(order)}
        want_edges = {
            (local[u], local[v])
            for u in want_nodes
            for v in adj[u]
            if v in want_nodes and u < v
        }
        assert ego.edge_set() == want_edges
        assert int(ego.nodes_global[ego.center_local]) == center
        np.testing.assert_array_equal(ego.features, g.features_raw[order])


def test_ego_uses_supplied_features():
    g = build_domain_graph([(0, 1), (1, 2)], np.zeros((3, 2)))
    aligned = np.arange(12.0).reshape(3, 4)
    ego = extract_ego(g, 0, 1, features=aligned)
    np.testing.assert_array_equal(ego.features, aligned[[0, 1]])


def test_ego_center_out_of_range():
    g = build_domain_graph([(0, 1)], np.zeros((2, 1)))
    with pytest.raises(ValidationError):
        extract_ego(g, 5, 1)


def assert_egos_match_one_by_one(graph, centers, hops, features=None):
    """extract_egos over ``centers`` equals extract_ego center by center."""
    got = extract_egos(graph, centers, hops, features)
    assert len(got) == len(centers)
    for ego, center in zip(got, centers):
        want = extract_ego(graph, int(center), hops, features)
        for field in ("nodes_global", "edges", "features"):
            a, b = getattr(ego, field), getattr(want, field)
            assert a.dtype == b.dtype and a.shape == b.shape, field
            np.testing.assert_array_equal(a, b, err_msg=field)
        assert ego.center_local == want.center_local
        assert ego.center_global == want.center_global == int(center)
        assert ego.source_domain == want.source_domain == graph.domain_id


def test_extract_egos_matches_extract_ego_on_random_graphs():
    rng = np.random.default_rng(23)
    for trial in range(40):
        n = int(rng.integers(2, 40))
        g = random_graph(rng, n, float(rng.uniform(0.02, 0.3)), domain_id=trial % 3)
        centers = rng.integers(0, n, size=int(rng.integers(1, 15)))
        for hops in range(4):
            assert_egos_match_one_by_one(g, centers, hops)


def test_extract_egos_isolated_nodes_and_no_edges():
    rng = np.random.default_rng(24)
    empty = build_domain_graph(np.empty((0, 2)), rng.normal(size=(6, 3)))
    assert_egos_match_one_by_one(empty, [5, 0, 3], 2)
    assert all(e.edges.shape == (0, 2) for e in extract_egos(empty, [5, 0, 3], 2))
    # nodes 3 and 6 are isolated next to a path and a triangle
    g = build_domain_graph([(0, 1), (1, 2), (4, 5), (5, 7), (4, 7)], rng.normal(size=(8, 3)))
    assert_egos_match_one_by_one(g, [3, 0, 6, 4, 7, 3], 1)
    assert_egos_match_one_by_one(g, [6, 2], 3)


def test_extract_egos_repeated_and_unsorted_centers():
    rng = np.random.default_rng(25)
    g = random_graph(rng, 30, 0.12, domain_id=2)
    centers = [17, 3, 17, 29, 0, 3, 3, 11]
    for hops in (1, 2):
        assert_egos_match_one_by_one(g, centers, hops)
        egos = extract_egos(g, centers, hops)
        assert [e.center_global for e in egos] == centers
        np.testing.assert_array_equal(egos[0].nodes_global, egos[2].nodes_global)


def test_extract_egos_wrapped_features():
    rng = np.random.default_rng(26)
    g = random_graph(rng, 25, 0.15)
    aligned = AlignedFeatures(0, rng.normal(size=(25, 7)), 7)
    assert_egos_match_one_by_one(g, [4, 20, 4, 9], 2, features=aligned)
    ego = extract_egos(g, [9], 2, features=aligned)[0]
    np.testing.assert_array_equal(ego.features, aligned.matrix[ego.nodes_global])


def test_extract_egos_rejects_bad_center_and_hops():
    g = build_domain_graph([(0, 1), (1, 2)], np.zeros((3, 2)))
    with pytest.raises(ValidationError, match="center 3 out of range"):
        extract_egos(g, [0, 3, 1], 1)
    with pytest.raises(ValidationError, match="center -1 out of range"):
        extract_egos(g, [2, -1], 1)
    with pytest.raises(ValidationError, match="hops must be >= 0"):
        extract_egos(g, [0, 1], -1)
    assert extract_egos(g, [], 2) == []


def test_drop_nodes_keeps_induced_structure():
    rng = np.random.default_rng(7)
    g = random_graph(rng, 40, 0.15)
    g.labels = np.arange(40, dtype=np.int64)
    reduced, kept = drop_nodes(g, 0.5, np.random.default_rng(0))
    assert reduced.num_nodes == 20
    np.testing.assert_array_equal(kept, np.sort(kept))
    np.testing.assert_array_equal(reduced.features_raw, g.features_raw[kept])
    np.testing.assert_array_equal(reduced.labels, g.labels[kept])
    # every surviving edge existed before, and every kept-kept edge survives
    back = {tuple(kept[e] for e in edge) for edge in map(tuple, reduced.edge_array())}
    orig = {tuple(e) for e in g.edge_array()}
    assert back <= orig
    kept_set = set(int(k) for k in kept)
    expect = {e for e in orig if e[0] in kept_set and e[1] in kept_set}
    assert back == expect


def test_drop_nodes_zero_fraction_is_identity():
    rng = np.random.default_rng(9)
    g = random_graph(rng, 15, 0.2)
    reduced, kept = drop_nodes(g, 0.0, np.random.default_rng(1))
    assert len(kept) == 15
    np.testing.assert_array_equal(reduced.edge_array(), g.edge_array())


def test_drop_nodes_never_empties_graph():
    g = build_domain_graph([(0, 1)], np.zeros((2, 1)))
    reduced, kept = drop_nodes(g, 0.99, np.random.default_rng(2))
    assert reduced.num_nodes >= 1


def test_drop_nodes_bad_fraction():
    g = build_domain_graph([(0, 1)], np.zeros((2, 1)))
    with pytest.raises(ValidationError):
        drop_nodes(g, 1.0, np.random.default_rng(0))


def test_a_hat_is_built_once_per_instance(monkeypatch):
    import copy

    import domainmix.graphs as graphs_module

    g = random_graph(np.random.default_rng(5), 25, 0.2)
    fresh = copy.deepcopy(g)
    calls = []
    build = graphs_module.normalized_adjacency
    monkeypatch.setattr(
        graphs_module, "normalized_adjacency", lambda *a: calls.append(1) or build(*a)
    )
    first = g.a_hat
    assert g.a_hat is first
    assert len(calls) == 1
    want = build(g.num_nodes, g.edge_array()).toarray()
    np.testing.assert_array_equal(first.toarray(), want)
    # a copy taken before first use does not share or carry the matrix
    assert "a_hat" not in vars(fresh)
    assert fresh.a_hat is not first
    assert len(calls) == 2


def test_graph_union_matches_each_block():
    from domainmix.graphs import graph_union, normalized_adjacency

    rng = np.random.default_rng(40)
    g = build_domain_graph(
        [(u, v) for u in range(30) for v in range(u + 1, 30) if rng.random() < 0.1],
        rng.normal(size=(30, 4)),
    )
    subs = [extract_ego(g, int(c), int(h)) for c, h in zip(rng.choice(30, 6), (0, 1, 2, 1, 2, 1))]
    union = graph_union(subs)
    assert union.num_graphs == len(subs)
    start = 0
    hidden = rng.normal(size=(union.ax.shape[0], 3))
    for i, sub in enumerate(subs):
        a_hat = normalized_adjacency(sub.num_nodes, sub.edges).toarray()
        rows = slice(start, start + sub.num_nodes)
        np.testing.assert_allclose(union.ax[rows], a_hat @ sub.features, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(
            (union.pool_a @ hidden)[i], (a_hat @ hidden[rows]).mean(axis=0), rtol=1e-12, atol=1e-13
        )
        assert union.pool_a[i, :start].nnz == 0 and union.pool_a[i, rows.stop:].nnz == 0
        start = rows.stop


def set_based_csr(edges, n):
    """The CSR arrays of a DomainGraph, built edge by edge with a set."""
    pairs = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            continue
        if u >= n or v >= n or u < 0 or v < 0:
            raise ValidationError(f"edge ({u}, {v}) out of range for {n} nodes")
        pairs.add((u, v) if u < v else (v, u))
    row_offsets = np.zeros(n + 1, dtype=np.int64)
    col_targets = np.empty(0, dtype=np.int64)
    if pairs:
        half = np.array(sorted(pairs), dtype=np.int64)
        src = np.concatenate([half[:, 0], half[:, 1]])
        dst = np.concatenate([half[:, 1], half[:, 0]])
        order = np.lexsort((dst, src))
        np.add.at(row_offsets, src[order] + 1, 1)
        row_offsets, col_targets = np.cumsum(row_offsets), dst[order]
    return row_offsets, col_targets


@pytest.mark.parametrize(
    "edges, n",
    [
        ([(0, 1), (0, 1), (1, 0), (2, 3), (3, 2), (3, 2)], 5),  # duplicates, both orientations
        ([(1, 1), (0, 2), (2, 2), (2, 0), (4, 4)], 5),  # self-loops
        ([(5, 6), (6, 7)], 9),  # isolated nodes 0-4 and 8
        ([], 3),  # no edges
        (np.empty((0, 2), dtype=np.int64), 1),
        ([(9, 9), (0, 1)], 2),  # an out-of-range self-loop is dropped, as before
    ],
)
def test_build_domain_graph_matches_set_based_builder(edges, n):
    g = build_domain_graph(edges, np.zeros((n, 2)))
    want_offsets, want_targets = set_based_csr(edges, n)
    for got, want in ((g.row_offsets, want_offsets), (g.col_targets, want_targets)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_build_domain_graph_random_edges_match_set_based_builder():
    rng = np.random.default_rng(9)
    for n in (2, 7, 40):
        edges = rng.integers(0, n, size=(5 * n, 2))
        g = build_domain_graph(edges.tolist(), np.zeros((n, 1)))
        want_offsets, want_targets = set_based_csr(edges, n)
        assert g.row_offsets.tobytes() == want_offsets.tobytes()
        assert g.col_targets.tobytes() == want_targets.tobytes()


@pytest.mark.parametrize("bad", [(1, 5), (-1, 2), (2, 7)])
def test_build_domain_graph_names_the_first_bad_edge(bad):
    edges = [(0, 1), (3, 3), bad, (0, 9)]
    with pytest.raises(ValidationError, match=rf"edge \({bad[0]}, {bad[1]}\) out of range for 4"):
        build_domain_graph(edges, np.zeros((4, 2)))


def test_load_graph_names_the_first_edge_past_the_rows_and_the_path(tmp_path):
    write_edge_list(tmp_path / "e.txt", [(0, 1), (2, 3), (1, 2), (4, 0)])
    write_matrix(tmp_path / "x.mdgf", np.zeros((3, 2)))
    with pytest.raises(GraphFormatError) as exc:
        load_graph(tmp_path / "e.txt", tmp_path / "x.mdgf")
    assert "edge (2, 3) references a node >= 3" in str(exc.value)
    assert "e.txt" in str(exc.value)


@pytest.mark.parametrize(
    "values",
    [
        np.random.default_rng(70).integers(0, 500, size=2000),
        np.empty(0, dtype=np.int64),
        np.full(17, 4, dtype=np.int64),
        np.random.default_rng(71).integers(-50, 50, size=300),
        np.random.default_rng(72).integers(0, 9, size=(6, 7)),
        np.random.default_rng(73).integers(0, 90, size=200).astype(np.int32),
    ],
)
def test_unique_ints_matches_np_unique(values):
    from domainmix.graphs import unique_ints

    got, want = unique_ints(values), np.unique(values)
    assert got.dtype == want.dtype == values.dtype
    assert got.shape == want.shape and np.array_equal(got, want)


def test_join_unions_equals_one_union_bit_for_bit():
    from domainmix.graphs import graph_union, join_unions

    rng = np.random.default_rng(74)
    g = build_domain_graph(
        [(u, v) for u in range(40) for v in range(u + 1, 40) if rng.random() < 0.1],
        rng.normal(size=(40, 3)),
    )
    subs = [extract_ego(g, int(c), 2) for c in rng.choice(40, 9)]
    got, want = join_unions(graph_union(subs[:4]), graph_union(subs[4:])), graph_union(subs)
    assert np.array_equal(got.ax, want.ax)
    for part in ("data", "indices", "indptr"):
        a, b = getattr(got.pool_a, part), getattr(want.pool_a, part)
        assert a.dtype == b.dtype and np.array_equal(a, b), part
    assert got.pool_a.shape == want.pool_a.shape
