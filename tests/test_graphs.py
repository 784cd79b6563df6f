import numpy as np
import pytest

from domainmix.errors import GraphFormatError, ValidationError
from domainmix.graphs import build_domain_graph, drop_nodes, extract_ego, load_graph
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
