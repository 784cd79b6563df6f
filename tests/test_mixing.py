import math
import warnings

import numpy as np
import pytest

from domainmix.align import AlignedFeatures
from domainmix.boundary import BoundarySet
from domainmix.errors import NoMixablePairsError, ValidationError
from domainmix.graphs import EgoSubgraph, build_domain_graph, extract_ego
from domainmix.mixing import (
    MixBatch,
    build_batch,
    cosine_sim,
    mix_subgraphs,
    sample_intra_pairs,
    select_pairs,
)


def wrap(matrix, domain_id=0):
    matrix = np.asarray(matrix, dtype=np.float64)
    return AlignedFeatures(domain_id, matrix, matrix.shape[1])


def bset(domain_id, ids):
    ids = np.array(sorted(ids), dtype=np.int64)
    return BoundarySet(domain_id, ids, np.ones(len(ids)), False)


def ego(domain, center_global, nodes, edges, feats):
    nodes = np.array(sorted(nodes), dtype=np.int64)
    local = {int(g): i for i, g in enumerate(nodes)}
    pairs = sorted(
        (min(local[u], local[v]), max(local[u], local[v])) for u, v in edges
    )
    return EgoSubgraph(
        source_domain=domain,
        center_global=center_global,
        center_local=local[center_global],
        nodes_global=nodes,
        edges=np.array(pairs, dtype=np.int64).reshape(-1, 2),
        features=np.asarray(feats, dtype=np.float64),
    )


def lattice(rng, shape, span=16, step=8):
    return rng.integers(-span * step, span * step + 1, size=shape) / step


def test_cosine_trivials():
    v = np.array([1.0, 2.0, -3.0])
    assert cosine_sim(v, v) == pytest.approx(1.0)
    assert cosine_sim([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert cosine_sim(v, -v) == pytest.approx(-1.0)
    assert cosine_sim([0.0, 0.0], [1.0, 1.0]) == 0.0
    with pytest.raises(ValidationError):
        cosine_sim([1.0], [1.0, 2.0])


def test_select_pairs_identical_features():
    mats = [np.array([[1.0, 1.0], [5.0, 0.0]]), np.array([[2.0, 2.0], [0.0, 4.0]])]
    sets = [bset(0, [0]), bset(1, [0])]
    pairs = select_pairs(sets, [wrap(m, i) for i, m in enumerate(mats)], 0.5, 1)
    assert len(pairs) == 1
    p = pairs[0]
    assert (p.domain_a, p.node_a, p.domain_b, p.node_b) == (0, 0, 1, 0)
    assert p.similarity == pytest.approx(1.0)


def test_select_pairs_threshold_excludes_everything():
    mats = [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])]
    sets = [bset(0, [0]), bset(1, [0])]
    with pytest.raises(NoMixablePairsError) as exc:
        select_pairs(sets, [wrap(m, i) for i, m in enumerate(mats)], 0.99, 1)
    assert "gamma" in str(exc.value)


def oracle_pairs(id_sets, mats, gamma, n):
    quals = []
    for ka in range(len(mats)):
        for kb in range(ka + 1, len(mats)):
            for i in id_sets[ka]:
                for j in id_sets[kb]:
                    dot = sum(
                        mats[ka][i][t] * mats[kb][j][t]
                        for t in range(len(mats[ka][i]))
                    )
                    na = math.sqrt(sum(v * v for v in mats[ka][i]))
                    nb = math.sqrt(sum(v * v for v in mats[kb][j]))
                    s = 0.0 if na == 0.0 or nb == 0.0 else dot / (na * nb)
                    if s > gamma:
                        quals.append((s, ka, i, kb, j))
    quals.sort(key=lambda q: (-q[0], q[1], q[2], q[3], q[4]))
    return quals[:n]


def test_select_pairs_matches_enumeration_oracle():
    rng = np.random.default_rng(9)
    for trial in range(10):
        mats = [lattice(rng, (10, 5)) for _ in range(3)]
        sets = [bset(k, range(10)) for k in range(3)]
        got = select_pairs(sets, [wrap(m, k) for k, m in enumerate(mats)], 0.3, 10)
        want = oracle_pairs(
            [list(range(10))] * 3, [m.tolist() for m in mats], 0.3, 10
        )
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g.domain_a, g.node_a, g.domain_b, g.node_b) == w[1:], trial
            assert g.similarity == w[0]


def test_select_pairs_shortfall_warns():
    mats = [np.array([[1.0, 0.1]]), np.array([[1.0, 0.05]])]
    sets = [bset(0, [0]), bset(1, [0])]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pairs = select_pairs(sets, [wrap(m, i) for i, m in enumerate(mats)], 0.5, 7)
    assert len(pairs) == 1
    assert any("1 of 7" in str(w.message) for w in caught)


def test_select_pairs_random_modes():
    rng = np.random.default_rng(21)
    mats = [rng.normal(size=(12, 4)) for _ in range(3)]
    aligned = [wrap(m, k) for k, m in enumerate(mats)]
    sets = [bset(k, range(12)) for k in range(3)]
    r1 = select_pairs(sets, aligned, 0.0, 6, rng_seed=5, mode="random")
    r2 = select_pairs(sets, aligned, 0.0, 6, rng_seed=5, mode="random")
    assert [(p.domain_a, p.node_a, p.domain_b, p.node_b) for p in r1] == [
        (p.domain_a, p.node_a, p.domain_b, p.node_b) for p in r2
    ]
    assert all(p.domain_a != p.domain_b for p in r1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        br = select_pairs(sets, aligned, -0.0, 6, rng_seed=5, mode="boundary-random")
    assert all(p.similarity > 0.0 or True for p in br)
    assert len(br) <= 6


def test_select_pairs_bad_mode():
    with pytest.raises(ValidationError):
        select_pairs([], [wrap(np.ones((1, 1))), wrap(np.ones((1, 1)), 1)], 0.5, 1, mode="nope")


def test_intra_quota_exact_division():
    pairs = sample_intra_pairs([range(6)] * 5, 10, 5, rng_seed=1)
    counts = [sum(1 for p in pairs if p.domain_a == k) for k in range(5)]
    assert counts == [2, 2, 2, 2, 2]


def test_intra_quota_remainder():
    pairs = sample_intra_pairs([range(10)] * 3, 10, 3, rng_seed=2)
    counts = [sum(1 for p in pairs if p.domain_a == k) for k in range(3)]
    assert counts == [4, 3, 3]


def test_intra_pairs_distinct_and_deterministic():
    a = sample_intra_pairs([range(8)] * 2, 9, 2, rng_seed=7)
    b = sample_intra_pairs([range(8)] * 2, 9, 2, rng_seed=7)
    key = lambda p: (p.domain_a, p.node_a, p.node_b)
    assert [key(p) for p in a] == [key(p) for p in b]
    assert all(p.node_a != p.node_b for p in a)
    assert len({key(p) for p in a}) == len(a)


def test_intra_pool_too_small_names_domain():
    with pytest.raises(ValidationError) as exc:
        sample_intra_pairs([range(10), [3]], 4, 2, rng_seed=0)
    assert "domain 1" in str(exc.value)


def single_node_ego(domain, feat):
    return ego(domain, 0, [0], [], [feat])


def test_mix_two_single_nodes():
    u, v = np.array([2.0, 0.0]), np.array([0.0, 4.0])
    mixed = mix_subgraphs(single_node_ego(0, u), single_node_ego(1, v), 0.5, num_domains=3)
    assert mixed.num_nodes == 1
    assert mixed.edges.shape == (0, 2)
    np.testing.assert_allclose(mixed.features[0], [1.0, 2.0])
    np.testing.assert_allclose(mixed.mix_label, [0.5, 0.5, 0.0])
    assert mixed.coarse_label == 1


def test_mix_star_hand_count():
    # star(center + 3 leaves) x star(center + 2 leaves), different domains
    a = ego(0, 0, [0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)], np.ones((4, 2)))
    b = ego(1, 0, [0, 1, 2], [(0, 1), (0, 2)], 2 * np.ones((3, 2)))
    mixed = mix_subgraphs(a, b, 0.5, num_domains=2)
    assert mixed.num_nodes == 6
    assert len(mixed.edges) == 5
    assert all(0 in (u, v) for u, v in mixed.edges)
    np.testing.assert_allclose(mixed.features[0], [1.5, 1.5])


def test_mix_label_simplex_and_inter_entries():
    rng = np.random.default_rng(3)
    a = single_node_ego(1, rng.normal(size=3))
    b = single_node_ego(3, rng.normal(size=3))
    for lam in (0.0, 0.25, 0.7, 1.0):
        mixed = mix_subgraphs(a, b, lam, num_domains=5)
        label = mixed.mix_label
        assert label.min() >= 0
        assert abs(label.sum() - 1.0) < 1e-9
        nz = {i: label[i] for i in range(5) if label[i] != 0}
        expect = {}
        if lam > 0:
            expect[1] = lam
        if lam < 1:
            expect[3] = 1.0 - lam
        assert nz == pytest.approx(expect)


def test_mix_intra_label_single_entry():
    a = ego(2, 0, [0, 1], [(0, 1)], np.zeros((2, 2)))
    b = ego(2, 5, [5, 6], [(5, 6)], np.ones((2, 2)))
    mixed = mix_subgraphs(a, b, 0.5, num_domains=4)
    np.testing.assert_allclose(mixed.mix_label, [0, 0, 1.0, 0])
    assert mixed.coarse_label == 0


def test_mix_topology_lambda_invariant():
    rng = np.random.default_rng(5)
    g0 = build_domain_graph(
        [(0, 1), (1, 2), (2, 3), (0, 4)], rng.normal(size=(5, 3)), domain_id=0
    )
    g1 = build_domain_graph(
        [(0, 1), (0, 2), (2, 3)], rng.normal(size=(4, 3)), domain_id=1
    )
    a = extract_ego(g0, 1, 1)
    b = extract_ego(g1, 0, 1)
    ref = mix_subgraphs(a, b, 0.5, num_domains=2)
    for lam in (0.0, 0.3, 1.0):
        other = mix_subgraphs(a, b, lam, num_domains=2)
        assert other.edge_set() == ref.edge_set()
        assert other.num_nodes == ref.num_nodes
        assert other.node_origins == ref.node_origins


def test_mix_center_interpolation_endpoints():
    u, v = np.array([1.0, 2.0]), np.array([-3.0, 5.0])
    a, b = single_node_ego(0, u), single_node_ego(1, v)
    np.testing.assert_allclose(mix_subgraphs(a, b, 1.0, 2).features[0], u)
    np.testing.assert_allclose(mix_subgraphs(a, b, 0.0, 2).features[0], v)


def test_mix_union_edge_bound():
    rng = np.random.default_rng(8)
    g = build_domain_graph(
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)],
        rng.normal(size=(5, 2)),
        domain_id=0,
    )
    a = extract_ego(g, 0, 1)
    b = extract_ego(g, 2, 1)
    mixed = mix_subgraphs(a, b, 0.5, num_domains=1)
    assert len(mixed.edges) <= len(a.edges) + len(b.edges)


def test_mix_intra_shared_nodes_identified_once():
    # path 0-1-2-3: egos at 1 and 2 share {1, 2}; centers fuse, shared leaf
    # nodes fuse, and the 1-2 edge collapses onto the merged center (dropped)
    feats = np.arange(8.0).reshape(4, 2)
    g = build_domain_graph([(0, 1), (1, 2), (2, 3)], feats, domain_id=0)
    a = extract_ego(g, 1, 1)
    b = extract_ego(g, 2, 1)
    mixed = mix_subgraphs(a, b, 0.5, num_domains=1)
    # locals: merged center (1&2 fused), then 0, 3
    assert mixed.num_nodes == 3
    np.testing.assert_allclose(
        mixed.features[0], 0.5 * feats[1] + 0.5 * feats[2]
    )
    assert mixed.edge_set() == {(0, 1), (0, 2)}
    assert mixed.node_origins[0] == (1, 2)


def test_mix_intra_shared_noncenter_uses_sub_a_features():
    g = build_domain_graph(
        [(0, 2), (1, 2)], np.arange(6.0).reshape(3, 2), domain_id=0
    )
    a = extract_ego(g, 0, 1)
    b = extract_ego(g, 1, 1)
    mixed = mix_subgraphs(a, b, 0.5, num_domains=1)
    # node 2 is shared, non-center; feature must come from sub_a's copy
    idx = [i for i, o in enumerate(mixed.node_origins) if o == (2, 2)]
    assert len(idx) == 1
    np.testing.assert_array_equal(mixed.features[idx[0]], [4.0, 5.0])


def test_mix_symmetry_is_isomorphism():
    rng = np.random.default_rng(13)
    g0 = build_domain_graph(
        [(0, 1), (0, 2), (1, 2), (2, 3)], rng.normal(size=(4, 3)), domain_id=0
    )
    g1 = build_domain_graph(
        [(0, 1), (1, 2), (1, 3), (3, 4)], rng.normal(size=(5, 3)), domain_id=1
    )
    a = extract_ego(g0, 2, 1)
    b = extract_ego(g1, 1, 1)
    ab = mix_subgraphs(a, b, 0.5, num_domains=2)
    ba = mix_subgraphs(b, a, 0.5, num_domains=2)
    np.testing.assert_allclose(ab.mix_label, ba.mix_label)
    assert ab.num_nodes == ba.num_nodes
    # explicit isomorphism via the recorded origins: (ga, gb) <-> (gb, ga)
    where_ba = {origin: i for i, origin in enumerate(ba.node_origins)}
    perm = [where_ba[(gb, ga)] for ga, gb in ab.node_origins]
    assert sorted(perm) == list(range(ab.num_nodes))
    mapped = {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in ab.edges}
    assert mapped == ba.edge_set()
    for i, j in enumerate(perm):
        np.testing.assert_allclose(ab.features[i], ba.features[j], atol=1e-12)


def test_mix_dimension_mismatch():
    with pytest.raises(ValidationError):
        mix_subgraphs(
            single_node_ego(0, np.ones(3)), single_node_ego(1, np.ones(4)), 0.5, 2
        )


def test_mix_bad_lambda():
    with pytest.raises(ValidationError):
        mix_subgraphs(
            single_node_ego(0, np.ones(2)), single_node_ego(1, np.ones(2)), 1.5, 2
        )


def make_two_domains(rng):
    graphs = [
        build_domain_graph(
            [(0, 1), (1, 2), (2, 3), (3, 0)], rng.normal(size=(4, 3)), domain_id=k
        )
        for k in range(2)
    ]
    aligned = [wrap(g.features_raw, k) for k, g in enumerate(graphs)]
    return graphs, aligned


def test_build_batch_labels_and_order():
    rng = np.random.default_rng(31)
    graphs, aligned = make_two_domains(rng)
    from domainmix.mixing import NodePair

    inter = [NodePair(0, 1, 1, 2, 0.9)]
    intra = [NodePair(0, 0, 0, 2, float("nan"))]
    batch = build_batch(inter, intra, graphs, aligned, hops=1)
    assert isinstance(batch, MixBatch)
    assert [s.coarse_label for s in batch.subgraphs] == [1, 0]
    for s in batch.subgraphs:
        assert abs(s.mix_label.sum() - 1.0) < 1e-9


def test_build_batch_rejects_zero_hops():
    rng = np.random.default_rng(32)
    graphs, aligned = make_two_domains(rng)
    from domainmix.mixing import NodePair

    with pytest.raises(ValidationError):
        build_batch([NodePair(0, 0, 1, 0, 0.5)], [], graphs, aligned, hops=0)


def test_build_batch_beta_mode_seeded():
    rng = np.random.default_rng(33)
    graphs, aligned = make_two_domains(rng)
    from domainmix.mixing import NodePair

    pairs = [NodePair(0, 0, 1, 1, 0.5), NodePair(0, 2, 1, 3, 0.5)]
    b1 = build_batch(
        pairs, [], graphs, aligned, hops=1, lambda_mode="beta",
        lambda_alpha=0.2, rng=np.random.default_rng(4),
    )
    b2 = build_batch(
        pairs, [], graphs, aligned, hops=1, lambda_mode="beta",
        lambda_alpha=0.2, rng=np.random.default_rng(4),
    )
    lams1 = [s.provenance[4] for s in b1.inter]
    lams2 = [s.provenance[4] for s in b2.inter]
    assert lams1 == lams2
    assert lams1[0] != lams1[1]
    for s in b1.inter:
        assert 0.0 <= s.provenance[4] <= 1.0
        assert abs(s.mix_label.sum() - 1.0) < 1e-9
