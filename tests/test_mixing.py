import math
import sys
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
    assert batch.coarse_labels.tolist() == [1, 0]
    assert batch.union.num_graphs == 2
    for row in batch.mix_labels:
        assert abs(row.sum() - 1.0) < 1e-9


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
    lams1 = [p[4] for p in b1.provenance]
    lams2 = [p[4] for p in b2.provenance]
    assert lams1 == lams2
    assert lams1[0] != lams1[1]
    for lam, row in zip(lams1, b1.mix_labels):
        assert 0.0 <= lam <= 1.0
        assert abs(row.sum() - 1.0) < 1e-9


def test_select_pairs_top_matches_full_sort_with_ties():
    rng = np.random.default_rng(31)
    for trial in range(6):
        # few distinct lattice rows, each repeated, so similarities tie exactly
        mats = []
        for _ in range(3):
            rows = lattice(rng, (4, 5))
            mats.append(rows[rng.integers(0, 4, size=14)])
        ids = [sorted(rng.choice(14, size=9, replace=False).tolist()) for _ in range(3)]
        sets = [bset(k, ids[k]) for k in range(3)]
        for n in (1, 7, 40, 500):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                got = select_pairs(sets, [wrap(m, k) for k, m in enumerate(mats)], 0.1, n)
            full = oracle_pairs(ids, [m.tolist() for m in mats], 0.1, 10**6)
            sims = [q[0] for q in full]
            assert len(set(sims)) < len(sims), "no ties in this instance"
            assert [(p.similarity, p.domain_a, p.node_a, p.domain_b, p.node_b) for p in got] == [
                tuple(q) for q in full[:n]
            ], (trial, n)


def full_sort_top_pairs(sets, mats, gamma, n):
    """boundary-top by the full definition: every qualifying pair, sorted
    by (-similarity, domain_a, node_a, domain_b, node_b), first n kept."""
    from domainmix.mixing import _cosine_matrix

    columns = []
    for ka in range(len(mats)):
        for kb in range(ka + 1, len(mats)):
            ia, ib = sets[ka].node_ids, sets[kb].node_ids
            sims = _cosine_matrix(mats[ka][ia], mats[kb][ib])
            r, c = np.nonzero(sims > gamma)
            columns.append((sims[r, c], np.full(len(r), ka), ia[r], np.full(len(r), kb), ib[c]))
    sim, da, na, db, nb = (np.concatenate(col) for col in zip(*columns))
    order = np.lexsort((nb, db, na, da, -sim))[:n]
    return [(float(sim[i]), int(da[i]), int(na[i]), int(db[i]), int(nb[i])) for i in order], len(sim)


def test_select_pairs_top_keeps_every_tie_at_the_cut():
    rng = np.random.default_rng(35)
    cuts_inside_ties = 0
    for trial in range(4):
        # three distinct directions, each row repeated many times, so whole
        # groups of pairs share the similarity at the cut
        base = lattice(rng, (3, 4))
        mats = [base[rng.integers(0, 3, size=30)] for _ in range(3)]
        sets = [bset(k, rng.choice(30, size=18, replace=False)) for k in range(3)]
        ranked, qualifying = full_sort_top_pairs(sets, mats, 0.05, 10**6)
        for n in (1, 5, 37, 100, 250, 700, 10**4):
            want = ranked[:n]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = select_pairs(sets, [wrap(m, k) for k, m in enumerate(mats)], 0.05, n)
            assert [(p.similarity, p.domain_a, p.node_a, p.domain_b, p.node_b) for p in got] == want
            assert len(caught) == (n > qualifying), (trial, n)
            # the n-th and (n+1)-th best tie: the cut splits a tie group
            cuts_inside_ties += n < qualifying and ranked[n][0] == ranked[n - 1][0]
    assert cuts_inside_ties >= 10


def combinations_reference(pools, n_pairs, num_domains, rng_seed):
    """The enumerate-then-draw definition of sample_intra_pairs."""
    from itertools import combinations

    rng = np.random.default_rng(rng_seed)
    base, extra = divmod(n_pairs, num_domains)
    out = []
    for k in range(num_domains):
        quota = base + (1 if k < extra else 0)
        if quota == 0:
            continue
        all_pairs = list(combinations(sorted(int(i) for i in pools[k]), 2))
        idx = rng.choice(len(all_pairs), size=quota, replace=False)
        out.extend((k, *all_pairs[i]) for i in sorted(idx))
    return out


def test_sample_intra_pairs_matches_combinations_reference():
    from domainmix.mixing import _ENUMERATION_CUTOFF

    rng = np.random.default_rng(32)
    largest = int((1 + math.isqrt(1 + 8 * _ENUMERATION_CUTOFF)) // 2)
    while largest * (largest - 1) // 2 > _ENUMERATION_CUTOFF:
        largest -= 1
    for size in (2, 3, 300, largest):
        # sparse, shuffled node ids: the pool is sorted before unranking
        pool = rng.permutation(rng.choice(10 * size, size=size, replace=False))
        pools = [pool, pool[::-1]]
        total = size * (size - 1) // 2
        for n_pairs in sorted({1, 2, min(2 * total, 50)}):
            for seed in (0, 5):
                got = sample_intra_pairs(pools, n_pairs, 2, rng_seed=seed)
                want = combinations_reference(pools, n_pairs, 2, seed)
                assert [(p.domain_a, p.node_a, p.node_b) for p in got] == want
                assert all(type(p.node_a) is int and type(p.node_b) is int for p in got)


def mix_reference(sub_a, sub_b, lam, num_domains):
    """Node-by-node mixing with dictionaries: (features, edges, origins)."""
    same = sub_a.source_domain == sub_b.source_domain
    ca, cb = sub_a.center_global, sub_b.center_global
    ids_a, ids_b = ({int(g) for g in sub.nodes_global} for sub in (sub_a, sub_b))
    shared = (ids_a & ids_b) - {ca, cb} if same else set()
    feats = [lam * sub_a.features[sub_a.center_local] + (1 - lam) * sub_b.features[sub_b.center_local]]
    origins = [(ca, cb)]
    map_a = {ca: 0, cb: 0} if same else {ca: 0}
    map_b = dict(map_a) if same else {cb: 0}
    for local, g in enumerate(int(x) for x in sub_a.nodes_global):
        if g not in map_a:
            map_a[g] = len(feats)
            if g in shared:
                map_b[g] = map_a[g]
            origins.append((g, g) if g in shared else (g, None))
            feats.append(sub_a.features[local])
    for local, g in enumerate(int(x) for x in sub_b.nodes_global):
        if g not in map_b:
            map_b[g] = len(feats)
            origins.append((None, g))
            feats.append(sub_b.features[local])
    edges = set()
    for mapping, sub in ((map_a, sub_a), (map_b, sub_b)):
        for u, v in sub.edges:
            lu, lv = mapping[int(sub.nodes_global[u])], mapping[int(sub.nodes_global[v])]
            if lu != lv:
                edges.add((min(lu, lv), max(lu, lv)))
    return np.array(feats), sorted(edges), origins


def test_mix_subgraphs_matches_node_by_node_reference():
    rng = np.random.default_rng(33)
    graphs = []
    for k in range(2):
        n = 25
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.12]
        graphs.append(build_domain_graph(edges, rng.normal(size=(n, 3)), domain_id=k))
    checked = 0
    for _ in range(60):
        ka, kb = int(rng.integers(2)), int(rng.integers(2))
        hops = int(rng.integers(1, 3))
        a = extract_ego(graphs[ka], int(rng.integers(25)), hops)
        b = extract_ego(graphs[kb], int(rng.integers(25)), hops)
        lam = float(rng.choice([0.0, 0.3, 0.5, 1.0]))
        mixed = mix_subgraphs(a, b, lam, num_domains=2)
        feats, edges, origins = mix_reference(a, b, lam, 2)
        np.testing.assert_array_equal(mixed.features, feats)
        assert [tuple(e) for e in mixed.edges.tolist()] == edges
        assert mixed.edges.dtype == np.int64 and mixed.edges.shape == (len(edges), 2)
        assert mixed.node_origins == origins
        checked += ka == kb
    assert checked > 10  # same-graph pairs were covered


def test_epoch_batches_extract_each_ego_once(monkeypatch):
    import domainmix.mixing as mixing_module
    from domainmix.config import RunConfig

    rng = np.random.default_rng(34)
    graphs, aligned = [], []
    for k in range(2):
        edges = [(u, v) for u in range(20) for v in range(u + 1, 20) if rng.random() < 0.15]
        feats = rng.normal(size=(20, 4)) + 1.0
        graphs.append(build_domain_graph(edges, feats, domain_id=k))
        aligned.append(wrap(feats, k))
    sets = [bset(k, range(20)) for k in range(2)]
    calls = []
    real = mixing_module.extract_egos

    def counting(graph, centers, hops, features=None):
        calls.extend((graph.domain_id, int(center)) for center in centers)
        return real(graph, centers, hops, features)

    monkeypatch.setattr(mixing_module, "extract_egos", counting)
    cfg = RunConfig(seed=2, pca_dim=4, n_pairs=6, gamma=0.0, intra_pool="all").validate()
    batch = mixing_module.epoch_batches(graphs, aligned, sets, cfg)
    used = set()
    for epoch in range(6):
        for da, ca, db, cb, _ in batch(epoch).provenance:
            used |= {(da, ca), (db, cb)}
    assert sorted(calls) == sorted(used)


def assert_batch_matches_per_pair(batch, graphs, mats, hops):
    """build_batch's arrays equal graph_union over one mix_subgraphs per
    pair, rebuilt from the batch's provenance: bit for bit."""
    from domainmix.graphs import graph_union

    subs = [
        mix_subgraphs(
            extract_ego(graphs[da], ca, hops, mats[da]),
            extract_ego(graphs[db], cb, hops, mats[db]),
            lam,
            num_domains=len(graphs),
        )
        for da, ca, db, cb, lam in batch.provenance
    ]
    want = graph_union(subs)
    assert np.array_equal(batch.union.ax, want.ax)
    for part in ("data", "indices", "indptr"):
        got, ref = getattr(batch.union.pool_a, part), getattr(want.pool_a, part)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), part
    assert batch.coarse_labels.tolist() == [s.coarse_label for s in subs]
    assert np.array_equal(batch.mix_labels, np.array([s.mix_label for s in subs]))
    assert batch.num_nodes.tolist() == [s.num_nodes for s in subs]
    assert batch.num_edges.tolist() == [len(s.edges) for s in subs]
    return subs


@pytest.mark.parametrize(
    "spec_kw, cfg_kw",
    [
        # the acceptance ablation config: boundary-top pairs, fixed lambda
        (
            dict(K=3, nodes_per_domain=300, boundary_cluster_fraction=0.3,
                 interior_class_scale=0.3, target_domain_noise=2.0),
            dict(pca_dim=16, n_pairs=20, gamma=0.3, rho=0.3, intra_pool="boundary"),
        ),
        # random pairs over all nodes, beta lambda
        (
            dict(K=3, nodes_per_domain=300, boundary_cluster_fraction=0.3),
            dict(pca_dim=16, n_pairs=20, gamma=0.3, rho=0.3, pair_mode="random",
                 lambda_mode="beta"),
        ),
        # 2-hop egos on four thinned domains
        (
            dict(K=4, nodes_per_domain=400, feature_dim=32, intra_edge_prob=0.04,
                 inter_block_prob=0.004),
            dict(pca_dim=16, n_pairs=24, gamma=0.3, rho=0.3, hops=2, lambda_mode="beta"),
        ),
    ],
)
def test_epoch_batches_match_per_pair_mixing(spec_kw, cfg_kw):
    from domainmix.config import RunConfig
    from domainmix.mixing import epoch_batches
    from domainmix.pipeline import prepare
    from domainmix.seeding import sub_seed
    from domainmix.synth import SynthSpec, make_synth

    for seed in range(3):
        graphs, _, _ = make_synth(SynthSpec(**spec_kw), seed)
        cfg = RunConfig(seed=seed, **cfg_kw).validate()
        aligned, _, bsets = prepare(graphs, cfg)
        mats = [a.matrix for a in aligned]
        batch = epoch_batches(graphs, aligned, bsets, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inter = select_pairs(bsets, aligned, cfg.gamma, cfg.n_pairs,
                                 rng_seed=sub_seed(seed, "inter-pairs"), mode=cfg.pair_mode)
        pools = (
            [b.node_ids for b in bsets] if cfg.intra_pool == "boundary"
            else [np.arange(g.num_nodes) for g in graphs]
        )

        def draws(n, name):
            # one beta draw per pair, under the draw's own sub-seed
            rng = np.random.default_rng(sub_seed(seed, name))
            if cfg.lambda_mode == "fixed":
                return [0.5] * n
            return [float(rng.beta(cfg.lambda_alpha, cfg.lambda_alpha)) for _ in range(n)]

        inter_lams = draws(len(inter), "lambda-inter")
        for epoch in range(0, 12, 3):
            got = batch(epoch)
            intra = sample_intra_pairs(pools, cfg.n_pairs, len(graphs),
                                       rng_seed=sub_seed(seed, f"intra-pairs-epoch-{epoch}"))
            lams = inter_lams + draws(len(intra), f"lambda-epoch-{epoch}")
            assert got.provenance == [
                (p.domain_a, p.node_a, p.domain_b, p.node_b, lam)
                for p, lam in zip(inter + intra, lams)
            ]
            assert_batch_matches_per_pair(got, graphs, mats, cfg.hops)


def test_build_batch_matches_per_pair_on_random_pairs():
    from domainmix.mixing import NodePair

    rng = np.random.default_rng(35)
    graphs, mats = [], []
    for k in range(2):
        n = 25
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.12]
        graphs.append(build_domain_graph(edges, rng.normal(size=(n, 3)), domain_id=k))
        mats.append(graphs[k].features_raw)
    aligned = [wrap(m, k) for k, m in enumerate(mats)]
    for hops in (1, 2):
        pairs = []
        for _ in range(60):
            ka, kb = int(rng.integers(2)), int(rng.integers(2))
            pairs.append(NodePair(ka, int(rng.integers(25)), kb, int(rng.integers(25)), 0.0))
        # same-graph pairs whose centers are adjacent
        for u, v in graphs[0].edge_array()[:5]:
            pairs.append(NodePair(0, int(u), 0, int(v), 0.0))
        batch = build_batch(pairs, [], graphs, aligned, hops=hops, lambda_mode="beta",
                            rng=np.random.default_rng(hops))
        subs = assert_batch_matches_per_pair(batch, graphs, mats, hops)
        for sub, (da, ca, db, cb, lam) in zip(subs, batch.provenance):
            feats, edges, _ = mix_reference(
                extract_ego(graphs[da], ca, hops, mats[da]),
                extract_ego(graphs[db], cb, hops, mats[db]),
                lam, 2,
            )
            np.testing.assert_array_equal(sub.features, feats)
            assert [tuple(e) for e in sub.edges.tolist()] == edges


def test_mix_adjacent_centers_collapse_their_edge():
    # triangle 0-1-2 plus leaf 3 on node 1; egos at 0 and 1 (adjacent)
    feats = np.arange(8.0).reshape(4, 2)
    g = build_domain_graph([(0, 1), (1, 2), (0, 2), (1, 3)], feats, domain_id=0)
    a, b = extract_ego(g, 0, 1), extract_ego(g, 1, 1)
    mixed = mix_subgraphs(a, b, 0.25, num_domains=1)
    # locals: merged {0, 1}, then 2 (shared), then 3 (new from b); the
    # center-center edge 0-1 folds into node 0 and is dropped
    assert mixed.node_origins == [(0, 1), (2, 2), (None, 3)]
    assert mixed.edges.tolist() == [[0, 1], [0, 2]]
    np.testing.assert_array_equal(mixed.features[0], 0.25 * feats[0] + 0.75 * feats[1])
    np.testing.assert_array_equal(mixed.features[1:], feats[[2, 3]])
    from domainmix.mixing import NodePair

    batch = build_batch([], [NodePair(0, 0, 0, 1, 0.0)], [g], [wrap(feats)], hops=1, lam=0.25)
    assert_batch_matches_per_pair(batch, [g], [feats], 1)
    assert batch.num_nodes.tolist() == [3] and batch.num_edges.tolist() == [2]


def test_mix_far_center_inside_ego_a_folds_into_the_merged_node():
    # path 0-1-2-3-4: the 2-hop ego of 0 reaches 2, the center of sub_b,
    # which is not adjacent to 0; both centers still fold into node 0
    feats = np.arange(10.0).reshape(5, 2)
    g = build_domain_graph([(0, 1), (1, 2), (2, 3), (3, 4)], feats, domain_id=0)
    a, b = extract_ego(g, 0, 2), extract_ego(g, 2, 1)
    mixed = mix_subgraphs(a, b, 0.5, num_domains=1)
    assert mixed.node_origins == [(0, 2), (1, 1), (None, 3)]
    assert mixed.edges.tolist() == [[0, 1], [0, 2]]
    feats_ref, edges_ref, origins_ref = mix_reference(a, b, 0.5, 1)
    np.testing.assert_array_equal(mixed.features, feats_ref)
    assert mixed.node_origins == origins_ref
    assert [tuple(e) for e in mixed.edges.tolist()] == edges_ref


def test_pretrain_builds_no_per_pair_mix_and_no_union(monkeypatch):
    import domainmix
    from domainmix.config import RunConfig
    from domainmix.nn import pretrain
    from domainmix.pipeline import prepare
    from domainmix.synth import SynthSpec, make_synth

    graphs, _, _ = make_synth(SynthSpec(K=2, nodes_per_domain=60), 3)
    cfg = RunConfig(seed=3, pca_dim=8, hidden=8, n_pairs=6, epochs_pre=3, gamma=0.0).validate()
    aligned, _, bsets = prepare(graphs, cfg)
    _, want = pretrain(graphs, aligned, bsets, cfg)

    def refuse(*args, **kwargs):
        raise AssertionError("pre-training called a per-pair path")

    for module in [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "domainmix"]:
        for attr in ("mix_subgraphs", "graph_union"):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, refuse)
    assert domainmix.mixing.mix_subgraphs is refuse
    _, got = pretrain(graphs, aligned, bsets, cfg)
    assert got == want
