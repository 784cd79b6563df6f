"""Bound-term diagnostics against closed forms and brute-force oracles."""

import json
import math

import numpy as np
import pytest

from domainmix.align import AlignedFeatures, align_graphs, domain_center
from domainmix.boundary import BoundarySet, select_boundaries
from domainmix.config import RunConfig
from domainmix.diagnostics import (
    PROBE_EPOCHS,
    DiagnosticsReport,
    ambiguity_probe,
    boundary_mass,
    compute_diagnostics,
    delta_max_bound,
    lipschitz_upper,
    max_overlap,
    overlap_ratio,
    probe_loss,
    sampling_term,
    sigma_dep,
    spectral_norm,
    stability_check,
)
from domainmix.errors import ValidationError
from domainmix.graphs import build_domain_graph, extract_ego, graph_union
from domainmix.mixing import mix_subgraphs
from domainmix.nn import ModelState, gcn_encode, init_model, mean_pool, pretrain
from domainmix.optim import Adam
from domainmix.autodiff import parameter
from domainmix.synth import SynthSpec, make_synth


# ---------------------------------------------------------------- spectral

def test_spectral_norm_identity():
    assert abs(spectral_norm(np.eye(4)) - 1.0) < 1e-12


def test_spectral_norm_zero_matrix():
    assert spectral_norm(np.zeros((3, 5))) == 0.0


def test_spectral_norm_diagonal():
    assert abs(spectral_norm(np.diag([1.0, -7.0, 3.0])) - 7.0) < 1e-8


def test_spectral_norm_svd_oracle():
    rng = np.random.default_rng(42)
    for _ in range(10):
        m = rng.normal(size=(10, 10))
        want = float(np.linalg.svd(m, compute_uv=False)[0])
        assert abs(spectral_norm(m) - want) <= 1e-12 * want


def test_spectral_norm_rectangular_oracle():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(6, 13))
    want = float(np.linalg.svd(m, compute_uv=False)[0])
    assert abs(spectral_norm(m) - want) <= 1e-12 * want


def test_spectral_norm_rejects_non_matrix():
    with pytest.raises(ValidationError, match="2-d"):
        spectral_norm(np.ones(3))


def test_spectral_norm_rejects_nan():
    mat = np.eye(4)
    mat[1, 2] = np.nan
    with pytest.raises(ValidationError, match="NaN or inf"):
        spectral_norm(mat)


def test_spectral_norm_rejects_inf():
    mat = np.eye(4)
    mat[3, 0] = -np.inf
    with pytest.raises(ValidationError, match="NaN or inf"):
        spectral_norm(mat)


def _one_node_state(d):
    params = {
        "encoder.w1": parameter(np.eye(d)),
        "encoder.w2": parameter(np.eye(d)),
    }
    return ModelState(d=d, hidden=d, num_domains=2, params=params)


class _BareSub:
    def __init__(self, n, edges, feats):
        self.edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self.features = feats
        self.num_nodes = n


def test_lipschitz_identity_weights_single_node():
    state = _one_node_state(3)
    sub = _BareSub(1, [], np.zeros((1, 3)))
    assert abs(lipschitz_upper(state, [sub]) - 1.0) < 1e-10


def test_lipschitz_scale_homogeneity():
    rng = np.random.default_rng(3)
    w1, w2 = rng.normal(size=(5, 4)), rng.normal(size=(4, 4))
    sub = _BareSub(2, [[0, 1]], np.zeros((2, 5)))
    base = ModelState(d=5, hidden=4, num_domains=2, params={
        "encoder.w1": parameter(w1), "encoder.w2": parameter(w2)})
    scaled = ModelState(d=5, hidden=4, num_domains=2, params={
        "encoder.w1": parameter(3.0 * w1), "encoder.w2": parameter(w2)})
    a, b = lipschitz_upper(base, [sub]), lipschitz_upper(scaled, [sub])
    assert abs(b - 3.0 * a) < 1e-9 * max(1.0, a)


def test_lipschitz_adjacency_norm_at_most_one():
    # symmetric-normalized adjacency with self-loops has spectral norm <= 1
    rng = np.random.default_rng(11)
    sources, _, _ = make_synth(SynthSpec(nodes_per_domain=40), 0)
    g = sources[0]
    aligned, _ = align_graphs(sources, 6)
    subs = [extract_ego(g, int(c), 2, aligned[0]) for c in rng.choice(40, 5)]
    state = init_model(6, 4, 2, seed=0)
    s1 = spectral_norm(state.params["encoder.w1"].data)
    s2 = spectral_norm(state.params["encoder.w2"].data)
    bound = lipschitz_upper(state, subs)
    assert bound <= s1 * s2 * 1.0 + 1e-9


def test_lipschitz_equals_svd_product_on_pretrained_state():
    sources, _, _ = make_synth(SynthSpec(nodes_per_domain=60), 0)
    aligned, centers = align_graphs(sources, 8)
    bsets = select_boundaries(aligned, centers, 0.3)
    cfg = RunConfig(seed=0, pca_dim=8, hidden=12, n_pairs=6, epochs_pre=10, gamma=0.3)
    state, _ = pretrain(sources, aligned, bsets, cfg)
    sub = extract_ego(sources[0], 0, 1, aligned[0])
    want = 1.0
    for name in ("encoder.w1", "encoder.w2"):
        want *= np.linalg.svd(state.params[name].data, compute_uv=False)[0]
    assert abs(lipschitz_upper(state, [sub]) - want) <= 1e-12 * want


def test_lipschitz_requires_subgraphs():
    with pytest.raises(ValidationError):
        lipschitz_upper(_one_node_state(2), [])


def _dense_a_hat(n, edges):
    a = np.eye(n)
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    d = 1.0 / np.sqrt(a.sum(axis=1))
    return d[:, None] * a * d[None, :]


def _svd_graphs():
    rng = np.random.default_rng(21)
    graphs = [
        (1, []),  # a single node
        (6, [(0, 1), (1, 2)]),  # three isolated nodes
        (7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6)]),  # two components
        (2, [(0, 1)]),  # a single edge
    ]
    for n in (5, 12, 30):
        upper = np.triu(rng.random((n, n)) < 0.2, k=1)
        graphs.append((n, [tuple(e) for e in np.argwhere(upper)]))
    sources, _, _ = make_synth(SynthSpec(nodes_per_domain=40), 0)
    for c in rng.choice(40, 4, replace=False):
        ego = extract_ego(sources[0], int(c), 2, sources[0].features_raw)
        graphs.append((ego.num_nodes, [tuple(e) for e in ego.edges]))
    return graphs


def test_lipschitz_adjacency_term_matches_svd():
    # the bound is sigma(W1) * sigma(W2) * max ||A_hat||^2 with the
    # adjacency norms taken by full SVD of an independently built A_hat
    rng = np.random.default_rng(5)
    w1, w2 = rng.normal(size=(4, 6)), rng.normal(size=(6, 6))
    state = ModelState(d=4, hidden=6, num_domains=2, params={
        "encoder.w1": parameter(w1), "encoder.w2": parameter(w2)})
    s1 = np.linalg.svd(w1, compute_uv=False)[0]
    s2 = np.linalg.svd(w2, compute_uv=False)[0]
    for n, edges in _svd_graphs():
        a_norm = np.linalg.svd(_dense_a_hat(n, edges), compute_uv=False)[0]
        assert abs(a_norm - 1.0) < 1e-12
        sub = _BareSub(n, edges, np.zeros((n, 4)))
        assert lipschitz_upper(state, [sub]) == pytest.approx(s1 * s2 * a_norm**2, rel=1e-7)


# ---------------------------------------------------------------- overlap

def test_overlap_trivials():
    assert overlap_ratio({1, 2}, {3, 4}) == 0.0
    assert overlap_ratio({1, 2, 3}, {1, 2, 3}) == 1.0
    assert overlap_ratio({1, 2, 3, 4}, {3, 4, 5}) == 2 / 3
    assert overlap_ratio({3, 4, 5}, {1, 2, 3, 4}) == 2 / 3  # symmetric


def test_overlap_empty_error():
    with pytest.raises(ValidationError):
        overlap_ratio(set(), {1})


def test_delta_max_trivials():
    disjoint = [(0, {1, 2}), (0, {3, 4}), (0, {5})]
    assert delta_max_bound(disjoint, kappa=0.25) == 0.0
    pair = [(0, {1, 2}), (0, {1, 2})]
    assert delta_max_bound(pair, kappa=0.25) == 0.25
    # cross-graph pairs contribute zero
    cross = [(0, {1, 2}), (1, {1, 2})]
    assert delta_max_bound(cross, kappa=0.25) == 0.0


def test_delta_max_loop_oracle():
    rng = np.random.default_rng(5)
    subs = []
    for _ in range(10):
        graph = int(rng.integers(0, 2))
        ids = set(int(i) for i in rng.choice(30, size=rng.integers(1, 9), replace=False))
        subs.append((graph, ids))
    best = 0.0
    for i in range(len(subs)):
        for j in range(i + 1, len(subs)):
            ga, a = subs[i]
            gb, b = subs[j]
            if ga != gb:
                continue
            best = max(best, len(a & b) / min(len(a), len(b)))
    kappa = 0.125
    assert delta_max_bound(subs, kappa) == kappa * best
    assert max_overlap(subs) == best


def test_delta_max_kappa_validation():
    subs = [(0, {1}), (0, {2})]
    for bad in (-0.01, 0.26, 1.0):
        with pytest.raises(ValidationError):
            delta_max_bound(subs, kappa=bad)


def test_delta_max_monotone_in_kappa():
    subs = [(0, {1, 2, 3}), (0, {2, 3, 4})]
    vals = [delta_max_bound(subs, k) for k in (0.0, 0.1, 0.2, 0.25)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------- sigma, sampling

def test_sigma_dep_values():
    for delta in (0.0, 0.1, 0.25, 3.0):
        assert sigma_dep(1, delta) == 0.5
    assert abs(sigma_dep(5, 0.25) - math.sqrt(1.25)) < 1e-12
    for n in (1, 2, 10, 1000):
        assert sigma_dep(n, 0.0) == 0.5


def test_sigma_dep_monotone_in_n():
    vals = [sigma_dep(n, 0.3) for n in range(1, 30)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_sigma_dep_validation():
    with pytest.raises(ValidationError):
        sigma_dep(0, 0.1)
    with pytest.raises(ValidationError):
        sigma_dep(3, -0.1)


def test_sampling_term_worked_value():
    want = 0.5 * math.sqrt(math.log(40.0) / 40.0)
    assert abs(sampling_term(20, 0.0, 0.05) - want) < 1e-12


def test_sampling_term_quarter_rate():
    # with delta_max = 0 the term halves exactly when n quadruples
    a = sampling_term(20, 0.0, 0.1)
    b = sampling_term(80, 0.0, 0.1)
    assert abs(b - 0.5 * a) < 1e-12


def test_sampling_term_delta_validation():
    for bad in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(ValidationError):
            sampling_term(10, 0.0, bad)


# ---------------------------------------------------------------- boundary mass

def _graph_with_nodes(n, domain_id):
    feats = np.zeros((n, 1))
    return build_domain_graph([(0, 1)] if n > 1 else [], feats, domain_id=domain_id)


def test_boundary_mass_published_ratio():
    g = _graph_with_nodes(2708, 0)
    bset = BoundarySet(domain_id=0, node_ids=np.arange(25),
                       confidences=np.ones(25), used_fallback=False)
    ratios, rho_min = boundary_mass([bset], [g])
    assert abs(ratios[0] - 25 / 2708) < 1e-15
    assert abs(ratios[0] - 0.00923) < 5e-6
    assert rho_min == ratios[0]


def test_boundary_mass_full_selection():
    g = _graph_with_nodes(10, 0)
    bset = BoundarySet(0, np.arange(10), np.ones(10), False)
    ratios, rho_min = boundary_mass([bset], [g])
    assert ratios[0] == 1.0 and rho_min == 1.0


def test_boundary_mass_positive_on_synthetic():
    sources, _, _ = make_synth(SynthSpec(nodes_per_domain=60), 0)
    aligned, centers = align_graphs(sources, 8)
    bsets = select_boundaries(aligned, centers, 0.2)
    ratios, rho_min = boundary_mass(bsets, sources)
    assert set(ratios) == {0, 1, 2}
    assert rho_min > 0.0
    assert all(0.0 < r <= 1.0 for r in ratios.values())


def test_boundary_mass_unknown_domain():
    bset = BoundarySet(5, np.arange(3), np.ones(3), False)
    with pytest.raises(ValidationError):
        boundary_mass([bset], [_graph_with_nodes(4, 0)])


# ---------------------------------------------------------------- stability

def _scaled_egos(seed, nodes=50, d=6, hops=1):
    sources, _, _ = make_synth(SynthSpec(nodes_per_domain=nodes), seed)
    aligned, _ = align_graphs(sources, d)
    # bounded feature rows keep the topology term of the bound meaningful
    scale = max(np.linalg.norm(a.matrix, axis=1).max() for a in aligned)
    scaled = [AlignedFeatures(a.domain_id, a.matrix / scale, d) for a in aligned]
    return sources, scaled


def test_stability_identity_mix():
    sources, scaled = _scaled_egos(0)
    sub = extract_ego(sources[0], 3, 1, scaled[0])
    state = init_model(6, 8, 3, seed=1)
    res = stability_check(state, [(sub, sub, 1.0)])
    assert res.violations == 0
    assert abs(res.margins[0]) < 1e-6  # both sides essentially zero


def test_stability_lambda_one_disjoint():
    # feature term vanishes at lambda = 1; topology term alone must hold
    sources, scaled = _scaled_egos(1)
    a = extract_ego(sources[0], 0, 1, scaled[0])
    b = extract_ego(sources[1], 7, 1, scaled[1])
    state = init_model(6, 8, 3, seed=2)
    res = stability_check(state, [(a, b, 1.0)])
    assert res.violations == 0


def test_stability_sweep_no_violations():
    # cross-graph pairs: the population the mixing operator is defined on
    sources, scaled = _scaled_egos(2)
    rng = np.random.default_rng(9)
    state = init_model(6, 8, 3, seed=3)
    pairs = []
    for _ in range(20):
        ka = int(rng.integers(3))
        kb = (ka + 1 + int(rng.integers(2))) % 3
        ca = int(rng.integers(sources[ka].num_nodes))
        cb = int(rng.integers(sources[kb].num_nodes))
        lam = float(rng.choice([0.0, 0.3, 0.5, 1.0]))
        pairs.append((
            extract_ego(sources[ka], ca, 1, scaled[ka]),
            extract_ego(sources[kb], cb, 1, scaled[kb]),
            lam,
        ))
    res = stability_check(state, pairs)
    assert res.num_pairs == 20
    assert res.violations == 0
    assert res.lipschitz_bound > 0


def test_stability_intra_nonadjacent():
    # same-graph pairs hold too as long as neither center sits inside the
    # other ego, so the merge never deletes a node from the first subgraph
    sources, scaled = _scaled_egos(4)
    g = sources[0]
    state = init_model(6, 8, 3, seed=5)
    rng = np.random.default_rng(13)
    pairs = []
    while len(pairs) < 10:
        ca, cb = (int(x) for x in rng.choice(g.num_nodes, 2, replace=False))
        a = extract_ego(g, ca, 1, scaled[0])
        b = extract_ego(g, cb, 1, scaled[0])
        if ca in set(b.nodes_global) or cb in set(a.nodes_global):
            continue
        pairs.append((a, b, float(rng.choice([0.0, 0.5, 1.0]))))
    res = stability_check(state, pairs)
    assert res.violations == 0


def test_stability_adjacent_centers_reported():
    # merging two mutually adjacent centers deletes a node and an edge,
    # which the additions-only bound cannot cover; the check reports the
    # violation instead of masking it
    feats = np.array([[0.9, 0.0], [0.0, 0.9]])
    g = build_domain_graph([(0, 1)], feats, domain_id=0)
    al = AlignedFeatures(0, feats, 2)
    a = extract_ego(g, 0, 1, al)
    b = extract_ego(g, 1, 1, al)
    state = init_model(2, 4, 2, seed=6)
    res = stability_check(state, [(a, b, 1.0)])
    assert res.violations == 1
    assert res.margins[0] < 0


def test_stability_respects_given_lipschitz():
    sources, scaled = _scaled_egos(3)
    a = extract_ego(sources[0], 1, 1, scaled[0])
    b = extract_ego(sources[1], 2, 1, scaled[1])
    state = init_model(6, 8, 3, seed=4)
    res = stability_check(state, [(a, b, 0.5)], lipschitz=1e9)
    assert res.lipschitz_bound == 1e9
    assert res.violations == 0


def test_stability_empty_error():
    with pytest.raises(ValidationError):
        stability_check(init_model(3, 2, 2, seed=0), [])


def _local_edge_sets(mixed, sub_a, sub_b):
    """Map each input subgraph's edges into the mixed graph's local ids."""
    amap, bmap = {}, {}
    for idx, (ga, gb) in enumerate(mixed.node_origins):
        if ga is not None:
            amap[ga] = idx
        if gb is not None:
            bmap[gb] = idx
    if sub_a.source_domain == sub_b.source_domain:
        # same-graph mixing folds both centers into merged node 0, so either
        # center id may appear as a plain neighbor on the opposite side
        amap[sub_b.center_global] = 0
        bmap[sub_a.center_global] = 0

    def relabel(sub, gmap):
        out = set()
        for u, v in sub.edges:
            mu = gmap[int(sub.nodes_global[u])]
            mv = gmap[int(sub.nodes_global[v])]
            if mu != mv:
                out.add((min(mu, mv), max(mu, mv)))
        return out

    return relabel(sub_a, amap), relabel(sub_b, bmap)


def _stability_margins_per_pair(state, pairs, lipschitz):
    """Margins and violations with one gcn_encode per subgraph."""
    margins = []
    for sub_a, sub_b, lam in pairs:
        k = max(sub_a.source_domain, sub_b.source_domain) + 1
        mixed = mix_subgraphs(sub_a, sub_b, lam, num_domains=k)
        f_mix = mean_pool(gcn_encode(mixed, state)).data
        f_a = mean_pool(gcn_encode(sub_a, state)).data
        lhs = float(np.linalg.norm(f_mix - f_a))
        diff = sub_b.features[sub_b.center_local] - sub_a.features[sub_a.center_local]
        new_nodes = sum(1 for ga, _ in mixed.node_origins if ga is None)
        edges_a, edges_b = _local_edge_sets(mixed, sub_a, sub_b)
        rhs = (1.0 - lam) * lipschitz * float(np.linalg.norm(diff)) + lipschitz * (
            new_nodes + len(edges_b - edges_a)
        )
        margins.append(rhs - lhs)
    margins = np.array(margins)
    return margins, int(np.sum(margins < -1e-6))


def test_stability_union_matches_per_pair_reference():
    sources, scaled = _scaled_egos(6)
    state = init_model(6, 8, 3, seed=7)
    rng = np.random.default_rng(17)
    cross, same = [], []
    for _ in range(12):
        ka, kb = rng.choice(3, 2, replace=False)
        cross.append((
            extract_ego(sources[ka], int(rng.integers(50)), 1, scaled[ka]),
            extract_ego(sources[kb], int(rng.integers(50)), 1, scaled[kb]),
            float(rng.choice([0.0, 0.3, 0.5, 1.0])),
        ))
    g = sources[1]
    for ca, cb in rng.choice(50, size=(12, 2)):
        if ca == cb:
            continue
        same.append((
            extract_ego(g, int(ca), 1, scaled[1]),
            extract_ego(g, int(cb), 1, scaled[1]),
            float(rng.choice([0.0, 0.5, 1.0])),
        ))
    # a small bound, so that some pairs violate it
    for pairs, lipschitz in ((cross, None), (same, None), (cross + same, 0.05)):
        res = stability_check(state, pairs, lipschitz=lipschitz)
        want, violations = _stability_margins_per_pair(state, pairs, res.lipschitz_bound)
        np.testing.assert_allclose(res.margins, want, rtol=0, atol=1e-12)
        assert res.violations == violations
    assert res.violations > 0


# ---------------------------------------------------------------- probe

def _probe_setup(seed, **spec_kw):
    spec = SynthSpec(nodes_per_domain=90, **spec_kw)
    sources, _, _ = make_synth(spec, seed)
    raw = [AlignedFeatures(g.domain_id, g.features_raw, spec.feature_dim)
           for g in sources]
    centers = [domain_center(a) for a in raw]
    aligned, cpca = align_graphs(sources, spec.feature_dim)
    bsets = select_boundaries(aligned, cpca, 0.3)
    return sources, raw, centers, bsets


def test_probe_report_shape():
    sources, raw, centers, bsets = _probe_setup(0)
    cfg = RunConfig(seed=0, pca_dim=16, hidden=16)
    rep = ambiguity_probe(sources, raw, centers, bsets, cfg)
    assert set(rep.accuracy) == {"center", "random", "boundary"}
    assert set(rep.loss) == {"center", "random", "boundary"}
    for v in rep.accuracy.values():
        assert 0.0 <= v <= 1.0
    json.dumps(rep.to_dict())


def test_probe_center_accuracy_without_boundary_cluster():
    # no planted cluster, huge separation: domains trivially identifiable
    sources, raw, centers, bsets = _probe_setup(
        1, boundary_cluster_fraction=0.0, domain_center_separation=50.0
    )
    cfg = RunConfig(seed=1, pca_dim=16, hidden=32)
    rep = ambiguity_probe(sources, raw, centers, bsets, cfg)
    assert rep.accuracy["center"] >= 0.9


def test_probe_boundary_harder_than_center():
    # single-seed check of the ordering; the acceptance suite runs 20 seeds
    sources, raw, centers, bsets = _probe_setup(2)
    cfg = RunConfig(seed=2, pca_dim=16, hidden=32)
    rep = ambiguity_probe(sources, raw, centers, bsets, cfg)
    assert rep.accuracy["boundary"] <= rep.accuracy["center"]
    assert rep.loss["boundary"] >= rep.loss["center"]


def _probe_items(seed=0, per_domain=4):
    sources, _, _ = make_synth(SynthSpec(nodes_per_domain=40), seed)
    aligned, _ = align_graphs(sources, 6)
    rng = np.random.default_rng(seed)
    return [
        (extract_ego(g, int(c), 1, a), k)
        for k, (g, a) in enumerate(zip(sources, aligned))
        for c in rng.choice(g.num_nodes, per_domain, replace=False)
    ]


def _probe_loss_per_ego(items, state):
    losses = []
    for sub, label in items:
        h = mean_pool(gcn_encode(sub, state))
        probs = (h @ state.params["dec.w"] + state.params["dec.b"]).softmax()
        losses.append(-np.log(np.clip(probs.data[label], 1e-12, 1.0)))
    return float(np.mean(losses))


def test_probe_loss_matches_per_ego_reference():
    for seed in (0, 1):
        items = _probe_items(seed)
        state = init_model(6, 5, 3, seed=seed)
        union = graph_union([sub for sub, _ in items])
        labels = np.array([k for _, k in items])
        loss, probs = probe_loss(union, labels, state)
        assert probs.data.shape == (len(items), 3)
        assert abs(loss.item() - _probe_loss_per_ego(items, state)) < 1e-12


def test_probe_loss_gradient_vs_fd():
    items = _probe_items(2)
    state = init_model(6, 5, 3, seed=2)
    union = graph_union([sub for sub, _ in items])
    labels = np.array([k for _, k in items])
    loss, _ = probe_loss(union, labels, state)
    loss.backward()
    eps = 1e-6
    for name in ("encoder.w1", "dec.w"):
        param = state.params[name]
        numeric = np.zeros_like(param.data)
        for idx in np.ndindex(param.data.shape):
            keep = param.data[idx]
            param.data[idx] = keep + eps
            up = probe_loss(union, labels, state)[0].item()
            param.data[idx] = keep - eps
            dn = probe_loss(union, labels, state)[0].item()
            param.data[idx] = keep
            numeric[idx] = (up - dn) / (2.0 * eps)
        np.testing.assert_allclose(param.grad, numeric, rtol=1e-6, atol=1e-8, err_msg=name)


def test_probe_takes_one_step_per_epoch(monkeypatch):
    steps = []
    real_step = Adam.step

    def counting_step(self):
        steps.append(1)
        real_step(self)

    monkeypatch.setattr(Adam, "step", counting_step)
    for nodes in (40, 90):
        # the training set is a tenth of each domain's nodes, halved
        spec = SynthSpec(nodes_per_domain=nodes)
        sources, _, _ = make_synth(spec, 0)
        aligned, centers = align_graphs(sources, 6)
        bsets = select_boundaries(aligned, centers, 0.3)
        steps.clear()
        ambiguity_probe(sources, aligned, centers, bsets, RunConfig(seed=0, pca_dim=6, hidden=8))
        assert len(steps) == PROBE_EPOCHS


# ---------------------------------------------------------------- report

def test_compute_diagnostics_smoke():
    spec = SynthSpec(nodes_per_domain=60)
    sources, _, _ = make_synth(spec, 0)
    aligned, centers = align_graphs(sources, 8)
    bsets = select_boundaries(aligned, centers, 0.25)
    cfg = RunConfig(seed=0, pca_dim=8, hidden=12, n_pairs=6)
    state = init_model(8, 12, 3, seed=0)
    rep = compute_diagnostics(sources, aligned, centers, bsets, state, cfg,
                              n_sample=8)
    assert isinstance(rep, DiagnosticsReport)
    assert rep.sigma_dep >= 0.5
    assert 0.0 <= rep.max_overlap <= 1.0
    assert rep.delta_max_bound >= 0.0
    assert rep.lipschitz_bound > 0.0
    assert rep.rho_min > 0.0
    assert set(rep.probe_accuracies) == {"center", "random", "boundary"}
    payload = json.dumps(rep.to_dict(), indent=2)
    assert "lipschitz_bound" in payload
