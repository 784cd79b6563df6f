import math

import numpy as np
import pytest

from domainmix.align import align_graphs
from domainmix.autodiff import Tensor, parameter
from domainmix.boundary import select_boundaries
from domainmix.config import RunConfig
from domainmix.errors import NonFiniteGradientError, ValidationError
from domainmix.graphs import build_domain_graph, graph_union
from domainmix.mixing import MixBatch, MixedSubgraph
from domainmix.nn import (
    ModelState,
    decompose,
    discriminate,
    encode_graph,
    encode_nodes,
    gate_mask,
    gcn_encode,
    init_model,
    loss_dis,
    loss_fine,
    loss_pretrain,
    mean_pool,
    normalized_adjacency,
    pretrain,
)
from domainmix.optim import Adam


def tiny_state(d=3, hidden=4, num_domains=2, seed=0):
    return init_model(d, hidden, num_domains, seed=seed)


def single_node_sub(feat, domain=0, num_domains=2, coarse=1):
    label = np.zeros(num_domains)
    label[domain] = 1.0
    return MixedSubgraph(
        features=np.asarray(feat, dtype=np.float64).reshape(1, -1),
        edges=np.empty((0, 2), dtype=np.int64),
        merged_center=0,
        coarse_label=coarse,
        mix_label=label,
        provenance=(domain, 0, domain, 0, 0.5),
        node_origins=[(0, 0)],
    )


def batch_of(subs):
    """A MixBatch of ready mixed subgraphs, in the given order."""
    return MixBatch(
        union=graph_union(subs),
        coarse_labels=np.array([s.coarse_label for s in subs]),
        mix_labels=np.array([s.mix_label for s in subs]),
        provenance=[s.provenance for s in subs],
        num_nodes=np.array([s.num_nodes for s in subs]),
        num_edges=np.array([len(s.edges) for s in subs]),
    )


def test_init_model_shapes_and_determinism():
    s1 = init_model(5, 7, 3, seed=11)
    s2 = init_model(5, 7, 3, seed=11)
    s3 = init_model(5, 7, 3, seed=12)
    assert s1.params["encoder.w1"].data.shape == (5, 7)
    assert s1.params["encoder.w2"].data.shape == (7, 7)
    assert s1.params["disc.w"].data.shape == (7, 2)
    assert s1.params["dec.w"].data.shape == (7, 3)
    for name in s1.params:
        np.testing.assert_array_equal(s1.params[name].data, s2.params[name].data)
    assert not np.array_equal(
        s1.params["encoder.w1"].data, s3.params["encoder.w1"].data
    )
    limit = math.sqrt(6.0 / (5 + 7))
    assert np.abs(s1.params["encoder.w1"].data).max() <= limit


def test_normalized_adjacency_single_node():
    a = normalized_adjacency(1, np.empty((0, 2), dtype=np.int64))
    np.testing.assert_array_equal(a.toarray(), [[1.0]])


def test_normalized_adjacency_edge_pair():
    # two nodes, one edge: degrees 2 after self-loops, all entries 1/2
    a = normalized_adjacency(2, np.array([[0, 1]]))
    np.testing.assert_allclose(a.toarray(), [[0.5, 0.5], [0.5, 0.5]])


def test_normalized_adjacency_spectral_norm_at_most_one():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = int(rng.integers(2, 20))
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.3
        ]
        a = normalized_adjacency(n, np.array(edges).reshape(-1, 2)).toarray()
        top = max(abs(np.linalg.eigvalsh(a)))
        assert top <= 1.0 + 1e-10


def test_gcn_single_isolated_node():
    state = tiny_state()
    x = np.array([[1.0, -2.0, 0.5]])
    sub = single_node_sub(x)
    got = gcn_encode(sub, state).data
    w1 = state.params["encoder.w1"].data
    w2 = state.params["encoder.w2"].data
    want = np.maximum(x @ w1, 0) @ w2
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_gcn_zero_features_zero_output():
    state = tiny_state()
    sub = single_node_sub(np.zeros(3))
    np.testing.assert_array_equal(gcn_encode(sub, state).data, np.zeros((1, 4)))


def test_gcn_matches_triple_loop_oracle():
    rng = np.random.default_rng(7)
    state = tiny_state(d=4, hidden=3)
    n = 5
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]])
    feats = rng.normal(size=(n, 4))
    sub = MixedSubgraph(
        features=feats,
        edges=edges,
        merged_center=0,
        coarse_label=1,
        mix_label=np.array([0.5, 0.5]),
        provenance=(0, 0, 1, 0, 0.5),
        node_origins=[(i, i) for i in range(n)],
    )
    got = gcn_encode(sub, state).data

    adj = np.eye(n)
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1.0
    deg = adj.sum(axis=1)
    ahat = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            ahat[i, j] = adj[i, j] / math.sqrt(deg[i] * deg[j])

    def matmul_loops(a, b):
        out = np.zeros((a.shape[0], b.shape[1]))
        for i in range(a.shape[0]):
            for j in range(b.shape[1]):
                s = 0.0
                for t in range(a.shape[1]):
                    s += a[i, t] * b[t, j]
                out[i, j] = s
        return out

    h1 = np.maximum(
        matmul_loops(matmul_loops(ahat, feats), state.params["encoder.w1"].data), 0
    )
    want = matmul_loops(matmul_loops(ahat, h1), state.params["encoder.w2"].data)
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_gcn_dimension_mismatch():
    state = tiny_state(d=3)
    with pytest.raises(ValidationError):
        gcn_encode(single_node_sub(np.zeros(5)), state)


def test_mean_pool():
    one = Tensor(np.array([[1.0, 2.0]]))
    np.testing.assert_array_equal(mean_pool(one).data, [1.0, 2.0])
    pair = Tensor(np.array([[3.0, -1.0], [-3.0, 1.0]]))
    np.testing.assert_array_equal(mean_pool(pair).data, [0.0, 0.0])
    rng = np.random.default_rng(9)
    x = rng.normal(size=(7, 4))
    want = [sum(x[i, j] for i in range(7)) / 7 for j in range(4)]
    np.testing.assert_allclose(mean_pool(Tensor(x)).data, want, atol=1e-12)


def test_discriminate_zero_params_uniform():
    state = tiny_state()
    state.params["disc.w"].data[:] = 0
    state.params["disc.b"].data[:] = 0
    p = discriminate(Tensor(np.ones(4)), state)
    np.testing.assert_allclose(p.data, [0.5, 0.5])


def test_discriminate_closed_form():
    state = ModelState(d=1, hidden=1, num_domains=2, params={
        "disc.w": parameter(np.array([[math.log(3.0), 0.0]])),
        "disc.b": parameter(np.zeros(2)),
    })
    p = discriminate(Tensor(np.array([1.0])), state)
    np.testing.assert_allclose(p.data, [0.75, 0.25], atol=1e-12)


def test_discriminate_softmax_oracle():
    rng = np.random.default_rng(11)
    state = tiny_state(hidden=6)
    h = rng.normal(size=6)
    p = discriminate(Tensor(h), state).data
    logits = h @ state.params["disc.w"].data + state.params["disc.b"].data
    want = np.exp(logits) / np.exp(logits).sum()
    np.testing.assert_allclose(p, want, atol=1e-10)


def probs_like(values):
    return [Tensor(np.array([1.0 - v, v])) for v in values]


def test_loss_dis_perfect_predictions():
    probs = probs_like([1.0, 0.0])
    loss = loss_dis(probs, [1, 0])
    assert loss.item() <= 1e-10


def test_loss_dis_uniform_is_ln2():
    probs = probs_like([0.5, 0.5, 0.5])
    loss = loss_dis(probs, [1, 0, 1])
    assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)


def test_loss_dis_scalar_oracle():
    rng = np.random.default_rng(13)
    vals = rng.uniform(0.05, 0.95, size=10)
    labels = list(rng.integers(0, 2, size=10))
    loss = loss_dis(probs_like(vals), labels)
    want = -sum(
        math.log(v) if y == 1 else math.log(1.0 - v)
        for v, y in zip(vals, labels)
    ) / 10
    assert loss.item() == pytest.approx(want, abs=1e-10)


def test_gate_mask_strictness():
    probs = probs_like([0.7, 0.3, 0.5])
    np.testing.assert_array_equal(gate_mask(probs), [1, 0, 0])


def test_decompose_zero_params_uniform():
    state = tiny_state(num_domains=4)
    state.params["dec.w"].data[:] = 0
    state.params["dec.b"].data[:] = 0
    p = decompose(Tensor(np.ones(4)), 1, state)
    np.testing.assert_allclose(p.data, np.full(4, 0.25))


def test_decompose_masked_input_sees_bias_only():
    state = tiny_state(num_domains=3)
    state.params["dec.b"].data[:] = np.array([1.0, 0.0, -1.0])
    p = decompose(Tensor(np.ones(4) * 99), 0, state)
    b = state.params["dec.b"].data
    want = np.exp(b) / np.exp(b).sum()
    np.testing.assert_allclose(p.data, want, atol=1e-12)


def test_loss_fine_zero_when_equal():
    y = np.array([0.3, 0.7])
    loss = loss_fine([Tensor(y)], [y], [1])
    assert abs(loss.item()) < 1e-12


def test_loss_fine_worked_value():
    y = np.array([0.5, 0.5, 0.0])
    p = Tensor(np.full(3, 1.0 / 3.0))
    loss = loss_fine([p], [y], [1])
    assert loss.item() == pytest.approx(math.log(1.5), abs=1e-9)


def test_loss_fine_scalar_oracle():
    rng = np.random.default_rng(17)
    preds, targets, mask = [], [], []
    for _ in range(8):
        p = rng.dirichlet(np.ones(3))
        y = rng.dirichlet(np.ones(3))
        if rng.random() < 0.3:
            y[rng.integers(3)] = 0.0
            y = y / y.sum()
        preds.append(Tensor(p))
        targets.append(y)
        mask.append(int(rng.random() < 0.7))
    loss = loss_fine(preds, targets, mask)
    active = [i for i, m in enumerate(mask) if m]
    want = 0.0
    for i in active:
        for d in range(3):
            if targets[i][d] > 0:
                want += targets[i][d] * math.log(
                    targets[i][d] / max(preds[i].data[d], 1e-12)
                )
    want /= len(active)
    assert loss.item() == pytest.approx(want, abs=1e-9)


def test_loss_fine_empty_mask_returns_zero():
    loss = loss_fine([Tensor(np.array([0.5, 0.5]))], [np.array([1.0, 0.0])], [0])
    assert loss.item() == 0.0


def test_loss_fine_masked_out_perturbation_invariant():
    y = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    p1 = [Tensor(np.array([0.6, 0.4])), Tensor(np.array([0.5, 0.5]))]
    p2 = [Tensor(np.array([0.6, 0.4])), Tensor(np.array([0.9, 0.1]))]
    mask = [1, 0]
    assert loss_fine(p1, y, mask).item() == loss_fine(p2, y, mask).item()


def test_loss_pretrain_all_gates_closed():
    rng = np.random.default_rng(19)
    state = tiny_state()
    # push the inter logit far down so every gate stays closed
    state.params["disc.b"].data[:] = np.array([20.0, 0.0])
    subs = [single_node_sub(rng.normal(size=3), coarse=c) for c in (1, 0)]
    batch = batch_of(subs)
    total, parts = loss_pretrain(batch, state)
    assert parts["gate_fraction"] == 0.0
    assert total.item() == pytest.approx(parts["loss_dis"], abs=1e-15)
    assert parts["loss_fine"] == 0.0


def test_loss_pretrain_gradient_vs_fd():
    rng = np.random.default_rng(23)
    state = tiny_state(d=3, hidden=4)
    subs = []
    for i in range(4):
        label = np.zeros(2)
        if i % 2 == 0:
            label[0], label[1] = 0.5, 0.5
            coarse = 1
        else:
            label[i % 2] = 1.0
            coarse = 0
        subs.append(
            MixedSubgraph(
                features=rng.normal(size=(3, 3)),
                edges=np.array([[0, 1], [1, 2]]),
                merged_center=0,
                coarse_label=coarse,
                mix_label=label,
                provenance=(0, 0, 1, 0, 0.5),
                node_origins=[(j, j) for j in range(3)],
            )
        )
    batch = batch_of(subs[::2] + subs[1::2])
    total, _ = loss_pretrain(batch, state, beta=1.0)
    for p in state.params.values():
        p.zero_grad()
    total.backward()
    probes = 0
    for name, p in state.params.items():
        flat = p.data.ravel()
        gflat = p.grad.ravel()
        idx = rng.choice(flat.size, size=min(5, flat.size), replace=False)
        for i in idx:
            keep = flat[i]
            flat[i] = keep + 1e-4
            up, _ = loss_pretrain(batch, state, beta=1.0)
            flat[i] = keep - 1e-4
            dn, _ = loss_pretrain(batch, state, beta=1.0)
            flat[i] = keep
            fd = (up.item() - dn.item()) / 2e-4
            denom = max(abs(fd), abs(gflat[i]), 1e-8)
            assert abs(gflat[i] - fd) / denom < 1e-4, name
            probes += 1
    assert probes >= 20


def test_adam_zero_grad_no_decay_unchanged():
    p = parameter(np.array([1.0, -2.0]))
    opt = Adam({"p": p}, lr=0.1, weight_decay=0.0)
    opt.step()
    np.testing.assert_array_equal(p.data, [1.0, -2.0])


def test_adam_single_step_magnitude():
    p = parameter(np.array([0.0]))
    opt = Adam({"p": p}, lr=1e-3, weight_decay=0.0)
    p.grad[:] = 1.0
    opt.step()
    # bias-corrected first step moves by ~lr exactly (up to eps)
    assert p.data[0] == pytest.approx(-1e-3, rel=1e-6)


def test_adam_matches_scalar_reference():
    rng = np.random.default_rng(29)
    grads = rng.normal(size=10)
    p = parameter(np.array([0.5]))
    opt = Adam({"p": p}, lr=0.01, weight_decay=0.004)
    # independent scalar re-implementation
    x = 0.5
    m = v = 0.0
    b1, b2, eps, lr, wd = 0.9, 0.999, 1e-8, 0.01, 0.004
    for t, g in enumerate(grads, start=1):
        p.grad[:] = g
        opt.step()
        x -= lr * wd * x
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1**t)
        vh = v / (1 - b2**t)
        x -= lr * mh / (math.sqrt(vh) + eps)
        assert p.data[0] == pytest.approx(x, abs=1e-12)


def test_adam_from_config_carries_run_config():
    cfg = RunConfig(weight_decay=0.003, beta1=0.8, beta2=0.99, adam_eps=1e-6)
    opt = Adam.from_config({"p": parameter(np.zeros(2))}, 0.02, cfg)
    assert (opt.lr, opt.weight_decay, opt.beta1, opt.beta2, opt.eps) == (
        0.02, 0.003, 0.8, 0.99, 1e-6,
    )


def test_adam_rejects_non_finite():
    p = parameter(np.array([1.0]))
    opt = Adam({"w": p})
    p.grad[:] = np.nan
    with pytest.raises(NonFiniteGradientError) as exc:
        opt.step()
    assert "w" in str(exc.value)


def small_training_setup(seed=0):
    rng = np.random.default_rng(seed)
    graphs = []
    for k in range(2):
        center = np.zeros(5)
        center[k] = 4.0
        feats = rng.normal(size=(30, 5)) + center
        edges = [
            (u, v)
            for u in range(30)
            for v in range(u + 1, 30)
            if rng.random() < 0.1
        ]
        graphs.append(build_domain_graph(edges, feats, domain_id=k))
    aligned, centers = align_graphs(graphs, 4)
    bsets = select_boundaries(aligned, centers, 0.4)
    return graphs, aligned, centers, bsets


def test_pretrain_runs_and_is_deterministic():
    graphs, aligned, centers, bsets = small_training_setup()
    cfg = RunConfig(
        seed=3, pca_dim=4, hidden=6, epochs_pre=4, n_pairs=4, gamma=0.0, rho=0.4
    ).validate()
    state1, hist1 = pretrain(graphs, aligned, bsets, cfg)
    state2, hist2 = pretrain(graphs, aligned, bsets, cfg)
    assert len(hist1) == 4
    assert hist1 == hist2
    for name in state1.params:
        np.testing.assert_array_equal(
            state1.params[name].data, state2.params[name].data
        )
    for row in hist1:
        assert set(row) >= {"loss_dis", "loss_fine", "gate_fraction", "epoch"}


def random_test_graph(rng, n=60, p=0.08, d=5):
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    feats = rng.normal(size=(n, d))
    return build_domain_graph(edges, feats, domain_id=0)


def test_encode_nodes_matches_full_rows():
    rng = np.random.default_rng(21)
    g = random_test_graph(rng)
    state = tiny_state(d=5, hidden=7)
    full = encode_graph(g, g.features_raw, state).data
    for _ in range(5):
        nodes = np.sort(rng.choice(g.num_nodes, size=4, replace=False))
        part = encode_nodes(g, g.features_raw, state, nodes).data
        np.testing.assert_allclose(part, full[nodes], rtol=1e-12, atol=1e-12)


def test_encode_nodes_gradient_matches_full_path():
    rng = np.random.default_rng(22)
    g = random_test_graph(rng, n=40)
    state_a = tiny_state(d=5, hidden=6, seed=4)
    state_b = tiny_state(d=5, hidden=6, seed=4)
    nodes = np.array([3, 17, 28])
    weights = rng.normal(size=(3, 6))

    xa = parameter(g.features_raw)
    (encode_nodes(g, xa, state_a, nodes) * Tensor(weights)).sum().backward()
    xb = parameter(g.features_raw)
    (encode_graph(g, xb, state_b)[nodes] * Tensor(weights)).sum().backward()

    for name in state_a.params:
        np.testing.assert_allclose(
            state_a.params[name].grad, state_b.params[name].grad,
            rtol=1e-10, atol=1e-12,
        )
    np.testing.assert_allclose(xa.grad, xb.grad, rtol=1e-10, atol=1e-12)


def test_encode_nodes_validates_ids():
    rng = np.random.default_rng(23)
    g = random_test_graph(rng, n=10)
    state = tiny_state(d=5)
    with pytest.raises(ValidationError):
        encode_nodes(g, g.features_raw, state, [])
    with pytest.raises(ValidationError):
        encode_nodes(g, g.features_raw, state, [10])


def fd_style_batch(seed):
    """A small real batch: boundary-top inter pairs and intra pairs of two
    synthetic domains, mixed from 1-hop egos; returned with the same
    subgraphs mixed one pair at a time."""
    from domainmix.align import align_graphs as align
    from domainmix.graphs import extract_ego
    from domainmix.mixing import build_batch, mix_subgraphs, sample_intra_pairs, select_pairs
    from domainmix.synth import SynthSpec, make_synth

    spec = SynthSpec(K=2, nodes_per_domain=40, classes_per_domain=2, feature_dim=10)
    sources, _, _ = make_synth(spec, seed)
    aligned, centers = align(sources, 8)
    bsets = select_boundaries(aligned, centers, 0.4)
    inter = select_pairs(bsets, aligned, 0.0, 4, rng_seed=seed)
    intra = sample_intra_pairs([np.arange(g.num_nodes) for g in sources], 4, 2, rng_seed=seed)
    egos = [
        (extract_ego(sources[p.domain_a], p.node_a, 1, aligned[p.domain_a]),
         extract_ego(sources[p.domain_b], p.node_b, 1, aligned[p.domain_b]))
        for p in inter + intra
    ]
    subs = [mix_subgraphs(a, b, 0.5, num_domains=2) for a, b in egos]
    return build_batch(inter, intra, sources, aligned, hops=1), subs


def per_subgraph_loss(subs, state, beta):
    """The pre-training loss one subgraph at a time, with the list forms."""
    pooled = [mean_pool(gcn_encode(s, state)) for s in subs]
    probs = [discriminate(h, state) for h in pooled]
    mask = gate_mask(probs)
    preds = [decompose(h, int(m), state, beta=beta) for h, m in zip(pooled, mask)]
    total = loss_dis(probs, [s.coarse_label for s in subs]) + loss_fine(
        preds, [s.mix_label for s in subs], mask
    )
    return total, mask


def test_loss_pretrain_union_matches_per_subgraph_reference():
    for seed, beta in ((31, 1.0), (32, 0.5), (33, -1.0)):
        batch, subs = fd_style_batch(seed)
        ref_state = init_model(8, 8, 2, seed=seed)
        # centre the inter logit on this batch so about half the gates open
        pooled = np.stack([mean_pool(gcn_encode(s, ref_state)).data for s in subs])
        margin = pooled @ ref_state.params["disc.w"].data
        ref_state.params["disc.b"].data[:] = (0.0, -np.median(margin[:, 1] - margin[:, 0]))
        state = init_model(8, 8, 2, seed=seed)
        state.load_data(ref_state.data_dict())

        want, mask = per_subgraph_loss(subs, ref_state, beta)
        got, parts = loss_pretrain(batch, state, beta=beta)
        assert 0 < mask.sum() < len(mask)
        inter = np.array([s.coarse_label for s in subs]) == 1
        assert parts["gate_fraction"] == mask[inter].mean()
        assert got.item() == pytest.approx(want.item(), abs=1e-12)
        want.backward()
        got.backward()
        for name in state.params:
            np.testing.assert_allclose(
                state.params[name].grad, ref_state.params[name].grad,
                rtol=1e-12, atol=1e-12, err_msg=name,
            )


def test_encode_union_gradient_vs_fd():
    from domainmix.nn import encode_union

    rng = np.random.default_rng(44)
    union = fd_style_batch(31)[0].union
    state = init_model(8, 8, 2, seed=44)
    prompt = parameter(rng.uniform(0.5, 1.5, size=8))
    weights = Tensor(rng.normal(size=(union.num_graphs, 8)))

    def scalar():
        return (encode_union(union, state, Tensor(union.ax) * prompt) * weights).sum()

    scalar().backward()
    probed = dict(state.encoder_params(), prompt=prompt)
    for name, p in probed.items():
        flat, gflat = p.data.ravel(), p.grad.ravel()
        for i in rng.choice(flat.size, size=min(8, flat.size), replace=False):
            keep = flat[i]
            flat[i] = keep + 1e-5
            up = scalar().item()
            flat[i] = keep - 1e-5
            dn = scalar().item()
            flat[i] = keep
            fd = (up - dn) / 2e-5
            assert abs(gflat[i] - fd) <= 1e-6 * max(1.0, abs(fd)), name
