import importlib
import math
import statistics

import numpy as np
import pytest

from domainmix.adapt import (
    FewShotTask,
    _cosine_np,
    adapt,
    apply_prompt,
    compute_prototypes,
    evaluate,
    loss_downstream,
    mixed_prompt,
    sample_task,
)
from domainmix.align import DomainCenter
from domainmix.autodiff import Tensor, parameter
from domainmix.config import RunConfig
from domainmix.errors import EncoderMutatedError, ValidationError
from domainmix.graphs import build_domain_graph
from domainmix.io import save_checkpoint
from domainmix.nn import init_model
from domainmix.optim import Adam


def centers_of(vectors):
    return [DomainCenter(i, np.asarray(v, dtype=np.float64)) for i, v in enumerate(vectors)]


def test_mixed_prompt_one_hot_and_zero():
    cs = centers_of([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    np.testing.assert_array_equal(mixed_prompt([0.0, 1.0, 0.0], cs).data, [3.0, 4.0])
    np.testing.assert_array_equal(mixed_prompt([0.0, 0.0, 0.0], cs).data, [0.0, 0.0])


def test_mixed_prompt_loop_oracle():
    rng = np.random.default_rng(1)
    vecs = [rng.normal(size=4) for _ in range(3)]
    alpha = rng.normal(size=3)
    got = mixed_prompt(alpha, centers_of(vecs)).data
    want = [
        sum(alpha[i] * vecs[i][t] for i in range(3)) for t in range(4)
    ]
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_mixed_prompt_shape_check():
    with pytest.raises(ValidationError):
        mixed_prompt([1.0, 2.0], centers_of([[0.0, 0.0]]))


def test_apply_prompt_identity_and_zero():
    x = np.arange(6.0).reshape(2, 3)
    np.testing.assert_array_equal(apply_prompt(x, np.ones(3)).data, x)
    np.testing.assert_array_equal(apply_prompt(x, np.zeros(3)).data, np.zeros((2, 3)))


def test_apply_prompt_loop_oracle():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 3))
    p = rng.normal(size=3)
    got = apply_prompt(x, p).data
    for i in range(4):
        for j in range(3):
            assert got[i, j] == x[i, j] * p[j]


def test_apply_prompt_width_mismatch():
    with pytest.raises(ValidationError):
        apply_prompt(np.ones((2, 3)), np.ones(4))


def test_prototypes_one_shot_and_mean():
    embs = [Tensor(np.array([1.0, 0.0])), Tensor(np.array([0.0, 2.0])),
            Tensor(np.array([2.0, 2.0]))]
    items = [(0, 0), (1, 1), (2, 1)]
    protos = compute_prototypes(embs, items, 2)
    np.testing.assert_array_equal(protos[0].data, [1.0, 0.0])
    np.testing.assert_array_equal(protos[1].data, [1.0, 2.0])


def test_prototypes_loop_oracle():
    rng = np.random.default_rng(3)
    embs = [Tensor(rng.normal(size=4)) for _ in range(15)]
    items = [(i, i % 3) for i in range(15)]
    protos = compute_prototypes(embs, items, 3)
    for c in range(3):
        members = [embs[i].data for i in range(15) if i % 3 == c]
        want = [sum(m[t] for m in members) / len(members) for t in range(4)]
        np.testing.assert_allclose(protos[c].data, want, atol=1e-12)


def test_prototypes_empty_class_error():
    with pytest.raises(ValidationError):
        compute_prototypes([Tensor(np.ones(2))], [(0, 0)], 2)


def test_loss_downstream_single_class_zero():
    emb = Tensor(np.array([1.0, 1.0]))
    loss = loss_downstream([emb], [0], [Tensor(np.array([2.0, 0.0]))], 1.0)
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_loss_downstream_antipodal_closed_form():
    u = np.array([1.0, 0.0])
    loss = loss_downstream(
        [Tensor(u)], [0], [Tensor(u), Tensor(-u)], 1.0
    )
    want = -math.log(math.e / (math.e + math.exp(-1.0)))
    assert loss.item() == pytest.approx(want, abs=1e-6)


def test_loss_downstream_scalar_oracle():
    rng = np.random.default_rng(5)
    embs = [Tensor(rng.normal(size=6)) for _ in range(8)]
    protos = [Tensor(rng.normal(size=6)) for _ in range(3)]
    labels = list(rng.integers(0, 3, size=8))
    tau = 0.7
    loss = loss_downstream(embs, labels, protos, tau)
    want = 0.0
    for emb, y in zip(embs, labels):
        sims = []
        for p in protos:
            nu = math.sqrt(sum(v * v for v in emb.data))
            nv = math.sqrt(sum(v * v for v in p.data))
            sims.append(sum(a * b for a, b in zip(emb.data, p.data)) / (nu * nv))
        exps = [math.exp(s / tau) for s in sims]
        want -= math.log(exps[y] / sum(exps))
    assert loss.item() == pytest.approx(want, abs=1e-9)


def test_loss_downstream_gradient_vs_fd():
    rng = np.random.default_rng(6)
    centers = centers_of([rng.uniform(0.5, 1.5, size=5) for _ in range(3)])
    feats = rng.normal(size=(6, 5))
    protos_feats = rng.normal(size=(2, 5))

    def build(alpha_arr):
        alpha = (
            alpha_arr if isinstance(alpha_arr, Tensor) else Tensor(alpha_arr)
        )
        p = mixed_prompt(alpha, centers)
        x = apply_prompt(feats, p)
        embs = [x[i] for i in range(4)]
        protos = [x[4], x[5]]
        return loss_downstream(embs, [0, 1, 0, 1], protos, 1.0)

    a0 = rng.normal(size=3) * 0.5 + 1.0
    t = parameter(a0)
    build(t).backward()
    for i in range(3):
        keep = a0[i]
        a0[i] = keep + 1e-5
        up = build(a0).item()
        a0[i] = keep - 1e-5
        dn = build(a0).item()
        a0[i] = keep
        fd = (up - dn) / 2e-5
        assert abs(t.grad[i] - fd) / max(abs(fd), 1e-8) < 1e-4


def test_sample_task_protocol():
    labels = np.array([0] * 10 + [1] * 10 + [2] * 10)
    task = sample_task(labels, 2, np.random.default_rng(0))
    assert task.num_classes == 3
    assert len(task.support) == 6
    per_class = [sum(1 for _, c in task.support if c == k) for k in range(3)]
    assert per_class == [2, 2, 2]
    support_ids = {i for i, _ in task.support}
    query_ids = {i for i, _ in task.query}
    assert not support_ids & query_ids
    assert len(task.query) == 24
    again = sample_task(labels, 2, np.random.default_rng(0))
    assert task.support == again.support and task.query == again.query
    capped = sample_task(labels, 2, np.random.default_rng(0), query_limit=5)
    assert len(capped.query) == 5


def test_sample_task_insufficient_class():
    labels = np.array([0, 0, 1])
    with pytest.raises(ValidationError):
        sample_task(labels, 1, np.random.default_rng(0))


def separable_target(seed=0, n_per_class=12, num_classes=3, d=6):
    rng = np.random.default_rng(seed)
    feats, labels = [], []
    for c in range(num_classes):
        mu = np.zeros(d)
        mu[c] = 5.0
        feats.append(rng.normal(scale=0.3, size=(n_per_class, d)) + mu + 1.0)
        labels.extend([c] * n_per_class)
    feats = np.vstack(feats)
    n = len(feats)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            same = labels[u] == labels[v]
            if rng.random() < (0.25 if same else 0.02):
                edges.append((u, v))
    graph = build_domain_graph(edges, feats, domain_id=3, labels=np.array(labels))
    centers = centers_of(
        [np.ones(d), np.ones(d) * 0.8 + rng.normal(scale=0.05, size=d)]
    )
    return graph, feats, centers


def adapt_config(**kw):
    base = dict(
        seed=0, pca_dim=6, hidden=8, steps_adapt=12, lr_down=1e-3,
        shots=1, tau=1.0,
    )
    base.update(kw)
    return RunConfig(**base).validate()


def test_adapt_param_count_and_freeze(tmp_path):
    graph, feats, centers = separable_target()
    state = init_model(6, 8, 2, seed=4)
    before = tmp_path / "before.ckpt"
    after = tmp_path / "after.ckpt"
    save_checkpoint(before, state.data_dict())
    task = sample_task(graph.labels, 1, np.random.default_rng(1))
    cfg = adapt_config()
    alpha, history = adapt(state, graph, feats, centers, task, cfg)
    save_checkpoint(after, state.data_dict())
    assert alpha.shape == (2,)
    assert before.read_bytes() == after.read_bytes()
    assert len(history) == cfg.steps_adapt


def test_adapt_raises_typed_error_when_encoder_changes(monkeypatch):
    graph, feats, centers = separable_target()
    state = init_model(6, 8, 2, seed=4)

    class LeakyAdam(Adam):
        def step(self):
            super().step()
            state.params["encoder.w1"].data += 1e-3

    # the package re-exports the function ``adapt`` under the module's name
    monkeypatch.setattr(importlib.import_module("domainmix.adapt"), "Adam", LeakyAdam)
    task = sample_task(graph.labels, 1, np.random.default_rng(1))
    with pytest.raises(EncoderMutatedError, match="encoder.w1"):
        adapt(state, graph, feats, centers, task, adapt_config(steps_adapt=2))


def test_adapt_loss_non_increasing_early():
    drops = []
    for seed in range(5):
        graph, feats, centers = separable_target(seed=seed)
        state = init_model(6, 8, 2, seed=seed)
        task = sample_task(graph.labels, 2, np.random.default_rng(seed))
        _, history = adapt(state, graph, feats, centers, task, adapt_config(seed=seed))
        drops.append(history[9] - history[0])
    assert statistics.median(drops) <= 1e-9


def test_evaluate_support_as_query_is_perfect():
    graph, feats, centers = separable_target()
    state = init_model(6, 8, 2, seed=7)
    task = sample_task(graph.labels, 1, np.random.default_rng(2))
    cfg = adapt_config(steps_adapt=3)
    alpha, _ = adapt(state, graph, feats, centers, task, cfg)
    clone = FewShotTask(
        shots=task.shots,
        support=task.support,
        query=task.support,
        num_classes=task.num_classes,
        mode="node",
    )
    acc = evaluate(state, alpha, graph, feats, centers, clone, cfg)
    assert acc == 1.0


def test_evaluate_graph_mode_runs():
    graph, feats, centers = separable_target()
    state = init_model(6, 8, 2, seed=8)
    task = sample_task(
        graph.labels, 1, np.random.default_rng(3), mode="graph", query_limit=6
    )
    cfg = adapt_config(steps_adapt=2, mode="graph")
    alpha, _ = adapt(state, graph, feats, centers, task, cfg)
    acc = evaluate(state, alpha, graph, feats, centers, task, cfg)
    assert 0.0 <= acc <= 1.0


def test_nearest_prototype_monte_carlo_chance():
    rng = np.random.default_rng(11)
    protos = [rng.normal(size=16), rng.normal(size=16)]
    hits = 0
    trials = 2000
    for _ in range(trials):
        q = rng.normal(size=16)
        label = int(rng.integers(2))
        sims = [_cosine_np(q, p) for p in protos]
        hits += int(np.argmax(sims)) == label
    assert abs(hits / trials - 0.5) < 0.1


def test_cosine_scale_invariance():
    rng = np.random.default_rng(13)
    u, v = rng.normal(size=5), rng.normal(size=5)
    for c in (0.1, 3.0, 250.0):
        assert _cosine_np(c * u, v) == pytest.approx(_cosine_np(u, v), abs=1e-9)
