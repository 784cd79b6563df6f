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


def _sample_task_loop(labels, shots, rng, query_limit=None):
    """The support/query draw one node at a time, with a set of picks."""
    support, query = [], []
    for c in sorted(int(c) for c in np.unique(labels)):
        members = np.flatnonzero(labels == c)
        chosen = set(int(i) for i in rng.choice(members, size=shots, replace=False))
        support.extend((int(i), c) for i in sorted(chosen))
        query.extend((int(i), c) for i in members if int(i) not in chosen)
    if query_limit is not None and len(query) > query_limit:
        idx = rng.choice(len(query), size=query_limit, replace=False)
        query = [query[i] for i in sorted(idx)]
    return support, query


def test_sample_task_matches_per_node_loop():
    for seed in range(40):
        labels = np.random.default_rng(seed).integers(0, 4, size=60)
        for shots in (1, 5):
            for limit in (None, 10, 1000):
                task = sample_task(labels, shots, np.random.default_rng(seed), query_limit=limit)
                want = _sample_task_loop(labels, shots, np.random.default_rng(seed), limit)
                assert (task.support, task.query) == want
                assert all(type(i) is int and type(c) is int for i, c in task.support + task.query)


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


def test_graph_mode_embeddings_match_per_ego_reference():
    from domainmix.adapt import _embed_items
    from domainmix.graphs import extract_ego
    from domainmix.nn import gcn_encode, mean_pool

    graph, feats, centers = separable_target(seed=5)
    state = init_model(6, 8, 2, seed=5)
    task = sample_task(graph.labels, 2, np.random.default_rng(5), mode="graph")
    p_mix = mixed_prompt(np.array([0.7, 0.4]), centers)
    for hops in (1, 2):
        got = _embed_items(state, graph, feats, p_mix, task.support, "graph", hops)
        for emb, (node, _) in zip(got, task.support):
            ego = extract_ego(graph, node, hops, feats)
            ego.features = ego.features * p_mix.data
            want = mean_pool(gcn_encode(ego, state)).data
            np.testing.assert_allclose(emb.data, want, rtol=1e-12, atol=1e-12)


def test_graph_mode_alpha_gradient_vs_fd():
    from domainmix.adapt import _embed_items

    graph, feats, centers = separable_target(seed=6)
    state = init_model(6, 8, 2, seed=6)
    task = sample_task(graph.labels, 2, np.random.default_rng(6), mode="graph")
    labels = [y for _, y in task.support]

    def loss_at(alpha):
        emb = _embed_items(
            state, graph, feats, mixed_prompt(alpha, centers), task.support, "graph", 1
        )
        protos = compute_prototypes(emb, task.support, task.num_classes)
        return loss_downstream(emb, labels, protos, 0.5)

    for point in ([0.6, 0.4], [1.2, -0.3]):
        alpha = parameter(np.array(point))
        loss_at(alpha).backward()
        for i in range(2):
            up, dn = np.array(point), np.array(point)
            up[i] += 1e-6
            dn[i] -= 1e-6
            fd = (loss_at(up).item() - loss_at(dn).item()) / 2e-6
            assert alpha.grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def reference_episode(state, graph, feats, centers, task, cfg):
    """One episode the scalar way: its own alpha and Adam, the prompt
    applied to the features, then evaluation query by query."""
    from domainmix.adapt import _embed_items

    def embed(p_mix, items):
        return _embed_items(state, graph, feats, p_mix, items, task.mode, cfg.hops)

    alpha = parameter(np.full(len(centers), 1.0 / len(centers)))
    opt = Adam(
        {"alpha": alpha}, lr=cfg.lr_down, weight_decay=cfg.weight_decay,
        beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.adam_eps,
    )
    labels = [y for _, y in task.support]
    history = []
    for _ in range(cfg.steps_adapt):
        emb = embed(mixed_prompt(alpha, centers), task.support)
        protos = compute_prototypes(emb, task.support, task.num_classes)
        loss = loss_downstream(emb, labels, protos, cfg.tau)
        opt.zero_grad()
        loss.backward()
        opt.step()
        history.append(loss.item())
    p_mix = mixed_prompt(alpha.data, centers)
    support = [e.data for e in embed(p_mix, task.support)]
    protos = [
        np.mean([e for e, y in zip(support, labels) if y == c], axis=0)
        for c in range(task.num_classes)
    ]
    correct = 0
    for q, (_, y) in zip(embed(p_mix, task.query), task.query):
        correct += int(np.argmax([_cosine_np(q.data, pr) for pr in protos])) == y
    return alpha.data.copy(), history, correct / len(task.query)


def episode_tasks(graph, shots, mode, count, seed=0):
    return [
        sample_task(graph.labels, shots, np.random.default_rng(seed + r), mode=mode, query_limit=15)
        for r in range(count)
    ]


@pytest.mark.parametrize("mode", ["node", "graph"])
@pytest.mark.parametrize("hops", [1, 2])
@pytest.mark.parametrize("shots", [1, 5])
def test_adapt_episodes_matches_per_episode_reference(mode, hops, shots):
    from domainmix.adapt import adapt_episodes

    graph, feats, centers = separable_target(seed=hops + shots)
    state = init_model(6, 8, 2, seed=hops)
    cfg = adapt_config(mode=mode, hops=hops, shots=shots, steps_adapt=15, lr_down=2e-2, tau=0.5)
    for tasks in (episode_tasks(graph, shots, mode, 3), episode_tasks(graph, shots, mode, 1, seed=9)):
        alphas, histories, accuracies = adapt_episodes(state, graph, feats, centers, tasks, cfg)
        assert alphas.shape == (len(tasks), 2)
        for r, task in enumerate(tasks):
            alpha, history, acc = reference_episode(state, graph, feats, centers, task, cfg)
            np.testing.assert_allclose(alphas[r], alpha, rtol=0, atol=1e-10)
            np.testing.assert_allclose(histories[r], history, rtol=0, atol=1e-10)
            assert accuracies[r] == acc
            assert evaluate(state, alphas[r], graph, feats, centers, task, cfg) == acc


def test_adapt_episodes_alpha_does_not_depend_on_other_tasks():
    from domainmix.adapt import adapt_episodes

    graph, feats, centers = separable_target(seed=4)
    state = init_model(6, 8, 2, seed=4)
    for mode in ("node", "graph"):
        cfg = adapt_config(mode=mode, shots=2, steps_adapt=10, lr_down=2e-2)
        tasks = episode_tasks(graph, 2, mode, 4, seed=20)
        order = [2, 0, 3, 1]
        together, _, accs = adapt_episodes(state, graph, feats, centers, [tasks[i] for i in order], cfg)
        for position, i in enumerate(order):
            alone, _, acc = adapt_episodes(state, graph, feats, centers, [tasks[i]], cfg)
            np.testing.assert_array_equal(together[position], alone[0])
            assert accs[position] == acc[0]


def test_batched_support_loss_alpha_gradient_vs_fd():
    from domainmix.adapt import _Episodes

    graph, feats, centers = separable_target(seed=7)
    state = init_model(6, 8, 2, seed=7)
    rng = np.random.default_rng(7)
    for mode in ("node", "graph"):
        cfg = adapt_config(mode=mode, shots=2, tau=0.5)
        tasks = episode_tasks(graph, 2, mode, 3, seed=30)
        log_likelihoods, episode = _Episodes(state, graph, feats, centers, tasks, cfg).support_objective()
        assert list(episode) == [r for r, t in enumerate(tasks) for _ in t.support]
        point = rng.uniform(-0.5, 1.5, size=(3, 2))
        alpha = parameter(point.copy())
        (-log_likelihoods(alpha).sum()).backward()
        for idx in np.ndindex(point.shape):
            up, dn = point.copy(), point.copy()
            up[idx] += 1e-6
            dn[idx] -= 1e-6
            fd = (log_likelihoods(Tensor(dn)).data.sum() - log_likelihoods(Tensor(up)).data.sum()) / 2e-6
            assert alpha.grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_adapt_episodes_raises_typed_error_when_encoder_changes(monkeypatch):
    from domainmix.adapt import adapt_episodes

    graph, feats, centers = separable_target()
    state = init_model(6, 8, 2, seed=4)

    class LeakyAdam(Adam):
        def step(self):
            super().step()
            state.params["encoder.w2"].data *= 1.0 + 1e-9

    monkeypatch.setattr(importlib.import_module("domainmix.adapt"), "Adam", LeakyAdam)
    tasks = episode_tasks(graph, 1, "node", 3)
    with pytest.raises(EncoderMutatedError, match="encoder.w2"):
        adapt_episodes(state, graph, feats, centers, tasks, adapt_config(steps_adapt=2))


def test_graph_episodes_extract_each_ego_once(monkeypatch):
    adapt_module = importlib.import_module("domainmix.adapt")
    real = adapt_module.extract_egos
    calls = []

    def counting(graph, centers, hops, features=None):
        calls.extend(int(c) for c in centers)
        return real(graph, centers, hops, features)

    monkeypatch.setattr(adapt_module, "extract_egos", counting)
    graph, feats, centers = separable_target(seed=8)
    state = init_model(6, 8, 2, seed=8)
    tasks = episode_tasks(graph, 2, "graph", 5, seed=40)
    items = [n for t in tasks for n, _ in t.support + t.query]
    assert len(set(items)) < len(items), "no item shared between tasks"
    cfg = adapt_config(mode="graph", shots=2, steps_adapt=3)
    adapt_module.adapt_episodes(state, graph, feats, centers, tasks, cfg)
    assert sorted(calls) == sorted(set(items))


class PerTaskUnionEpisodes(importlib.import_module("domainmix.adapt")._Episodes):
    """The episodes laid out as before graph tasks shared one union: each
    graph task propagates over its own union of its support and query
    egos, extracted one at a time."""

    def __init__(self, state, target, target_aligned, centers, tasks, config):
        from domainmix.graphs import extract_ego, graph_union

        self.target, self.tasks, self.config = target, tasks, config
        matrix = np.asarray(target_aligned, dtype=np.float64)
        pieces, self._pools, self._node_offset = [], {}, None
        for r, task in enumerate(tasks):
            offset = sum(len(p) for p in pieces)
            if task.mode != "node":
                items = task.support + task.query
                union = graph_union([extract_ego(target, int(n), config.hops, matrix) for n, _ in items])
                self._pools[r] = (union.pool_a, offset)
                pieces.append(union.ax)
            elif self._node_offset is None:
                self._node_offset = offset
                pieces.append(target.a_hat @ matrix)
        self.ax = np.concatenate(pieces)
        self.centers = np.stack([c.vector for c in centers])
        self.w1 = state.params["encoder.w1"].data
        self.w2 = Tensor(state.params["encoder.w2"].data)

    def _layout(self, parts):
        import scipy.sparse as sp

        from domainmix.nn import _restriction

        blocks = []
        for r, count in parts:
            task = self.tasks[r]
            if task.mode == "node":
                nodes = np.array([int(n) for n, _ in (task.support + task.query)[:count]])
                rows0, cols = _restriction(self.target, nodes)
                blocks.append((rows0, cols + self._node_offset))
            else:
                pool_a, offset = self._pools[r]
                cols = np.unique(pool_a[:count].indices)
                blocks.append((pool_a[:count][:, cols], cols + offset))
        owner = np.repeat(np.arange(len(blocks)), [len(cols) for _, cols in blocks])
        cols = np.concatenate([cols for _, cols in blocks])
        y = (self.ax[cols][None, :, :] * self.centers[:, None, :]) @ self.w1
        return owner, Tensor(y), sp.block_diag([rows0 for rows0, _ in blocks], format="csr")


@pytest.mark.parametrize("hops", [1, 2])
def test_shared_ego_union_matches_per_task_union_reference(hops):
    from domainmix.adapt import adapt_episodes

    graph, feats, centers = separable_target(seed=11 + hops)
    # relabel the nodes at random, so a task's items (class by class) are
    # not in node order and the union's block order differs from theirs
    perm = np.random.default_rng(hops).permutation(graph.num_nodes)
    feats = feats[np.argsort(perm)]
    graph = build_domain_graph(perm[graph.edge_array()], feats, labels=graph.labels[np.argsort(perm)])
    state = init_model(6, 8, 2, seed=hops)
    cfg = adapt_config(hops=hops, steps_adapt=15, lr_down=2e-2, tau=0.5)
    rng = np.random.default_rng(hops)
    # unequal support and query sizes, one node task among graph tasks
    tasks = [
        sample_task(graph.labels, 1, rng, mode="graph"),
        sample_task(graph.labels, 3, rng, mode="graph", query_limit=7),
        sample_task(graph.labels, 2, rng, mode="node", query_limit=12),
        sample_task(graph.labels, 2, rng, mode="graph", query_limit=12),
    ]
    alphas, histories, accuracies = adapt_episodes(state, graph, feats, centers, tasks, cfg)
    reference = PerTaskUnionEpisodes(state, graph, feats, centers, tasks, cfg)
    want_alphas, want_histories = reference.fit()
    np.testing.assert_array_equal(alphas, want_alphas)
    np.testing.assert_array_equal(histories, want_histories)
    np.testing.assert_array_equal(accuracies, reference.accuracies(want_alphas))
