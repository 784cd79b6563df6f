"""Frozen-encoder few-shot adaptation through a learnable prompt.

The only trainable parameters are K scalars alpha weighting the source
domain centers into a prompt vector p = sum_k alpha_k c_k; target features
are modulated rowwise by p before entering the frozen encoder. Class
prototypes are support-embedding means and classification is nearest
prototype under temperature-scaled cosine similarity.

Since p scales feature columns and the encoder is frozen, the first layer
is linear in alpha: (A_hat X * p) W1 = sum_k alpha_k Y_k with the fixed
projections Y_k = (A_hat X * c_k) W1. ``adapt_episodes`` trains every
episode's alpha at once on them: episodes share no term and Adam is
elementwise, so each episode follows the path it would follow alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np
import scipy.sparse as sp

from .align import as_array
from .autodiff import Tensor, as_tensor, einsum, parameter, spmm, stack
from .errors import EncoderMutatedError, ValidationError
from .graphs import extract_egos, graph_union
from .nn import PROB_FLOOR, _restriction, encode_nodes, encode_union
from .optim import Adam

# keeps cosine well-defined on (vanishingly unlikely) zero embeddings
_NORM_EPS = 1e-24


@dataclass
class FewShotTask:
    shots: int
    support: list  # (node id, class) pairs, shots per class
    query: list  # (node id, class) pairs, disjoint from support
    num_classes: int
    mode: str  # "node" or "graph"


def sample_task(
    labels, shots: int, rng, mode: str = "node", query_limit=None
) -> FewShotTask:
    """Draw a k-shot episode: k support nodes per class, the rest as query."""
    labels = np.asarray(labels, dtype=np.int64)
    classes = sorted(int(c) for c in np.unique(labels))
    num_classes = len(classes)
    if num_classes < 2:
        raise ValidationError(f"need at least 2 classes, got {num_classes}")
    support, query = [], []
    for c in classes:
        members = np.flatnonzero(labels == c)
        if len(members) < shots + 1:
            raise ValidationError(
                f"class {c} has {len(members)} nodes, needs at least {shots + 1}"
            )
        picked = np.sort(rng.choice(members, size=shots, replace=False))
        # members is sorted, so each pick's position is a binary search
        in_query = np.ones(len(members), dtype=bool)
        in_query[np.searchsorted(members, picked)] = False
        support.extend(zip(picked.tolist(), repeat(c)))
        query.extend(zip(members[in_query].tolist(), repeat(c)))
    if query_limit is not None and len(query) > query_limit:
        idx = rng.choice(len(query), size=query_limit, replace=False)
        query = [query[i] for i in sorted(idx)]
    return FewShotTask(
        shots=shots,
        support=support,
        query=query,
        num_classes=num_classes,
        mode=mode,
    )


def mixed_prompt(alpha, centers) -> Tensor:
    """p = sum_i alpha_i c_i; alpha may be a Tensor or plain array."""
    mat = np.stack([as_array(c, "vector") for c in centers])
    alpha = as_tensor(alpha)
    if alpha.data.shape != (mat.shape[0],):
        raise ValidationError(
            f"alpha has shape {alpha.data.shape}, expected ({mat.shape[0]},)"
        )
    return alpha @ Tensor(mat)


def apply_prompt(features, p_mix) -> Tensor:
    """Rowwise Hadamard modulation of the target features."""
    x, p = as_tensor(features), as_tensor(p_mix)
    if x.data.shape[1] != p.data.shape[0]:
        raise ValidationError(
            f"feature width {x.data.shape[1]} does not match prompt length "
            f"{p.data.shape[0]}"
        )
    return x * p


def _embed_items(state, graph, aligned_matrix, p_mix, items, mode, hops):
    """One embedding Tensor per (node, label) item under the prompt p_mix:
    node rows of the encoded target graph, or pooled prompted egos."""
    if mode == "node":
        nodes = np.array([int(node) for node, _ in items])
        h = encode_nodes(graph, apply_prompt(aligned_matrix, p_mix), state, nodes)
    else:
        union = graph_union(extract_egos(graph, [node for node, _ in items], hops, aligned_matrix))
        h = encode_union(union, state, apply_prompt(union.ax, p_mix))
    return [h[i] for i in range(len(items))]


def _group_means(groups, num_groups: int):
    """``means(emb)``, whose row g is the mean of the rows i of the Tensor
    ``emb`` with groups[i] == g."""
    groups = np.asarray(groups, dtype=np.int64)
    members = sp.csr_matrix(
        (np.ones(len(groups)), (groups, np.arange(len(groups)))),
        shape=(num_groups, len(groups)),
    )
    counts = np.bincount(groups, minlength=num_groups).astype(np.float64)[:, None]
    return lambda emb: spmm(members, emb) / counts


def _checked_labels(items, num_classes: int) -> list:
    """The items' labels, after checking that each is a class and each
    class has an item."""
    labels = [label for _, label in items]
    for label in labels:
        if not 0 <= label < num_classes:
            raise ValidationError(f"label {label} out of range")
    missing = sorted(set(range(num_classes)) - set(labels))
    if missing:
        raise ValidationError(f"class {missing[0]} has no support items")
    return labels


def compute_prototypes(embeddings, items, num_classes: int):
    """Per-class mean of support embeddings."""
    labels = _checked_labels(items, num_classes)
    means = _group_means(labels, num_classes)(stack(list(embeddings)))
    return [means[c] for c in range(num_classes)]


def _log_likelihoods(emb: Tensor, protos: Tensor, choices, labels, tau: float) -> Tensor:
    """ln of the clamped softmax(cos / tau) of each embedding row at its
    label, where row i competes over the prototypes protos[choices[i]]."""

    def norms(t):
        return ((t * t).sum(axis=1) + _NORM_EPS).sqrt()

    dots = einsum("sh,sch->sc", emb, protos[choices])
    cos = dots / einsum("s,sc->sc", norms(emb), norms(protos)[choices])
    probs = (cos / tau).softmax().clamp(lo=PROB_FLOOR)
    return probs[np.arange(len(labels)), np.asarray(labels, dtype=np.int64)].log()


def loss_downstream(embeddings, labels, prototypes, tau: float) -> Tensor:
    """Prototype cross-entropy: -sum ln softmax(sim/tau)[label]."""
    if tau <= 0:
        raise ValidationError(f"tau must be > 0, got {tau}")
    emb, protos = stack(list(embeddings)), stack(list(prototypes))
    choices = np.tile(np.arange(len(prototypes)), (len(labels), 1))
    return -_log_likelihoods(emb, protos, choices, labels, tau).sum()


class _Episodes:
    """Few-shot tasks on one frozen encoder, with the prompt folded into
    the projections Y_k = (A_hat X * c_k) W1.

    A_hat X is propagated once: over the target graph for node tasks, and
    over one union of the egos of all graph tasks' support and query
    nodes, each ego extracted once. Items embed as rows0 @ relu(sum_k
    alpha_k Y_k[cols]) @ W2, with rows0 their second-propagation (node)
    or pooling (graph) rows over ``cols``.
    """

    def __init__(self, state, target, target_aligned, centers, tasks, config):
        if not tasks:
            raise ValidationError("no few-shot tasks given")
        for task in tasks:
            if task.num_classes != tasks[0].num_classes:
                raise ValidationError("all tasks must have the same number of classes")
            _checked_labels(task.support, task.num_classes)
        self.target, self.tasks, self.config = target, tasks, config
        matrix = as_array(target_aligned, "matrix")
        nodes = [int(n) for t in tasks if t.mode != "node" for n, _ in t.support + t.query]
        self._ego_nodes, pieces = np.unique(nodes), []
        if any(t.mode == "node" for t in tasks):
            pieces.append(target.a_hat @ matrix)
        self._ego_offset = sum(len(p) for p in pieces)
        if nodes:
            egos = extract_egos(target, self._ego_nodes, config.hops, matrix)
            union = graph_union(egos)
            self._pool_a, self._sizes = union.pool_a, np.array([e.num_nodes for e in egos])
            pieces.append(union.ax)
        self.ax = np.concatenate(pieces)
        self.centers = np.stack([as_array(c, "vector") for c in centers])
        self.w1 = state.params["encoder.w1"].data
        self.w2 = Tensor(state.params["encoder.w2"].data)

    def _layout(self, parts):
        """All that embedding ``parts`` needs besides alpha, where part i,
        ``(r, count)``, is the first ``count`` items (support, then query)
        of task r under alpha row i: each row's part, Y and rows0."""
        blocks = []
        for r, count in parts:
            task = self.tasks[r]
            if task.mode == "node":
                nodes = np.array([int(n) for n, _ in (task.support + task.query)[:count]])
                blocks.append(_restriction(self.target, nodes))
            else:
                blocks.append(self._pool_rows([n for n, _ in (task.support + task.query)[:count]]))
        owner = np.repeat(np.arange(len(blocks)), [len(cols) for _, cols in blocks])
        cols = np.concatenate([cols for _, cols in blocks])
        y = (self.ax[cols][None, :, :] * self.centers[:, None, :]) @ self.w1
        return owner, Tensor(y), sp.block_diag([rows0 for rows0, _ in blocks], format="csr")

    def _pool_rows(self, nodes):
        """The pooling rows of the (distinct) ``nodes``' egos over their
        rows of ``ax``: each ego's block, in the order of ``nodes``."""
        egos = np.searchsorted(self._ego_nodes, nodes)
        sizes = self._sizes[egos]
        starts = (np.cumsum(self._sizes) - self._sizes)[egos]
        cols = np.repeat(starts - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())
        return self._pool_a[egos][:, cols], cols + self._ego_offset

    def _embed(self, alpha: Tensor, layout) -> Tensor:
        owner, y, rows0 = layout
        return spmm(rows0, einsum("mk,kmh->mh", alpha[owner], y).relu()) @ self.w2

    def support_objective(self):
        """``(log_likelihoods, episode)``: log_likelihoods(alpha) is the
        Tensor of every task's support items' log-likelihoods, item i under
        row episode[i] of the (R, K) alpha."""
        tasks, num_classes = self.tasks, self.tasks[0].num_classes
        layout = self._layout([(r, len(t.support)) for r, t in enumerate(tasks)])
        labels = np.array([y for t in tasks for _, y in t.support], dtype=np.int64)
        episode = np.repeat(np.arange(len(tasks)), [len(t.support) for t in tasks])
        class_means = _group_means(episode * num_classes + labels, len(tasks) * num_classes)
        choices = episode[:, None] * num_classes + np.arange(num_classes)

        def log_likelihoods(alpha: Tensor) -> Tensor:
            emb = self._embed(alpha, layout)
            return _log_likelihoods(emb, class_means(emb), choices, labels, self.config.tau)

        return log_likelihoods, episode

    def fit(self):
        """Adam on the (R, K) alpha against the sum of the support losses;
        returns (alphas, per-episode loss histories)."""
        cfg, num_episodes = self.config, len(self.tasks)
        log_likelihoods, episode = self.support_objective()
        alpha = parameter(np.full((num_episodes, len(self.centers)), 1.0 / len(self.centers)))
        opt = Adam.from_config({"alpha": alpha}, cfg.lr_down, cfg)
        history = np.empty((cfg.steps_adapt, num_episodes))
        for step in range(cfg.steps_adapt):
            log_lik = log_likelihoods(alpha)
            loss = -log_lik.sum()
            opt.zero_grad()
            loss.backward()
            opt.step()
            history[step] = -np.bincount(episode, weights=log_lik.data, minlength=num_episodes)
        return alpha.data.copy(), history.T.tolist()

    def accuracies(self, alphas) -> list:
        """Nearest-prototype query accuracy of each task under its alpha."""
        out = []
        for r, task in enumerate(self.tasks):
            if not task.query:
                out.append(0.0)
                continue
            n_support = len(task.support)
            layout = self._layout([(r, n_support + len(task.query))])
            emb = self._embed(Tensor(alphas[r : r + 1]), layout).data
            labels = [y for _, y in task.support]
            protos = _group_means(labels, task.num_classes)(Tensor(emb[:n_support])).data
            predicted = np.argmax(_cosine_np(emb[n_support:], protos), axis=1)
            correct = np.count_nonzero(predicted == np.array([y for _, y in task.query]))
            out.append(correct / len(task.query))
        return out


def adapt_episodes(state, target, target_aligned, centers, tasks, config):
    """Optimize each task's alpha on its support loss, all tasks at once;
    the encoder stays frozen. Returns (alphas as an (R, K) array, each
    episode's loss history, each episode's query accuracy)."""
    episodes = _Episodes(state, target, target_aligned, centers, tasks, config)
    frozen = {name: t.data.copy() for name, t in state.params.items()}
    alphas, histories = episodes.fit()
    for name, before in frozen.items():
        if not np.array_equal(before, state.params[name].data):
            raise EncoderMutatedError(f"encoder parameter {name} changed during adaptation")
    return alphas, histories, episodes.accuracies(alphas)


def adapt(state, target, target_aligned, centers, task: FewShotTask, config):
    """Optimize alpha on the support loss; the encoder stays frozen."""
    alphas, histories, _ = adapt_episodes(state, target, target_aligned, centers, [task], config)
    return alphas[0], histories[0]


def evaluate(state, alpha, target, target_aligned, centers, task: FewShotTask, config) -> float:
    """Nearest-prototype accuracy over the query set."""
    episodes = _Episodes(state, target, target_aligned, centers, [task], config)
    return episodes.accuracies(np.asarray(alpha, dtype=np.float64)[None])[0]


def _cosine_np(u, v):
    """Cosine of two vectors, or the matrix of cosines between the rows of
    two matrices."""
    u, v = np.asarray(u), np.asarray(v)
    nu = np.sqrt((u * u).sum(axis=-1) + _NORM_EPS)
    nv = np.sqrt((v * v).sum(axis=-1) + _NORM_EPS)
    return (u @ v.T) / np.multiply.outer(nu, nv)
