"""Frozen-encoder few-shot adaptation through a learnable prompt.

The only trainable parameters are K scalars alpha weighting the source
domain centers into a prompt vector p = sum_i alpha_i c_i; target features
are modulated rowwise by p before entering the frozen encoder. Class
prototypes are support-embedding means and classification is nearest
prototype under temperature-scaled cosine similarity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Tensor, as_tensor, dot, parameter, stack
from .errors import EncoderMutatedError, ValidationError
from .graphs import extract_ego
from .nn import PROB_FLOOR, encode_nodes, gcn_encode, mean_pool
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
        picked = rng.choice(members, size=shots, replace=False)
        chosen = set(int(i) for i in picked)
        support.extend((int(i), c) for i in sorted(chosen))
        query.extend((int(i), c) for i in members if int(i) not in chosen)
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
    mat = np.stack(
        [np.asarray(getattr(c, "vector", c), dtype=np.float64) for c in centers]
    )
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


def _encode_items(state, graph, aligned_matrix, p_mix, items, mode, hops):
    """Embedding matrix for (node, label) items, and each item's row in it.

    Node mode embeds the distinct nodes with one encode_nodes call; graph
    mode stacks the pooled embeddings of each item's prompted ego.
    """
    if mode == "node":
        wanted = sorted({int(node) for node, _ in items})
        x = apply_prompt(aligned_matrix, p_mix)
        h = encode_nodes(graph, x, state, np.array(wanted))
        row_of = {node: i for i, node in enumerate(wanted)}
        return h, [row_of[int(node)] for node, _ in items]
    pooled = []
    for node, _ in items:
        ego = extract_ego(graph, int(node), hops, aligned_matrix)
        prompted = replace(ego, features=apply_prompt(ego.features, p_mix))
        pooled.append(mean_pool(gcn_encode(prompted, state)))
    return stack(pooled), list(range(len(items)))


def _embed_items(state, graph, aligned_matrix, p_mix, items, mode, hops):
    """One embedding Tensor per (node, label) item."""
    h, rows = _encode_items(state, graph, aligned_matrix, p_mix, items, mode, hops)
    return [h[r] for r in rows]


def compute_prototypes(embeddings, items, num_classes: int):
    """Per-class mean of support embeddings."""
    by_class = {c: [] for c in range(num_classes)}
    for emb, (_, label) in zip(embeddings, items):
        if label not in by_class:
            raise ValidationError(f"label {label} out of range")
        by_class[label].append(emb)
    protos = []
    for c in range(num_classes):
        if not by_class[c]:
            raise ValidationError(f"class {c} has no support items")
        protos.append(stack(by_class[c]).mean(axis=0))
    return protos


def _cosine(u: Tensor, v: Tensor) -> Tensor:
    nu = (dot(u, u) + _NORM_EPS).sqrt()
    nv = (dot(v, v) + _NORM_EPS).sqrt()
    return dot(u, v) / (nu * nv)


def loss_downstream(embeddings, labels, prototypes, tau: float) -> Tensor:
    """Prototype cross-entropy: -sum ln softmax(sim/tau)[label]."""
    if tau <= 0:
        raise ValidationError(f"tau must be > 0, got {tau}")
    terms = []
    for emb, label in zip(embeddings, labels):
        sims = stack([_cosine(emb, p) for p in prototypes])
        probs = (sims / tau).softmax().clamp(lo=PROB_FLOOR)
        terms.append(probs[int(label)].log())
    return -stack(terms).sum()


def adapt(state, target, target_aligned, centers, task: FewShotTask, config):
    """Optimize alpha on the support loss; the encoder stays frozen."""
    num_domains = len(centers)
    alpha = parameter(np.full(num_domains, 1.0 / num_domains))
    opt = Adam(
        {"alpha": alpha},
        lr=config.lr_down,
        weight_decay=config.weight_decay,
        beta1=config.beta1,
        beta2=config.beta2,
        eps=config.adam_eps,
    )
    frozen = {name: t.data.copy() for name, t in state.params.items()}
    matrix = getattr(target_aligned, "matrix", target_aligned)
    history = []
    for _ in range(config.steps_adapt):
        p_mix = mixed_prompt(alpha, centers)
        support_emb = _embed_items(
            state, target, matrix, p_mix, task.support, task.mode, config.hops
        )
        protos = compute_prototypes(support_emb, task.support, task.num_classes)
        loss = loss_downstream(
            support_emb, [y for _, y in task.support], protos, config.tau
        )
        opt.zero_grad()
        loss.backward()
        opt.step()
        history.append(loss.item())
    for name, before in frozen.items():
        if not np.array_equal(before, state.params[name].data):
            raise EncoderMutatedError(f"encoder parameter {name} changed during adaptation")
    return alpha.data.copy(), history


def evaluate(state, alpha, target, target_aligned, centers, task: FewShotTask, config) -> float:
    """Nearest-prototype accuracy over the query set."""
    if not task.query:
        return 0.0
    matrix = getattr(target_aligned, "matrix", target_aligned)
    p_mix = mixed_prompt(alpha, centers)

    def embed(items):
        h, rows = _encode_items(state, target, matrix, p_mix, items, task.mode, config.hops)
        return h.data[rows]

    support = embed(task.support)
    labels = np.array([y for _, y in task.support])
    proto_vecs = [support[labels == c].mean(axis=0) for c in range(task.num_classes)]
    correct = 0
    for emb, (_, label) in zip(embed(task.query), task.query):
        sims = [_cosine_np(emb, vec) for vec in proto_vecs]
        if int(np.argmax(sims)) == label:
            correct += 1
    return correct / len(task.query)


def _cosine_np(u, v) -> float:
    nu = np.sqrt(float(u @ u) + _NORM_EPS)
    nv = np.sqrt(float(v @ v) + _NORM_EPS)
    return float(u @ v) / (nu * nv)
