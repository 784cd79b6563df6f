"""Two-layer GCN encoder, domain discriminator, gated gradient-reversal
decomposer, the two pre-training losses, and the training loop.

The discriminator's class order is (intra, inter): index 1 is the
inter-domain probability used by the gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, as_tensor, gcn, grl, parameter, stack
from .errors import ValidationError
from .graphs import normalized_adjacency, unique_ints
from .mixing import epoch_batches
from .optim import Adam
from .seeding import sub_seed

PROB_FLOOR = 1e-12


@dataclass
class ModelState:
    """All trainable parameters, keyed by dotted name (fixed order)."""

    d: int
    hidden: int
    num_domains: int
    params: dict = field(default_factory=dict)

    def data_dict(self) -> dict:
        return {name: t.data for name, t in self.params.items()}

    def load_data(self, arrays: dict) -> None:
        for name, value in arrays.items():
            if name not in self.params:
                raise ValidationError(f"unknown parameter {name!r} in checkpoint")
            if self.params[name].data.shape != value.shape:
                raise ValidationError(
                    f"parameter {name!r} has shape {value.shape}, "
                    f"expected {self.params[name].data.shape}"
                )
            if not np.isfinite(value).all():
                raise ValidationError(f"parameter {name!r} in checkpoint holds NaN or inf")
            self.params[name].data = np.array(value, dtype=np.float64)

    def encoder_params(self) -> dict:
        return {k: v for k, v in self.params.items() if k.startswith("encoder.")}


def _glorot(rng, fan_in, fan_out):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_model(d: int, hidden: int, num_domains: int, seed: int = 0) -> ModelState:
    rng = np.random.default_rng(sub_seed(seed, "model-init"))
    params = {
        "encoder.w1": parameter(_glorot(rng, d, hidden)),
        "encoder.w2": parameter(_glorot(rng, hidden, hidden)),
        "disc.w": parameter(_glorot(rng, hidden, 2)),
        "disc.b": parameter(np.zeros(2)),
        "dec.w": parameter(_glorot(rng, hidden, num_domains)),
        "dec.b": parameter(np.zeros(num_domains)),
    }
    return ModelState(d=d, hidden=hidden, num_domains=num_domains, params=params)


def _forward(rows0, rows1, x: Tensor, state: ModelState) -> Tensor:
    """rows0 @ relu(rows1 @ X @ W1) @ W2, the encoder's one body; ``rows1=None``
    means X arrives already propagated (it is rows1 @ X)."""
    if x.data.shape[1] != state.d:
        raise ValidationError(
            f"feature width {x.data.shape[1]} does not match encoder input {state.d}"
        )
    return gcn(rows0, rows1, x, state.params["encoder.w1"], state.params["encoder.w2"])


def gcn_encode(sub, state: ModelState) -> Tensor:
    """H = A_hat @ relu(A_hat @ X @ W1) @ W2 over the subgraph's nodes."""
    a_hat = normalized_adjacency(sub.num_nodes, sub.edges)
    return _forward(a_hat, a_hat, as_tensor(sub.features), state)


def encode_union(union, state: ModelState, ax: Tensor | None = None) -> Tensor:
    """Mean-pooled embedding of every block of a SubgraphUnion, one row per
    subgraph: (P @ A_hat) @ relu(A_hat @ X @ W1) @ W2.

    ``ax`` stands in for ``union.ax``; a prompt that scales feature
    columns commutes with A_hat, so a prompted union passes A_hat @ X * p.
    """
    return _forward(union.pool_a, None, as_tensor(union.ax) if ax is None else ax, state)


def encode_graph(graph, features, state: ModelState) -> Tensor:
    """Encoder applied to a whole domain graph (node-level embeddings)."""
    return _forward(graph.a_hat, graph.a_hat, as_tensor(features), state)


def encode_nodes(graph, features, state: ModelState, nodes) -> Tensor:
    """Embeddings of selected nodes, equal to the encode_graph rows.

    Each of the two propagation layers only reads the rows it can reach,
    so feature work scales with the 2-hop closure of ``nodes`` rather than
    the whole graph. Degrees come from the full graph, which keeps the
    result identical to full propagation.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.ndim != 1 or len(nodes) == 0:
        raise ValidationError("nodes must be a non-empty 1-d index array")
    if nodes.min() < 0 or nodes.max() >= graph.num_nodes:
        raise ValidationError(
            f"node ids must be in [0, {graph.num_nodes}), got "
            f"[{nodes.min()}, {nodes.max()}]"
        )
    rows0, s1 = _restriction(graph, nodes)
    rows1 = graph.a_hat[s1]
    s2 = unique_ints(rows1.indices)  # 2-hop closure
    return _forward(rows0, rows1[:, s2].tocsr(), as_tensor(features)[s2], state)


def _restriction(graph, nodes):
    """``(A_hat[nodes][:, s1], s1)`` with s1 the 1-hop closure of ``nodes``
    (self-loops included)."""
    rows0 = graph.a_hat[nodes]
    s1 = unique_ints(rows0.indices)
    return rows0[:, s1].tocsr(), s1


def mean_pool(node_embeddings: Tensor) -> Tensor:
    if node_embeddings.data.shape[0] < 1:
        raise ValidationError("cannot pool zero nodes")
    return node_embeddings.mean(axis=0)


def discriminate(h_graph: Tensor, state: ModelState) -> Tensor:
    """Class probabilities of one pooled embedding, or of each row of many."""
    logits = h_graph @ state.params["disc.w"] + state.params["disc.b"]
    return logits.softmax()


def _rows(values) -> Tensor:
    """An (n, k) Tensor, given as one or as a list of n (k,) Tensors."""
    if isinstance(values, Tensor):
        return values
    if len(values) == 0:
        raise ValidationError("expected at least one row, got none")
    return stack(values)


def loss_dis(probs, coarse_labels) -> Tensor:
    """Mean binary cross-entropy against the inter/intra label.

    ``probs`` is an (n, 2) Tensor or a list of n (2,) Tensors.
    """
    probs, labels = _rows(probs), np.asarray(coarse_labels)
    if probs.data.shape[0] != len(labels):
        raise ValidationError("probs and labels must be equal-length, non-empty")
    clamped = probs.clamp(PROB_FLOOR, 1.0 - PROB_FLOOR)
    picked = clamped[np.arange(len(labels)), (labels == 1).astype(np.int64)]
    return -picked.log().mean()


def gate_mask(probs) -> np.ndarray:
    """1 where the inter probability strictly exceeds 0.5; detached."""
    return (_rows(probs).data[:, 1] > 0.5).astype(np.int64)


def decompose(h_graph: Tensor, mask, state: ModelState, beta: float = 1.0) -> Tensor:
    """Domain probabilities through the gated reversal layer; ``mask`` (a
    bit, or a column of bits for a matrix of embeddings) gates ``h_graph``."""
    gated = grl(h_graph * np.asarray(mask, dtype=np.float64), beta=beta)
    logits = gated @ state.params["dec.w"] + state.params["dec.b"]
    return logits.softmax()


def loss_fine(predictions, targets, mask) -> Tensor:
    """Mean KL(target || prediction) over gate-active subgraphs.

    ``predictions`` is an (n, K) Tensor or a list of n (K,) Tensors.
    """
    active = np.flatnonzero(np.asarray(mask))
    if len(active) == 0:
        return as_tensor(0.0)
    y = np.asarray(targets, dtype=np.float64)[active]
    # 0 * log 0 = 0 on the constant side
    constant = float(np.sum(y * np.log(np.where(y > 0, y, 1.0))))
    log_p = _rows(predictions)[active].clamp(lo=PROB_FLOOR).log()
    return (constant - (Tensor(y) * log_p).sum()) / float(len(active))


def loss_pretrain(batch, state: ModelState, beta: float = 1.0):
    """Full forward pass; returns (total loss tensor, per-part floats).

    The batch arrives as one block-diagonal union, and every head works on
    the (2N, hidden) matrix of pooled embeddings at once.
    """
    pooled = encode_union(batch.union, state)
    probs = discriminate(pooled, state)
    labels = np.asarray(batch.coarse_labels)
    l_dis = loss_dis(probs, labels)
    mask = gate_mask(probs)
    preds = decompose(pooled, mask[:, None], state, beta=beta)
    l_fine = loss_fine(preds, batch.mix_labels, mask)
    total = l_dis + l_fine
    inter = labels == 1
    parts = {
        "loss_dis": l_dis.item(),
        "loss_fine": l_fine.item(),
        "gate_fraction": float(np.mean(mask[inter])) if inter.any() else 0.0,
    }
    return total, parts


def pretrain(graphs, aligned, boundary_sets, config):
    """Train encoder + heads on mixed subgraphs.

    Inter pairs are selected once from the boundary sets and reused every
    epoch; intra pairs are resampled per epoch. One optimizer step per
    epoch over the 2N-subgraph batch.
    """
    num_domains = len(graphs)
    state = init_model(config.pca_dim, config.hidden, num_domains, seed=config.seed)
    opt = Adam.from_config(state.params, config.lr_pre, config)
    batch = epoch_batches(graphs, aligned, boundary_sets, config)
    history = []
    for epoch in range(config.epochs_pre):
        total, parts = loss_pretrain(batch(epoch), state, beta=config.grl_beta)
        opt.zero_grad()
        total.backward()
        opt.step()
        parts["epoch"] = epoch
        parts["loss_total"] = total.item()
        history.append(parts)
    return state, history
