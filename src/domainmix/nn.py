"""Two-layer GCN encoder, domain discriminator, gated gradient-reversal
decomposer, the two pre-training losses, and the training loop.

The discriminator's class order is (intra, inter): index 1 is the
inter-domain probability used by the gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .autodiff import Tensor, as_tensor, grl, parameter, spmm, stack
from .errors import ValidationError
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


def normalized_adjacency(num_nodes: int, edges) -> sp.csr_matrix:
    """Symmetric normalization of the adjacency with self-loops added."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate([edges[:, 0], edges[:, 1], np.arange(num_nodes)])
    cols = np.concatenate([edges[:, 1], edges[:, 0], np.arange(num_nodes)])
    data = np.ones(len(rows))
    a = sp.csr_matrix((data, (rows, cols)), shape=(num_nodes, num_nodes))
    deg = np.asarray(a.sum(axis=1)).ravel()
    d_inv_sqrt = 1.0 / np.sqrt(deg)
    return a.multiply(d_inv_sqrt[:, None]).multiply(d_inv_sqrt[None, :]).tocsr()


def _forward(rows0, rows1, x: Tensor, state: ModelState) -> Tensor:
    """rows0 @ relu(rows1 @ X @ W1) @ W2, the encoder's one body."""
    hidden = spmm(rows1, x @ state.params["encoder.w1"]).relu()
    return spmm(rows0, hidden) @ state.params["encoder.w2"]


def gcn_encode(sub, state: ModelState) -> Tensor:
    """H = A_hat @ relu(A_hat @ X @ W1) @ W2 over the subgraph's nodes."""
    x = as_tensor(sub.features)
    if x.data.shape[1] != state.d:
        raise ValidationError(
            f"feature width {x.data.shape[1]} does not match encoder input {state.d}"
        )
    a_hat = normalized_adjacency(sub.num_nodes, sub.edges)
    return _forward(a_hat, a_hat, x, state)


def _cached_a_hat(graph):
    # domain graphs are never mutated after construction, so the
    # propagation matrix can live on the instance
    if getattr(graph, "_a_hat", None) is None:
        graph._a_hat = normalized_adjacency(graph.num_nodes, graph.edge_array())
    return graph._a_hat


def encode_graph(graph, features, state: ModelState) -> Tensor:
    """Encoder applied to a whole domain graph (node-level embeddings)."""
    a_hat = _cached_a_hat(graph)
    return _forward(a_hat, a_hat, as_tensor(features), state)


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
    rows0, rows1, s2 = _restriction(graph, nodes)
    return _forward(rows0, rows1, as_tensor(features)[s2], state)


def _restriction(graph, nodes):
    """Sliced propagation rows for ``nodes``, memoized per node set.

    Adaptation re-embeds the same support nodes every optimizer step, so
    the sparse slicing is worth caching alongside the graph.
    """
    if getattr(graph, "_restriction_cache", None) is None:
        graph._restriction_cache = {}
    key = nodes.tobytes()
    if key not in graph._restriction_cache:
        a_hat = _cached_a_hat(graph)
        rows0 = a_hat[nodes]
        s1 = np.unique(rows0.indices)  # 1-hop closure (self-loops included)
        rows1 = a_hat[s1]
        s2 = np.unique(rows1.indices)
        graph._restriction_cache[key] = (rows0[:, s1].tocsr(), rows1[:, s2].tocsr(), s2)
    return graph._restriction_cache[key]


def mean_pool(node_embeddings: Tensor) -> Tensor:
    if node_embeddings.data.shape[0] < 1:
        raise ValidationError("cannot pool zero nodes")
    return node_embeddings.mean(axis=0)


def discriminate(h_graph: Tensor, state: ModelState) -> Tensor:
    logits = h_graph @ state.params["disc.w"] + state.params["disc.b"]
    return logits.softmax()


def loss_dis(probs, coarse_labels) -> Tensor:
    """Mean binary cross-entropy against the inter/intra label."""
    if len(probs) != len(coarse_labels) or not probs:
        raise ValidationError("probs and labels must be equal-length, non-empty")
    terms = []
    for p, y in zip(probs, coarse_labels):
        clamped = p.clamp(PROB_FLOOR, 1.0 - PROB_FLOOR)
        picked = clamped[1] if y == 1 else clamped[0]
        terms.append(picked.log())
    return -stack(terms).mean()


def gate_mask(probs) -> np.ndarray:
    """1 where the inter probability strictly exceeds 0.5; detached."""
    return np.array([1 if p.data[1] > 0.5 else 0 for p in probs], dtype=np.int64)


def decompose(h_graph: Tensor, mask_bit: int, state: ModelState, beta: float = 1.0) -> Tensor:
    gated = grl(h_graph * float(mask_bit), beta=beta)
    logits = gated @ state.params["dec.w"] + state.params["dec.b"]
    return logits.softmax()


def loss_fine(predictions, targets, mask) -> Tensor:
    """Mean KL(target || prediction) over gate-active subgraphs."""
    active = [i for i, m in enumerate(mask) if m]
    if not active:
        return as_tensor(0.0)
    terms = []
    constant = 0.0
    for i in active:
        y = np.asarray(targets[i], dtype=np.float64)
        # 0 * log 0 = 0 on the constant side
        constant += float(sum(v * math.log(v) for v in y if v > 0))
        log_p = predictions[i].clamp(lo=PROB_FLOOR).log()
        terms.append((Tensor(y) * log_p).sum())
    return (constant - stack(terms).sum()) / float(len(active))


def loss_pretrain(batch, state: ModelState, beta: float = 1.0):
    """Full forward pass; returns (total loss tensor, per-part floats)."""
    subs = batch.subgraphs
    if not subs:
        raise ValidationError("empty batch")
    pooled = [mean_pool(gcn_encode(s, state)) for s in subs]
    probs = [discriminate(h, state) for h in pooled]
    labels = [s.coarse_label for s in subs]
    l_dis = loss_dis(probs, labels)
    mask = gate_mask(probs)
    preds = [
        decompose(h, int(m), state, beta=beta) for h, m in zip(pooled, mask)
    ]
    l_fine = loss_fine(preds, [s.mix_label for s in subs], mask)
    total = l_dis + l_fine
    inter_idx = [i for i, y in enumerate(labels) if y == 1]
    gate_fraction = (
        float(np.mean([mask[i] for i in inter_idx])) if inter_idx else 0.0
    )
    parts = {
        "loss_dis": l_dis.item(),
        "loss_fine": float(l_fine.item() if isinstance(l_fine, Tensor) else l_fine),
        "gate_fraction": gate_fraction,
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
    opt = Adam(
        state.params,
        lr=config.lr_pre,
        weight_decay=config.weight_decay,
        beta1=config.beta1,
        beta2=config.beta2,
        eps=config.adam_eps,
    )
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
