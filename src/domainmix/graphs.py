"""In-memory graph store: per-domain CSR graphs, ego subgraph extraction,
and the block-diagonal union of subgraphs that the encoder batches over."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .align import as_array
from .errors import GraphFormatError, ValidationError
from .io import load_feature_matrix, read_edge_list, read_labels


@dataclass
class DomainGraph:
    """Undirected graph for one domain, neighbors in CSR form.

    Edges are stored symmetrically with sorted adjacency lists, so the
    layout is a pure function of the edge set.
    """

    domain_id: int
    num_nodes: int
    row_offsets: np.ndarray
    col_targets: np.ndarray
    features_raw: np.ndarray
    labels: np.ndarray | None = None

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return len(self.col_targets) // 2

    @property
    def feature_dim(self) -> int:
        return self.features_raw.shape[1]

    def neighbors(self, u: int) -> np.ndarray:
        return self.col_targets[self.row_offsets[u] : self.row_offsets[u + 1]]

    def degree(self, u: int) -> int:
        return int(self.row_offsets[u + 1] - self.row_offsets[u])

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.neighbors(u)
        pos = np.searchsorted(nbrs, v)
        return pos < len(nbrs) and nbrs[pos] == v

    def edge_array(self) -> np.ndarray:
        """All undirected edges as an (m, 2) array with u < v, lexicographic."""
        src = np.repeat(np.arange(self.num_nodes), np.diff(self.row_offsets))
        mask = src < self.col_targets
        return np.column_stack([src[mask], self.col_targets[mask]])

    @cached_property
    def a_hat(self) -> sp.csr_matrix:
        """The normalized adjacency with self-loops, built on first use;
        a domain graph is never mutated after construction."""
        return normalized_adjacency(self.num_nodes, self.edge_array())

    def validate(self) -> None:
        if self.num_nodes <= 0:
            raise ValidationError("graph has no nodes")
        if self.features_raw.shape[0] != self.num_nodes:
            raise ValidationError(
                f"{self.features_raw.shape[0]} feature rows for "
                f"{self.num_nodes} nodes"
            )
        if self.labels is not None and len(self.labels) != self.num_nodes:
            raise ValidationError(
                f"{len(self.labels)} labels for {self.num_nodes} nodes"
            )
        if len(self.col_targets) and self.col_targets.max() >= self.num_nodes:
            raise ValidationError("edge endpoint out of range")


def build_domain_graph(edges, features, domain_id=0, labels=None) -> DomainGraph:
    """Build a DomainGraph from raw (u, v) pairs.

    Duplicates and orientation are ignored; self-loops are dropped. The node
    count comes from the feature matrix, so isolated nodes are fine.
    """
    features = np.ascontiguousarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValidationError(f"features must be 2-D, got shape {features.shape}")
    n = features.shape[0]
    if n == 0:
        raise ValidationError("graph has no nodes")

    ends = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    ends = ends[ends[:, 0] != ends[:, 1]]
    bad = ((ends < 0) | (ends >= n)).any(axis=1)
    if bad.any():
        u, v = ends[np.argmax(bad)]
        raise ValidationError(f"edge ({u}, {v}) out of range for {n} nodes")
    # both orientations of every edge, deduplicated and in CSR order at once
    codes = np.unique(np.concatenate([ends[:, 0] * n + ends[:, 1], ends[:, 1] * n + ends[:, 0]]))
    row_offsets = np.concatenate([[0], np.cumsum(np.bincount(codes // n, minlength=n))])
    col_targets = codes % n

    if labels is not None:
        labels = np.asarray(labels, dtype=np.int64)
        if len(labels) != n:
            raise ValidationError(f"{len(labels)} labels for {n} nodes")

    return DomainGraph(
        domain_id=domain_id,
        num_nodes=n,
        row_offsets=row_offsets,
        col_targets=col_targets,
        features_raw=features,
        labels=labels,
    )


def load_graph(edge_path, feature_path, domain_id=0, labels_path=None) -> DomainGraph:
    """Load one domain from an edge list plus a feature matrix file."""
    features = load_feature_matrix(feature_path)
    edges = read_edge_list(edge_path)
    n = features.shape[0]
    bad = (np.asarray(edges, dtype=np.int64).reshape(-1, 2) >= n).any(axis=1)
    if bad.any():
        u, v = edges[int(np.argmax(bad))]
        raise GraphFormatError(f"edge ({u}, {v}) references a node >= {n}", path=edge_path)
    labels = read_labels(labels_path) if labels_path is not None else None
    return build_domain_graph(edges, features, domain_id=domain_id, labels=labels)


@dataclass
class EgoSubgraph:
    """h-hop neighborhood around one node, relabeled to 0..n-1.

    ``nodes_global`` is sorted ascending and maps local index -> id in the
    source graph. Edges are local pairs with u < v.
    """

    source_domain: int
    center_global: int
    center_local: int
    nodes_global: np.ndarray
    edges: np.ndarray
    features: np.ndarray

    @property
    def num_nodes(self) -> int:
        return len(self.nodes_global)

    def edge_set(self) -> set:
        return {(int(u), int(v)) for u, v in self.edges}


def extract_ego(graph: DomainGraph, center: int, hops: int, features=None) -> EgoSubgraph:
    """The induced subgraph within ``hops`` hops of one center (extract_egos)."""
    return extract_egos(graph, [center], hops, features)[0]


def extract_egos(graph: DomainGraph, centers, hops: int, features=None) -> list[EgoSubgraph]:
    """The ego of every center, in order (repeats allowed), in one array
    pass over sorted (ego, node) codes ego * num_nodes + node: a frontier
    expansion per hop, then one lookup keeps the induced edges. Memory
    grows with the egos' total size. ``features`` defaults to the graph's
    raw features; pass an aligned matrix (or anything with a ``.matrix``
    attribute) to use it instead."""
    n = graph.num_nodes
    centers = np.asarray(centers, dtype=np.int64).reshape(-1)
    bad = (centers < 0) | (centers >= n)
    if bad.any():
        raise ValidationError(f"center {centers[np.argmax(bad)]} out of range for {n} nodes")
    if hops < 0:
        raise ValidationError(f"hops must be >= 0, got {hops}")
    features = as_array(graph.features_raw if features is None else features, "matrix")

    reached = frontier = codes = np.arange(len(centers)) * n + centers
    for _ in range(hops):
        found = np.unique(_adjacent(graph, frontier)[1])
        at = np.searchsorted(reached, found).clip(max=len(reached) - 1)
        frontier = found[reached[at] != found]
        reached = np.sort(np.concatenate([reached, frontier]))

    # codes ascend and CSR lists are sorted, so each ego's induced edges
    # come out lexicographic in local ids, ego after ego
    src, dst = _adjacent(graph, reached)
    forward = reached[src] < dst
    at = np.searchsorted(reached, dst[forward]).clip(max=len(reached) - 1)
    inside = reached[at] == dst[forward]
    src, dst = src[forward][inside], at[inside]
    owner = reached // n
    starts = np.searchsorted(owner, np.arange(len(centers)))
    edges = np.column_stack([src, dst]) - starts[owner[src], None]
    nodes, ends = reached % n, np.searchsorted(owner[src], np.arange(1, len(centers)))
    return [
        EgoSubgraph(graph.domain_id, *ego)
        for ego in zip(
            centers.tolist(),
            (np.searchsorted(reached, codes) - starts).tolist(),
            np.split(nodes, starts[1:]),
            np.split(edges, ends),
            np.split(features[nodes], starts[1:]),
        )
    ]


def _adjacent(graph: DomainGraph, codes: np.ndarray):
    """Every (code, neighbor) pair of (ego, node) codes, as the code's
    position and the neighbor's code, in CSR order."""
    nodes = codes % graph.num_nodes
    counts = graph.row_offsets[nodes + 1] - graph.row_offsets[nodes]
    at = np.repeat(np.arange(len(codes)), counts)
    slots = np.arange(len(at)) + (graph.row_offsets[nodes] - np.cumsum(counts) + counts)[at]
    return at, (codes - nodes)[at] + graph.col_targets[slots]


def normalized_adjacency(num_nodes: int, edges) -> sp.csr_matrix:
    """Symmetric normalization of the adjacency with self-loops added."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate([edges[:, 0], edges[:, 1], np.arange(num_nodes)])
    cols = np.concatenate([edges[:, 1], edges[:, 0], np.arange(num_nodes)])
    a = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(num_nodes, num_nodes))
    # every row holds its self-loop, so no row is empty
    d_inv_sqrt = 1.0 / np.sqrt(np.add.reduceat(a.data, a.indptr[:-1]))
    a.data = a.data * np.repeat(d_inv_sqrt, np.diff(a.indptr)) * d_inv_sqrt[a.indices]
    return a


@dataclass
class SubgraphUnion:
    """Subgraphs as one disjoint-union graph, in the two pieces a two-layer
    GCN with mean pooling reads (one block per subgraph, in order).

    ``ax`` is A_hat @ X over every node. ``pool_a`` is P @ A_hat, where P
    is the (subgraphs x nodes) segment-mean matrix, so row i of
    ``pool_a @ H`` is the mean over subgraph i of A_hat @ H.
    """

    ax: np.ndarray
    pool_a: sp.csr_matrix

    @property
    def num_graphs(self) -> int:
        return self.pool_a.shape[0]


def graph_union(subs) -> SubgraphUnion:
    """Union of subgraphs (anything with ``features``/``edges``/``num_nodes``)."""
    if not subs:
        raise ValidationError("cannot build the union of zero subgraphs")
    sizes = np.array([s.num_nodes for s in subs], dtype=np.int64)
    if sizes.min() < 1:
        raise ValidationError("cannot pool zero nodes")
    offsets = np.cumsum(sizes) - sizes
    edges = np.concatenate(
        [np.asarray(s.edges, dtype=np.int64).reshape(-1, 2) + o for s, o in zip(subs, offsets)]
    )
    x = np.concatenate([np.asarray(s.features, dtype=np.float64) for s in subs])
    return block_union(x, edges, sizes)


def block_union(features, edges, sizes) -> SubgraphUnion:
    """The union of consecutive blocks of ``sizes`` nodes, given their
    stacked feature rows and their edges in stacked ids, with one
    normalized_adjacency call: normalizing the block-diagonal graph equals
    normalizing each block on its own."""
    total = int(sizes.sum())
    a_hat = normalized_adjacency(total, edges)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    pool = sp.csr_matrix(
        (1.0 / sizes[owner], (owner, np.arange(total))), shape=(len(sizes), total)
    )
    return SubgraphUnion(ax=a_hat @ features, pool_a=(pool @ a_hat).tocsr())


def drop_nodes(graph: DomainGraph, fraction: float, rng) -> tuple[DomainGraph, np.ndarray]:
    """Remove a uniform random ``fraction`` of nodes; keep the induced graph.

    Returns the reduced graph plus the sorted global ids that survived.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValidationError(f"drop fraction must be in [0, 1), got {fraction}")
    n = graph.num_nodes
    n_drop = int(math.floor(fraction * n))
    if n_drop >= n:
        raise ValidationError(f"drop fraction {fraction} would empty the graph")
    dropped = rng.choice(n, size=n_drop, replace=False) if n_drop else np.empty(0, int)
    keep_mask = np.ones(n, dtype=bool)
    keep_mask[dropped] = False
    kept = np.flatnonzero(keep_mask)
    local_of = -np.ones(n, dtype=np.int64)
    local_of[kept] = np.arange(len(kept))

    edges = graph.edge_array()
    reduced = build_domain_graph(
        local_of[edges[keep_mask[edges].all(axis=1)]],
        graph.features_raw[kept],
        domain_id=graph.domain_id,
        labels=None if graph.labels is None else graph.labels[kept],
    )
    return reduced, kept
