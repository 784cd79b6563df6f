"""In-memory graph store: per-domain CSR graphs and ego subgraph extraction."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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

    pairs = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            continue
        if u >= n or v >= n or u < 0 or v < 0:
            raise ValidationError(
                f"edge ({u}, {v}) out of range for {n} nodes"
            )
        pairs.add((u, v) if u < v else (v, u))

    if pairs:
        half = np.array(sorted(pairs), dtype=np.int64)
        src = np.concatenate([half[:, 0], half[:, 1]])
        dst = np.concatenate([half[:, 1], half[:, 0]])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        row_offsets = np.zeros(n + 1, dtype=np.int64)
        np.add.at(row_offsets, src + 1, 1)
        row_offsets = np.cumsum(row_offsets)
        col_targets = dst
    else:
        row_offsets = np.zeros(n + 1, dtype=np.int64)
        col_targets = np.empty(0, dtype=np.int64)

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
    for u, v in edges:
        if u >= n or v >= n:
            raise GraphFormatError(
                f"edge ({u}, {v}) references a node >= {n}", path=edge_path
            )
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
    """BFS out to ``hops`` hops and keep the induced subgraph.

    ``features`` defaults to the graph's raw features; pass an aligned
    matrix (or anything with a ``.matrix`` attribute) to use it instead.
    """
    if not 0 <= center < graph.num_nodes:
        raise ValidationError(
            f"center {center} out of range for {graph.num_nodes} nodes"
        )
    if hops < 0:
        raise ValidationError(f"hops must be >= 0, got {hops}")

    if features is None:
        features = graph.features_raw
    features = getattr(features, "matrix", features)

    visited = {center}
    frontier = [center]
    for _ in range(hops):
        nxt = []
        for u in frontier:
            for v in graph.neighbors(u):
                v = int(v)
                if v not in visited:
                    visited.add(v)
                    nxt.append(v)
        if not nxt:
            break
        frontier = nxt

    nodes_global = np.array(sorted(visited), dtype=np.int64)
    local_of = {int(g): i for i, g in enumerate(nodes_global)}
    edges = []
    for g in nodes_global:
        for v in graph.neighbors(int(g)):
            v = int(v)
            if v in local_of and int(g) < v:
                edges.append((local_of[int(g)], local_of[v]))
    edges = (
        np.array(sorted(edges), dtype=np.int64)
        if edges
        else np.empty((0, 2), dtype=np.int64)
    )
    return EgoSubgraph(
        source_domain=graph.domain_id,
        center_global=int(center),
        center_local=local_of[int(center)],
        nodes_global=nodes_global,
        edges=edges,
        features=np.asarray(features, dtype=np.float64)[nodes_global].copy(),
    )


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

    edges = []
    for u, v in graph.edge_array():
        if keep_mask[u] and keep_mask[v]:
            edges.append((local_of[u], local_of[v]))
    reduced = build_domain_graph(
        edges,
        graph.features_raw[kept],
        domain_id=graph.domain_id,
        labels=None if graph.labels is None else graph.labels[kept],
    )
    return reduced, kept
