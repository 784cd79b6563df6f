"""Boundary-node selection from center distances.

For each node we measure Euclidean distance to every domain center, take
the pairwise margin |d_own - d_other| per rival domain, min-max flip it
into a confidence (small margin = close to the boundary = high score),
keep the top-rho fraction per rival, and intersect across rivals. An
empty intersection falls back to the union so no domain ever contributes
zero boundary nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .align import as_array
from .errors import ValidationError


@dataclass
class DistanceTable:
    domain_id: int
    matrix: np.ndarray  # |V^(k)| x K


@dataclass
class CandidateSet:
    """Top-confidence nodes of one domain versus one rival domain."""

    domain_id: int
    other_domain: int
    node_ids: np.ndarray  # sorted ascending
    confidences: np.ndarray  # aligned with node_ids


@dataclass
class BoundarySet:
    domain_id: int
    node_ids: np.ndarray  # sorted ascending
    confidences: np.ndarray  # mean over contributing pairwise sets
    used_fallback: bool


def center_distances(aligned, centers) -> DistanceTable:
    """Distance from every node to every domain center."""
    matrix = as_array(aligned, "matrix")
    vectors = []
    for expect_id, center in enumerate(centers):
        vec = as_array(center, "vector")
        cid = getattr(center, "domain_id", expect_id)
        if cid != expect_id:
            raise ValidationError(
                f"centers must be ordered by domain id, got {cid} at position {expect_id}"
            )
        if vec.shape != (matrix.shape[1],):
            raise ValidationError(
                f"center {expect_id} has dimension {vec.shape}, features have {matrix.shape[1]}"
            )
        vectors.append(vec)
    diff = matrix[:, None, :] - np.stack(vectors)[None, :, :]
    table = np.sqrt(np.sum(diff * diff, axis=-1))
    return DistanceTable(
        domain_id=getattr(aligned, "domain_id", 0), matrix=table
    )


def pairwise_margin(distances: DistanceTable, k: int, m: int) -> np.ndarray:
    """|d_{i,k} - d_{i,m}| per node; small means near the k/m boundary."""
    n_domains = distances.matrix.shape[1]
    if k == m:
        raise ValidationError(f"margin needs two distinct domains, got {k} twice")
    if not (0 <= k < n_domains and 0 <= m < n_domains):
        raise ValidationError(
            f"domain pair ({k}, {m}) out of range for {n_domains} centers"
        )
    return np.abs(distances.matrix[:, k] - distances.matrix[:, m])


def confidence_scores(margins) -> np.ndarray:
    """Min-max flip: margin at the minimum scores 1, at the maximum 0.

    All-equal margins score 1 everywhere (every node equally ambiguous).
    """
    margins = np.asarray(margins, dtype=np.float64)
    if margins.size < 1:
        raise ValidationError("empty margin vector")
    if not np.isfinite(margins).all():
        raise ValidationError("margins contain non-finite entries")
    lo, hi = margins.min(), margins.max()
    if hi == lo:
        return np.ones_like(margins)
    return 1.0 - (margins - lo) / (hi - lo)


def select_candidates(confidences, rho: float) -> np.ndarray:
    """Ids of the ceil(rho*n) highest-confidence nodes, ties to lower id."""
    if not 0.0 < rho < 1.0:
        raise ValidationError(f"rho must be in (0, 1), got {rho}")
    confidences = np.asarray(confidences, dtype=np.float64)
    n = len(confidences)
    count = math.ceil(rho * n)
    order = sorted(range(n), key=lambda i: (-confidences[i], i))
    return np.array(sorted(order[:count]), dtype=np.int64)


def boundary_set(candidate_sets) -> BoundarySet:
    """Intersect pairwise candidate sets; union fallback if that is empty."""
    if not candidate_sets:
        raise ValidationError("need at least one candidate set")
    id_sets = [set(int(i) for i in cs.node_ids) for cs in candidate_sets]
    chosen = set.intersection(*id_sets)
    used_fallback = False
    if not chosen:
        chosen = set.union(*id_sets)
        used_fallback = True
    node_ids = np.array(sorted(chosen), dtype=np.int64)
    conf_of = []
    for node in node_ids:
        values = []
        for cs, ids in zip(candidate_sets, id_sets):
            if int(node) in ids:
                pos = np.searchsorted(cs.node_ids, node)
                values.append(float(cs.confidences[pos]))
        conf_of.append(sum(values) / len(values))
    return BoundarySet(
        domain_id=candidate_sets[0].domain_id,
        node_ids=node_ids,
        confidences=np.array(conf_of),
        used_fallback=used_fallback,
    )


def candidate_set(distances: DistanceTable, k: int, m: int, rho: float) -> CandidateSet:
    """Margin -> confidence -> top-rho selection for one rival domain."""
    margins = pairwise_margin(distances, k, m)
    conf = confidence_scores(margins)
    ids = select_candidates(conf, rho)
    return CandidateSet(
        domain_id=k, other_domain=m, node_ids=ids, confidences=conf[ids]
    )


def select_boundaries(aligned_list, centers, rho: float):
    """Full per-domain pipeline; returns one BoundarySet per domain."""
    n_domains = len(aligned_list)
    if n_domains < 2:
        raise ValidationError(f"need at least 2 domains, got {n_domains}")
    out = []
    for k, aligned in enumerate(aligned_list):
        table = center_distances(aligned, centers)
        sets = [
            candidate_set(table, k, m, rho) for m in range(n_domains) if m != k
        ]
        out.append(boundary_set(sets))
    return out
