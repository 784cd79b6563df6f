"""Project per-domain raw features into a shared space and compute centers.

Each domain gets its own PCA fit (raw dimensions differ across domains, so
a joint fit is ill-defined). Components come from the centered sample
covariance, but rows are projected without subtracting the mean: that keeps
per-domain means distinct in the shared space, which the downstream
center-distance machinery needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass
class AlignedFeatures:
    domain_id: int
    matrix: np.ndarray
    d: int


@dataclass
class DomainCenter:
    domain_id: int
    vector: np.ndarray


def as_array(value, field: str) -> np.ndarray:
    """``value.<field>`` of an AlignedFeatures or DomainCenter, or a plain
    array as given, as float64."""
    return np.asarray(getattr(value, field, value), dtype=np.float64)


def pca_components(features_raw, d: int, scale: bool = False) -> np.ndarray:
    """Top-d principal directions as a (d_k, d) column matrix.

    Eigenvalues descending; each column is sign-flipped so its
    largest-magnitude entry is positive. Columns past the raw rank are zero.
    """
    x = np.asarray(features_raw, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValidationError(f"features must be a non-empty 2-D matrix, got {x.shape}")
    if d < 1:
        raise ValidationError(f"target dimension must be >= 1, got {d}")
    if not np.isfinite(x).all():
        raise ValidationError("features contain non-finite entries")

    n, dk = x.shape
    components = np.zeros((dk, d))
    if n == 1:
        return components
    centered = x - x.mean(axis=0)
    if scale:
        std = centered.std(axis=0, ddof=1)
        centered = centered / np.where(std > 0, std, 1.0)
    cov = centered.T @ centered / (n - 1)
    if not np.any(cov):
        return components
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][: min(d, dk)]
    kept = eigvecs[:, order]
    for j in range(kept.shape[1]):
        col = kept[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            kept[:, j] = -col
    components[:, : kept.shape[1]] = kept
    return components


def pca_project(features_raw, d: int, domain_id: int = 0, scale: bool = False) -> AlignedFeatures:
    """Project raw rows onto the domain's top-d principal directions."""
    x = np.asarray(features_raw, dtype=np.float64)
    components = pca_components(x, d, scale=scale)
    if not np.any(components):
        matrix = np.zeros((x.shape[0], d))
    else:
        matrix = x @ components
    return AlignedFeatures(domain_id=domain_id, matrix=matrix, d=d)


def domain_center(aligned: AlignedFeatures) -> DomainCenter:
    """Componentwise mean of the aligned rows."""
    matrix = as_array(aligned, "matrix")
    if matrix.shape[0] < 1:
        raise ValidationError("cannot take the center of zero rows")
    return DomainCenter(
        domain_id=getattr(aligned, "domain_id", 0),
        vector=matrix.mean(axis=0),
    )


def align_graphs(graphs, d: int, scale: bool = False):
    """PCA-align every domain graph; returns (aligned list, center list)."""
    aligned = [
        pca_project(g.features_raw, d, domain_id=g.domain_id, scale=scale)
        for g in graphs
    ]
    centers = [domain_center(a) for a in aligned]
    return aligned, centers
