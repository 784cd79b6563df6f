"""Seeded synthetic multi-domain graphs for desk-scale experiments.

Every domain shares one raw feature space. Class structure lives on the
first few axes, each domain's center offset on its own later axis, and a
planted fraction of nodes per domain is drawn around the midpoint of all
domain centers (domain-ambiguous but still class-informative). Interior
class offsets can be attenuated so that the transferable class evidence
concentrates in the planted rows and the midpoint target. A shared
positive offset keeps the data off the origin, mimicking non-negative
real-world features, and per-coordinate noise scales decrease along the
axes so that every domain's PCA picks comparable directions in the same
order. The optional extra domain is centered at that midpoint and acts as
the held-out adaptation target.

Topology is a stochastic block model whose blocks are the classes plus,
when present, the planted midpoint cluster.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .graphs import DomainGraph, build_domain_graph
from .io import write_edge_list, write_labels, write_matrix
from .seeding import sub_seed


@dataclass
class SynthSpec:
    K: int = 3
    nodes_per_domain: int = 300
    classes_per_domain: int = 3
    intra_edge_prob: float = 0.05
    inter_block_prob: float = 0.005
    feature_dim: int = 16
    domain_center_separation: float = 10.0
    boundary_cluster_fraction: float = 0.3
    class_separation: float = 4.0
    noise: float = 0.6
    feature_offset: float = 2.0
    interior_class_scale: float = 1.0
    target_domain_noise: float = 0.0
    include_target: bool = True

    def validate(self) -> "SynthSpec":
        if self.K < 2:
            raise ValidationError(f"need at least 2 domains, got K={self.K}")
        if self.classes_per_domain < 2:
            raise ValidationError(
                f"need at least 2 classes, got {self.classes_per_domain}"
            )
        if self.nodes_per_domain < 2 * self.classes_per_domain:
            raise ValidationError(
                f"nodes_per_domain {self.nodes_per_domain} too small for "
                f"{self.classes_per_domain} classes"
            )
        for name in ("intra_edge_prob", "inter_block_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {p}")
        if self.domain_center_separation <= 0:
            raise ValidationError(
                "domain_center_separation must be > 0, got "
                f"{self.domain_center_separation}"
            )
        if not 0.0 <= self.boundary_cluster_fraction < 1.0:
            raise ValidationError(
                "boundary_cluster_fraction must be in [0, 1), got "
                f"{self.boundary_cluster_fraction}"
            )
        if self.noise < 0:
            raise ValidationError(f"noise must be >= 0, got {self.noise}")
        if not 0.0 <= self.interior_class_scale <= 1.0:
            raise ValidationError(
                f"interior_class_scale must be in [0, 1], got "
                f"{self.interior_class_scale}"
            )
        if self.target_domain_noise < 0:
            raise ValidationError(
                f"target_domain_noise must be >= 0, got {self.target_domain_noise}"
            )
        needed = self.classes_per_domain + self.K
        if self.feature_dim < needed:
            raise ValidationError(
                f"feature_dim must be >= classes + domains = {needed}, "
                f"got {self.feature_dim}"
            )
        return self


def _noise_profile(dim: int) -> np.ndarray:
    # strictly decreasing per-axis scales: breaks eigenvalue ties so PCA
    # axis order matches across domains
    return np.linspace(1.0, 0.55, dim)


def _domain_center(spec: SynthSpec, k: int) -> np.ndarray:
    center = np.full(spec.feature_dim, spec.feature_offset)
    center[spec.classes_per_domain + k] += spec.domain_center_separation
    return center


def _midpoint_center(spec: SynthSpec) -> np.ndarray:
    centers = [_domain_center(spec, k) for k in range(spec.K)]
    return np.mean(centers, axis=0)


def _sbm_edges(blocks, p_in, p_out, rng):
    n = len(blocks)
    u, v = np.triu_indices(n, k=1)
    same = blocks[u] == blocks[v]
    prob = np.where(same, p_in, p_out)
    hit = rng.random(len(u)) < prob
    return np.column_stack([u[hit], v[hit]])


def _make_domain(spec, center, boundary_fraction, domain_id, rng, class_scale=1.0):
    n = spec.nodes_per_domain
    labels = (np.arange(n) * spec.classes_per_domain) // n
    n_boundary = int(round(boundary_fraction * n))
    boundary_ids = (
        np.sort(rng.choice(n, size=n_boundary, replace=False))
        if n_boundary
        else np.empty(0, dtype=np.int64)
    )
    midpoint = _midpoint_center(spec)
    feats = rng.normal(size=(n, spec.feature_dim)) * (
        spec.noise * _noise_profile(spec.feature_dim)
    )
    for c in range(spec.classes_per_domain):
        feats[labels == c, c] += spec.class_separation * class_scale
    feats += center
    # the planted cluster is its own topology block, so its ego graphs stay
    # dominated by midpoint-like rows instead of interior neighbors
    blocks = labels.copy()
    if n_boundary:
        feats[boundary_ids] += midpoint - center
        # planted rows always carry full class signal even when interiors
        # are attenuated; at scale 1 this adds exact zero
        feats[boundary_ids, labels[boundary_ids]] += spec.class_separation * (
            1.0 - class_scale
        )
        blocks[boundary_ids] = spec.classes_per_domain
    edges = _sbm_edges(blocks, spec.intra_edge_prob, spec.inter_block_prob, rng)
    if len(edges) == 0:
        warnings.warn(
            f"domain {domain_id} came out edgeless with the given probabilities",
            stacklevel=3,
        )
    graph = build_domain_graph(edges, feats, domain_id=domain_id, labels=labels)
    return graph, boundary_ids


def make_synth(spec: SynthSpec, seed: int = 0):
    """Build source graphs (plus target if requested), all in memory.

    Returns (source_graphs, target_graph_or_None, planted_boundary_ids).
    """
    spec.validate()
    sources, planted = [], {}
    for k in range(spec.K):
        rng = np.random.default_rng(sub_seed(seed, f"synth-domain-{k}"))
        graph, boundary_ids = _make_domain(
            spec,
            _domain_center(spec, k),
            spec.boundary_cluster_fraction,
            k,
            rng,
            class_scale=spec.interior_class_scale,
        )
        sources.append(graph)
        planted[k] = boundary_ids
    target = None
    if spec.include_target:
        rng = np.random.default_rng(sub_seed(seed, "synth-target"))
        target, _ = _make_domain(spec, _midpoint_center(spec), 0.0, spec.K, rng)
        # per-node nuisance along the domain axes; zero scale is a no-op
        # so the default stream stays byte-identical
        axes = slice(spec.classes_per_domain, spec.classes_per_domain + spec.K)
        extra = rng.normal(size=(spec.nodes_per_domain, spec.K))
        target.features_raw[:, axes] += spec.target_domain_noise * extra
    return sources, target, planted


def gen_synth(spec: SynthSpec, seed: int, out_dir) -> list:
    """Generate and write the synthetic domains; byte-stable per seed."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sources, target, planted = make_synth(spec, seed)
    everything = sources + ([target] if target is not None else [])
    for graph in everything:
        k = graph.domain_id
        write_edge_list(out / f"edges_{k}.txt", [tuple(e) for e in graph.edge_array()])
        write_matrix(out / f"features_{k}.mdgf", graph.features_raw)
        write_labels(out / f"labels_{k}.txt", graph.labels)
    meta = {
        "spec": asdict(spec),
        "seed": seed,
        "num_source_domains": spec.K,
        "target_domain": spec.K if target is not None else None,
        "planted_boundary": {str(k): v.tolist() for k, v in planted.items()},
    }
    with open(out / "meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return everything


def load_synth_dir(data_dir):
    """Reload a gen_synth output directory into DomainGraph objects."""
    from .graphs import load_graph

    data = Path(data_dir)
    meta_path = data / "meta.json"
    if not meta_path.exists():
        raise ValidationError(f"no meta.json under {data}")
    with open(meta_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    n_sources = meta["num_source_domains"]
    target_id = meta.get("target_domain")
    sources = [
        load_graph(
            data / f"edges_{k}.txt",
            data / f"features_{k}.mdgf",
            domain_id=k,
            labels_path=data / f"labels_{k}.txt",
        )
        for k in range(n_sources)
    ]
    target = None
    if target_id is not None:
        target = load_graph(
            data / f"edges_{target_id}.txt",
            data / f"features_{target_id}.mdgf",
            domain_id=target_id,
            labels_path=data / f"labels_{target_id}.txt",
        )
    return sources, target, meta
