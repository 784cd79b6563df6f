"""Cross-domain pair selection and mixed-subgraph construction.

Inter-domain pairs come from the boundary sets: all cross-domain boundary
pairs above a cosine threshold, top-N by similarity. Intra-domain pairs are
sampled uniformly per domain. Mixing merges the two ego centers into one
node whose feature is the lambda-interpolation of the two center features;
everything else keeps its original feature and the edge sets are unioned.
Topology therefore does not depend on lambda.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import NoMixablePairsError, ValidationError
from .graphs import extract_ego
from .seeding import sub_seed


@dataclass
class NodePair:
    domain_a: int
    node_a: int
    domain_b: int
    node_b: int
    similarity: float


@dataclass
class MixedSubgraph:
    features: np.ndarray  # num_nodes x d
    edges: np.ndarray  # local pairs, u < v, lexicographically sorted
    merged_center: int
    coarse_label: int  # 0 intra, 1 inter
    mix_label: np.ndarray  # length-K simplex vector
    provenance: tuple  # (domain_a, node_a, domain_b, node_b, lam)
    node_origins: list  # per local node: (global id in a | None, global id in b | None)

    @property
    def num_nodes(self) -> int:
        return self.features.shape[0]

    def edge_set(self) -> set:
        return {(int(u), int(v)) for u, v in self.edges}


@dataclass
class MixBatch:
    inter: list
    intra: list

    @property
    def subgraphs(self) -> list:
        return self.inter + self.intra


def cosine_sim(x, y) -> float:
    """Cosine similarity; zero-norm inputs count as unrelated (0)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError(f"vector shapes differ: {x.shape} vs {y.shape}")
    nx = math.sqrt(float(np.dot(x, x)))
    ny = math.sqrt(float(np.dot(y, y)))
    if nx == 0.0 or ny == 0.0:
        return 0.0
    return float(np.dot(x, y)) / (nx * ny)


def _cosine_matrix(a, b):
    """Pairwise cosine table; rows with zero norm get similarity 0."""
    dots = a @ b.T
    na = np.sqrt(np.einsum("ij,ij->i", a, a))
    nb = np.sqrt(np.einsum("ij,ij->i", b, b))
    denom = np.outer(na, nb)
    out = np.zeros_like(dots)
    np.divide(dots, denom, out=out, where=denom > 0)
    return out


def select_pairs(
    boundary_sets,
    aligned,
    gamma: float,
    n_pairs: int,
    rng_seed: int = 0,
    mode: str = "boundary-top",
):
    """Pick N cross-domain pairs.

    mode "boundary-top": boundary pairs with sim > gamma, best-first
    (ties by (domain_a, node_a, domain_b, node_b)). "boundary-random":
    same qualifying pool, uniform draw. "random": uniform cross-domain
    pairs over all nodes, ignoring boundaries and gamma (ablation arm).
    """
    if not 0.0 <= gamma < 1.0:
        raise ValidationError(f"gamma must be in [0, 1), got {gamma}")
    if n_pairs < 1:
        raise ValidationError(f"n_pairs must be >= 1, got {n_pairs}")
    if mode not in ("boundary-top", "boundary-random", "random"):
        raise ValidationError(f"unknown pair mode {mode!r}")
    n_domains = len(aligned)
    if n_domains < 2:
        raise ValidationError(f"need at least 2 domains, got {n_domains}")
    mats = [np.asarray(getattr(a, "matrix", a), dtype=np.float64) for a in aligned]

    if mode == "random":
        rng = np.random.default_rng(rng_seed)
        pool = [(k, i) for k in range(n_domains) for i in range(len(mats[k]))]
        pairs = []
        guard = 0
        while len(pairs) < n_pairs:
            ia, ib = rng.integers(len(pool)), rng.integers(len(pool))
            (ka, na_), (kb, nb_) = pool[ia], pool[ib]
            if ka == kb:
                guard += 1
                if guard > 10000 * n_pairs:
                    raise NoMixablePairsError("could not draw cross-domain pairs")
                continue
            if ka > kb:
                ka, na_, kb, nb_ = kb, nb_, ka, na_
            pairs.append(
                NodePair(ka, na_, kb, nb_, cosine_sim(mats[ka][na_], mats[kb][nb_]))
            )
        return pairs

    ids = [np.asarray(bs.node_ids, dtype=np.int64) for bs in boundary_sets]
    qualifying = []
    for ka in range(n_domains):
        for kb in range(ka + 1, n_domains):
            if len(ids[ka]) == 0 or len(ids[kb]) == 0:
                continue
            sims = _cosine_matrix(mats[ka][ids[ka]], mats[kb][ids[kb]])
            keep = np.argwhere(sims > gamma)
            for r, c in keep:
                qualifying.append(
                    NodePair(
                        ka,
                        int(ids[ka][r]),
                        kb,
                        int(ids[kb][c]),
                        float(sims[r, c]),
                    )
                )
    if not qualifying:
        raise NoMixablePairsError(
            f"no cross-domain boundary pair has similarity > {gamma}; lower gamma"
        )
    if mode == "boundary-random":
        rng = np.random.default_rng(rng_seed)
        take = min(n_pairs, len(qualifying))
        idx = rng.choice(len(qualifying), size=take, replace=False)
        chosen = [qualifying[i] for i in sorted(idx)]
    else:
        qualifying.sort(
            key=lambda p: (-p.similarity, p.domain_a, p.node_a, p.domain_b, p.node_b)
        )
        chosen = qualifying[:n_pairs]
    if len(chosen) < n_pairs:
        warnings.warn(
            f"only {len(chosen)} of {n_pairs} requested cross-domain pairs qualify",
            stacklevel=2,
        )
    return chosen


# distinct-pair enumeration is exact below this; above it, rejection-sample
_ENUMERATION_CUTOFF = 250_000


def sample_intra_pairs(pools, n_pairs: int, num_domains: int, rng_seed: int = 0):
    """Uniform distinct same-domain pairs: floor(N/K) per domain plus one
    extra for domains 0..(N mod K)-1."""
    if num_domains < 1 or len(pools) != num_domains:
        raise ValidationError(
            f"expected {num_domains} pools, got {len(pools)}"
        )
    if n_pairs < 1:
        raise ValidationError(f"n_pairs must be >= 1, got {n_pairs}")
    rng = np.random.default_rng(rng_seed)
    base, extra = divmod(n_pairs, num_domains)
    pairs = []
    for k in range(num_domains):
        quota = base + (1 if k < extra else 0)
        if quota == 0:
            continue
        pool = sorted(int(i) for i in pools[k])
        n = len(pool)
        total = n * (n - 1) // 2
        if total < quota:
            raise ValidationError(
                f"domain {k} pool has {n} nodes ({total} distinct pairs), "
                f"needs {quota}"
            )
        if total <= _ENUMERATION_CUTOFF:
            all_pairs = list(combinations(pool, 2))
            idx = rng.choice(total, size=quota, replace=False)
            chosen = [all_pairs[i] for i in sorted(idx)]
        else:
            seen = set()
            chosen = []
            while len(chosen) < quota:
                a, b = rng.choice(n, size=2, replace=False)
                pair = (pool[min(a, b)], pool[max(a, b)])
                if pair not in seen:
                    seen.add(pair)
                    chosen.append(pair)
        for a, b in chosen:
            pairs.append(NodePair(k, a, k, b, float("nan")))
    return pairs


def mix_subgraphs(sub_a, sub_b, lam: float, num_domains: int | None = None) -> MixedSubgraph:
    """Merge two ego subgraphs around an interpolated center.

    Within one source graph any shared global node is identified once
    (features from sub_a); across graphs only the centers are fused.
    Identification can turn a center-center edge into a self-loop, which
    is dropped (the encoder adds its own self-loops).
    """
    if sub_a.features.shape[1] != sub_b.features.shape[1]:
        raise ValidationError(
            f"feature widths differ: {sub_a.features.shape[1]} vs "
            f"{sub_b.features.shape[1]}"
        )
    if not 0.0 <= lam <= 1.0:
        raise ValidationError(f"lambda must be in [0, 1], got {lam}")
    da, db = sub_a.source_domain, sub_b.source_domain
    if num_domains is None:
        num_domains = max(da, db) + 1
    if max(da, db) >= num_domains:
        raise ValidationError(
            f"domain id {max(da, db)} out of range for {num_domains} domains"
        )
    same_graph = da == db
    ca, cb = sub_a.center_global, sub_b.center_global
    center_ids = {ca, cb} if same_graph else None

    set_b = set(int(g) for g in sub_b.nodes_global)
    shared = (
        sorted(
            g
            for g in (int(x) for x in sub_a.nodes_global)
            if g in set_b and g not in center_ids
        )
        if same_graph
        else []
    )
    shared_set = set(shared)

    features = [lam * sub_a.features[sub_a.center_local] + (1.0 - lam) * sub_b.features[sub_b.center_local]]
    origins = [(ca, cb)]
    map_a = {}
    map_b = {}
    if same_graph:
        for g in center_ids:
            map_a[g] = 0
            map_b[g] = 0
    else:
        map_a[ca] = 0
        map_b[cb] = 0

    for local, g in enumerate(int(x) for x in sub_a.nodes_global):
        if g in map_a:
            continue
        map_a[g] = len(features)
        if g in shared_set:
            map_b[g] = map_a[g]
            origins.append((g, g))
        else:
            origins.append((g, None))
        features.append(sub_a.features[local])
    for local, g in enumerate(int(x) for x in sub_b.nodes_global):
        if g in map_b:
            continue
        map_b[g] = len(features)
        origins.append((None, g))
        features.append(sub_b.features[local])

    edge_set = set()
    for mapping, sub in ((map_a, sub_a), (map_b, sub_b)):
        globals_ = sub.nodes_global
        for u, v in sub.edges:
            lu, lv = mapping[int(globals_[u])], mapping[int(globals_[v])]
            if lu == lv:
                continue
            edge_set.add((lu, lv) if lu < lv else (lv, lu))
    edges = (
        np.array(sorted(edge_set), dtype=np.int64)
        if edge_set
        else np.empty((0, 2), dtype=np.int64)
    )

    mix_label = np.zeros(num_domains)
    mix_label[da] += lam
    mix_label[db] += 1.0 - lam
    return MixedSubgraph(
        features=np.array(features, dtype=np.float64),
        edges=edges,
        merged_center=0,
        coarse_label=0 if same_graph else 1,
        mix_label=mix_label,
        provenance=(da, int(ca), db, int(cb), float(lam)),
        node_origins=origins,
    )


def build_batch(
    inter_pairs,
    intra_pairs,
    graphs,
    aligned,
    hops: int = 1,
    lambda_mode: str = "fixed",
    lam: float = 0.5,
    lambda_alpha: float = 0.2,
    rng=None,
) -> MixBatch:
    """Extract ego subgraphs for every pair and mix them (inter first)."""
    if hops < 1:
        raise ValidationError(f"hops must be >= 1, got {hops}")
    if lambda_mode not in ("fixed", "beta"):
        raise ValidationError(f"unknown lambda mode {lambda_mode!r}")
    if lambda_mode == "beta" and rng is None:
        rng = np.random.default_rng(0)
    num_domains = len(graphs)
    mats = [getattr(a, "matrix", a) for a in aligned]

    def make(pair):
        ego_a = extract_ego(graphs[pair.domain_a], pair.node_a, hops, mats[pair.domain_a])
        ego_b = extract_ego(graphs[pair.domain_b], pair.node_b, hops, mats[pair.domain_b])
        here = lam if lambda_mode == "fixed" else float(rng.beta(lambda_alpha, lambda_alpha))
        return mix_subgraphs(ego_a, ego_b, here, num_domains=num_domains)

    return MixBatch(
        inter=[make(p) for p in inter_pairs],
        intra=[make(p) for p in intra_pairs],
    )


def epoch_batches(graphs, aligned, boundary_sets, config):
    """The pre-training batch builder: returns ``batch(epoch) -> MixBatch``.

    Inter pairs are selected from the boundary sets and mixed once, here,
    and every epoch reuses them; intra pairs are redrawn per epoch from
    ``config.intra_pool``. Each draw has its own sub-seed of config.seed.
    """
    inter_pairs = select_pairs(
        boundary_sets,
        aligned,
        config.gamma,
        config.n_pairs,
        rng_seed=sub_seed(config.seed, "inter-pairs"),
        mode=config.pair_mode,
    )
    if config.intra_pool == "boundary":
        pools = [bs.node_ids for bs in boundary_sets]
    else:
        pools = [np.arange(g.num_nodes) for g in graphs]

    def mix(inter, intra, lambda_seed):
        return build_batch(
            inter,
            intra,
            graphs,
            aligned,
            hops=config.hops,
            lambda_mode=config.lambda_mode,
            lambda_alpha=config.lambda_alpha,
            rng=np.random.default_rng(sub_seed(config.seed, lambda_seed)),
        )

    inter = mix(inter_pairs, [], "lambda-inter").inter

    def batch(epoch: int) -> MixBatch:
        intra_pairs = sample_intra_pairs(
            pools,
            config.n_pairs,
            len(graphs),
            rng_seed=sub_seed(config.seed, f"intra-pairs-epoch-{epoch}"),
        )
        intra = mix([], intra_pairs, f"lambda-epoch-{epoch}").intra
        return MixBatch(inter=inter, intra=intra)

    return batch
