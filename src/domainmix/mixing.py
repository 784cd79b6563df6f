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

import numpy as np

from .align import as_array
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
    mats = [as_array(a, "matrix") for a in aligned]

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

    # the qualifying pairs as columns (sim, domain_a, node_a, domain_b,
    # node_b), domain pair by domain pair and row-major within each
    ids = [np.asarray(bs.node_ids, dtype=np.int64) for bs in boundary_sets]
    columns = [[] for _ in range(5)]
    for ka in range(n_domains):
        for kb in range(ka + 1, n_domains):
            if len(ids[ka]) == 0 or len(ids[kb]) == 0:
                continue
            sims = _cosine_matrix(mats[ka][ids[ka]], mats[kb][ids[kb]])
            r, c = np.nonzero(sims > gamma)
            found = (sims[r, c], np.full(len(r), ka), ids[ka][r], np.full(len(r), kb), ids[kb][c])
            for column, values in zip(columns, found):
                column.append(values)
    sim, da, na, db, nb = (
        np.concatenate(column) if column else np.empty(0) for column in columns
    )
    if len(sim) == 0:
        raise NoMixablePairsError(
            f"no cross-domain boundary pair has similarity > {gamma}; lower gamma"
        )
    if mode == "boundary-random":
        rng = np.random.default_rng(rng_seed)
        take = min(n_pairs, len(sim))
        keep = np.sort(rng.choice(len(sim), size=take, replace=False))
    else:
        # best-first; ties by (domain_a, node_a, domain_b, node_b)
        keep = np.lexsort((nb, db, na, da, -sim))[:n_pairs]
    chosen = [
        NodePair(int(da[i]), int(na[i]), int(db[i]), int(nb[i]), float(sim[i]))
        for i in keep
    ]
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
        pool = np.sort(np.asarray(pools[k], dtype=np.int64))
        n = len(pool)
        total = n * (n - 1) // 2
        if total < quota:
            raise ValidationError(
                f"domain {k} pool has {n} nodes ({total} distinct pairs), "
                f"needs {quota}"
            )
        if total <= _ENUMERATION_CUTOFF:
            # index t of combinations(pool, 2) is (pool[i], pool[j]) for the
            # row i whose first index starts[i] is the last one <= t
            idx = np.sort(rng.choice(total, size=quota, replace=False))
            rows = np.arange(n)
            starts = rows * (2 * n - rows - 1) // 2
            i = np.searchsorted(starts, idx, side="right") - 1
            j = idx - starts[i] + i + 1
            chosen = zip(pool[i].tolist(), pool[j].tolist())
        else:
            pool = pool.tolist()
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
    nodes_a = np.asarray(sub_a.nodes_global, dtype=np.int64)
    nodes_b = np.asarray(sub_b.nodes_global, dtype=np.int64)

    # local ids: merged center 0, then sub_a's other nodes in order, then
    # sub_b's nodes that are not already there. Within one source graph
    # both centers fold into node 0 and shared nodes keep sub_a's row.
    if same_graph:
        center_a = (nodes_a == ca) | (nodes_a == cb)
        center_b = (nodes_b == ca) | (nodes_b == cb)
        shared_a = _members(nodes_a, nodes_b) & ~center_a
        shared_b = _members(nodes_b, nodes_a) & ~center_b
    else:
        center_a, center_b = nodes_a == ca, nodes_b == cb
        shared_a = np.zeros(len(nodes_a), dtype=bool)
        shared_b = np.zeros(len(nodes_b), dtype=bool)
    own_a = ~center_a
    new_b = ~(center_b | shared_b)
    n_a = int(own_a.sum())
    local_a = np.zeros(len(nodes_a), dtype=np.int64)
    local_a[own_a] = 1 + np.arange(n_a)
    local_b = np.zeros(len(nodes_b), dtype=np.int64)
    local_b[shared_b] = local_a[np.searchsorted(nodes_a, nodes_b[shared_b])]
    local_b[new_b] = 1 + n_a + np.arange(int(new_b.sum()))
    num_nodes = 1 + n_a + int(new_b.sum())

    center = (
        lam * sub_a.features[sub_a.center_local]
        + (1.0 - lam) * sub_b.features[sub_b.center_local]
    )
    features = np.concatenate([[center], sub_a.features[own_a], sub_b.features[new_b]])
    origins = [(ca, cb)]
    origins += [
        (g, g) if shared else (g, None)
        for g, shared in zip(nodes_a[own_a].tolist(), shared_a[own_a].tolist())
    ]
    origins += [(None, g) for g in nodes_b[new_b].tolist()]

    ends = np.concatenate(
        [
            local_a[np.asarray(sub_a.edges, dtype=np.int64).reshape(-1, 2)],
            local_b[np.asarray(sub_b.edges, dtype=np.int64).reshape(-1, 2)],
        ]
    )
    ends = np.sort(ends[ends[:, 0] != ends[:, 1]], axis=1)
    codes = np.unique(ends[:, 0] * num_nodes + ends[:, 1])
    edges = np.column_stack([codes // num_nodes, codes % num_nodes])

    mix_label = np.zeros(num_domains)
    mix_label[da] += lam
    mix_label[db] += 1.0 - lam
    return MixedSubgraph(
        features=np.asarray(features, dtype=np.float64),
        edges=edges,
        merged_center=0,
        coarse_label=0 if same_graph else 1,
        mix_label=mix_label,
        provenance=(da, int(ca), db, int(cb), float(lam)),
        node_origins=origins,
    )


def _members(values, sorted_pool):
    """Mask of the ``values`` that occur in the ascending array ``sorted_pool``."""
    at = np.searchsorted(sorted_pool, values).clip(max=len(sorted_pool) - 1)
    return sorted_pool[at] == values


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
    egos=None,
) -> MixBatch:
    """Extract ego subgraphs for every pair and mix them (inter first).

    ``egos`` memoizes extracted egos by (domain, node); pass one dict to
    calls that share graphs, features and hops.
    """
    if hops < 1:
        raise ValidationError(f"hops must be >= 1, got {hops}")
    if lambda_mode not in ("fixed", "beta"):
        raise ValidationError(f"unknown lambda mode {lambda_mode!r}")
    if lambda_mode == "beta" and rng is None:
        rng = np.random.default_rng(0)
    num_domains = len(graphs)
    mats = [as_array(a, "matrix") for a in aligned]
    egos = {} if egos is None else egos

    def ego(domain, node):
        if (domain, node) not in egos:
            egos[domain, node] = extract_ego(graphs[domain], node, hops, mats[domain])
        return egos[domain, node]

    def make(pair):
        ego_a = ego(pair.domain_a, pair.node_a)
        ego_b = ego(pair.domain_b, pair.node_b)
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
    An ego is extracted once per run.
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

    egos = {}

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
            egos=egos,
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
