"""Cross-domain pair selection and mixed-subgraph construction.

Inter-domain pairs come from the boundary sets: all cross-domain boundary
pairs above a cosine threshold, top-N by similarity. Intra-domain pairs are
sampled uniformly per domain. Mixing merges the two ego centers into one
node whose feature is the lambda-interpolation of the two center features;
everything else keeps its original feature and the edge sets are unioned.
Topology therefore does not depend on lambda. A batch mixes all its
pairs in one array pass (mix_pairs), straight into the block-diagonal
union the encoder reads.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .align import as_array
from .errors import NoMixablePairsError, ValidationError
from .graphs import SubgraphUnion, block_union, extract_egos
from .seeding import sub_seed

# the mixing weight of lambda mode "fixed"
FIXED_LAMBDA = 0.5


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
    """A batch of mixed subgraphs, inter pairs first, as one union: block i
    of ``union`` is the mix of pair i."""

    union: SubgraphUnion
    coarse_labels: np.ndarray  # per block: 0 intra, 1 inter
    mix_labels: np.ndarray  # blocks x K, each row on the simplex
    provenance: list  # per block: (domain_a, node_a, domain_b, node_b, lam)
    num_nodes: np.ndarray  # per block
    num_edges: np.ndarray  # per block


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
        # best-first; ties by (domain_a, node_a, domain_b, node_b). Only pairs
        # at least as similar as the n-th best can be chosen, so sort just those
        cut = np.partition(sim, max(len(sim) - n_pairs, 0))[max(len(sim) - n_pairs, 0)]
        top = np.flatnonzero(sim >= cut)
        keep = top[np.lexsort((nb[top], db[top], na[top], da[top], -sim[top]))[:n_pairs]]
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


def mix_pairs(subs_a, subs_b, lams):
    """Mix every pair (subs_a[i], subs_b[i], lams[i]) in one array pass.

    Block i is the mix of pair i, in mix_subgraphs' local order. Returns
    ``(features, sizes, edges, ids, codes)``: the node rows of every block,
    stacked; each block's node count; the distinct edges in stacked rows,
    as (m, 2) pairs u < v in lexicographic order; per side (a, b), each
    input node's row; per side, its edges as codes u * total + v with
    u < v, self-loops dropped and repeats kept.
    """
    lams = np.asarray(lams, dtype=np.float64)
    widths = sorted({s.features.shape[1] for s in list(subs_a) + list(subs_b)})
    if len(widths) > 1:
        raise ValidationError(f"feature widths differ: {widths[0]} vs {widths[1]}")
    bad = ~((lams >= 0.0) & (lams <= 1.0))
    if bad.any():
        raise ValidationError(f"lambda must be in [0, 1], got {lams[bad][0]}")
    (pa, na, ea, xa, ca), (pb, nb, eb, xb, cb) = _stack(subs_a), _stack(subs_b)
    same = np.array([a.source_domain == b.source_domain for a, b in zip(subs_a, subs_b)])
    ga, gb = na[ca], nb[cb]
    # within one source graph both centers fold into node 0, and a node of
    # sub_b already in sub_a keeps sub_a's row; (pair, node) codes ascend
    # along sub_a, since nodes_global is sorted
    center_a = (na == ga[pa]) | (same[pa] & (na == gb[pa]))
    center_b = (nb == gb[pb]) | (same[pb] & (nb == ga[pb]))
    span = int(max(na.max(), nb.max())) + 1
    code_a, code_b = pa * span + na, pb * span + nb
    at = np.searchsorted(code_a, code_b).clip(max=len(code_a) - 1)
    shared_b = same[pb] & ~center_b & (code_a[at] == code_b)
    own_a, new_b = ~center_a, ~(center_b | shared_b)

    rank_a, n_a = _ranks(pa[own_a], len(lams))
    rank_b, n_b = _ranks(pb[new_b], len(lams))
    sizes = 1 + n_a + n_b
    offsets = np.cumsum(sizes) - sizes
    ids_a, ids_b = offsets[pa], offsets[pb]
    ids_a[own_a] += 1 + rank_a
    ids_b[new_b] += 1 + n_a[pb[new_b]] + rank_b
    ids_b[shared_b] = ids_a[at[shared_b]]

    features = np.empty((int(sizes.sum()), widths[0]))
    features[ids_a[own_a]] = xa[own_a]
    features[ids_b[new_b]] = xb[new_b]
    features[offsets] = lams[:, None] * xa[ca] + (1.0 - lams)[:, None] * xb[cb]
    ends = [np.sort(ids_a[ea], axis=1), np.sort(ids_b[eb], axis=1)]
    codes = [(e[:, 0] * len(features) + e[:, 1])[e[:, 0] != e[:, 1]] for e in ends]
    edges = np.column_stack(np.divmod(np.unique(np.concatenate(codes)), len(features)))
    return features, sizes, edges, (ids_a, ids_b), codes


def _stack(subs):
    """One side of a pair list as flat arrays: each node's pair and global
    id, the edges in stacked rows, the features, and each center's row."""
    sizes = np.array([len(s.nodes_global) for s in subs], dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    edges = [np.asarray(s.edges, dtype=np.int64).reshape(-1, 2) for s in subs]
    return (
        np.repeat(np.arange(len(subs)), sizes),
        np.concatenate([s.nodes_global for s in subs]).astype(np.int64),
        np.concatenate(edges) + np.repeat(starts, [len(e) for e in edges])[:, None],
        np.concatenate([s.features for s in subs]),
        starts + np.array([s.center_local for s in subs], dtype=np.int64),
    )


def _ranks(pair, num):
    """Each entry's rank within its pair (``pair`` ascends), and each pair's count."""
    counts = np.bincount(pair, minlength=num)
    return np.arange(len(pair)) - np.repeat(np.cumsum(counts) - counts, counts), counts


def _labels(subs_a, subs_b, lams, num_domains):
    """Coarse labels (0 within one graph, 1 across), mix-label rows and
    provenance tuples (domain_a, node_a, domain_b, node_b, lam)."""
    lams = np.asarray(lams, dtype=np.float64)
    da = np.array([s.source_domain for s in subs_a], dtype=np.int64)
    db = np.array([s.source_domain for s in subs_b], dtype=np.int64)
    top = int(max(da.max(), db.max()))
    if top >= num_domains:
        raise ValidationError(f"domain id {top} out of range for {num_domains} domains")
    mix = np.zeros((len(da), num_domains))
    mix[np.arange(len(da)), da] += lams
    mix[np.arange(len(da)), db] += 1.0 - lams
    provenance = [
        (a.source_domain, int(a.center_global), b.source_domain, int(b.center_global), w)
        for a, b, w in zip(subs_a, subs_b, lams.tolist())
    ]
    return (da != db).astype(np.int64), mix, provenance


def mix_subgraphs(sub_a, sub_b, lam: float, num_domains: int | None = None) -> MixedSubgraph:
    """Merge two ego subgraphs around an interpolated center (mix_pairs on
    one pair). Local ids: merged center 0, then sub_a's other nodes in
    order, then sub_b's nodes that are not already there. Within one
    source graph any shared global node is identified once (features from
    sub_a) and both centers fold into node 0; across graphs only the
    centers are fused. A center-center edge thus becomes a self-loop,
    which is dropped (the encoder adds its own self-loops).
    """
    if num_domains is None:
        num_domains = max(sub_a.source_domain, sub_b.source_domain) + 1
    features, _, edges, ids, _ = mix_pairs([sub_a], [sub_b], [lam])
    coarse, mix_label, provenance = _labels([sub_a], [sub_b], [lam], num_domains)
    origins = [[None, None] for _ in features]
    for side, sub in enumerate((sub_a, sub_b)):
        for g, i in zip(np.asarray(sub.nodes_global).tolist(), ids[side].tolist()):
            origins[i][side] = g
    origins[0] = [sub_a.center_global, sub_b.center_global]
    origins = [tuple(o) for o in origins]
    return MixedSubgraph(features, edges, 0, int(coarse[0]), mix_label[0], provenance[0], origins)


def _lambdas(n, lambda_mode, lam, lambda_alpha, rng):
    """n mixing weights: ``lam`` (one value, or n) in fixed mode, else n
    beta(alpha, alpha) draws from ``rng``."""
    if lambda_mode == "fixed":
        return np.broadcast_to(np.asarray(lam, dtype=np.float64), n)
    rng = np.random.default_rng(0) if rng is None else rng
    return rng.beta(lambda_alpha, lambda_alpha, size=n)


def build_batch(
    inter_pairs,
    intra_pairs,
    graphs,
    aligned,
    hops: int = 1,
    lambda_mode: str = "fixed",
    lam: float = FIXED_LAMBDA,
    lambda_alpha: float = 0.2,
    rng=None,
    egos=None,
) -> MixBatch:
    """Extract the egos of every pair and mix all pairs, inter first, into
    one union.

    ``lam`` is fixed mode's lambda, one value or one per pair; beta mode
    draws one per pair. ``egos`` memoizes extracted egos by (domain,
    node); pass one dict to calls that share graphs, features and hops.
    """
    if hops < 1:
        raise ValidationError(f"hops must be >= 1, got {hops}")
    if lambda_mode not in ("fixed", "beta"):
        raise ValidationError(f"unknown lambda mode {lambda_mode!r}")
    pairs = list(inter_pairs) + list(intra_pairs)
    if not pairs:
        raise ValidationError("empty batch")
    lams = _lambdas(len(pairs), lambda_mode, lam, lambda_alpha, rng)
    mats = [as_array(a, "matrix") for a in aligned]
    egos = {} if egos is None else egos
    ends = [(p.domain_a, p.node_a) for p in pairs] + [(p.domain_b, p.node_b) for p in pairs]
    missing = sorted({end for end in ends if end not in egos})
    for k in {k for k, _ in missing}:
        keys = [end for end in missing if end[0] == k]
        egos.update(zip(keys, extract_egos(graphs[k], [n for _, n in keys], hops, mats[k])))
    subs_a = [egos[end] for end in ends[: len(pairs)]]
    subs_b = [egos[end] for end in ends[len(pairs) :]]
    features, sizes, edges, _, _ = mix_pairs(subs_a, subs_b, lams)
    coarse, mix_labels, provenance = _labels(subs_a, subs_b, lams, len(graphs))
    owner = np.repeat(np.arange(len(pairs)), sizes)
    return MixBatch(
        union=block_union(features, edges, sizes),
        coarse_labels=coarse,
        mix_labels=mix_labels,
        provenance=provenance,
        num_nodes=sizes,
        num_edges=np.bincount(owner[edges[:, 0]], minlength=len(pairs)),
    )


def epoch_batches(graphs, aligned, boundary_sets, config):
    """The pre-training batch builder: returns ``batch(epoch) -> MixBatch``.

    Inter pairs and their lambdas are drawn once, here; intra pairs and
    theirs are redrawn per epoch from ``config.intra_pool``. Each draw has
    its own sub-seed of config.seed. Every epoch mixes both halves in one
    build_batch call, and an ego is extracted once per run.
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

    def lambdas(n, name):
        rng = np.random.default_rng(sub_seed(config.seed, name))
        return _lambdas(n, config.lambda_mode, FIXED_LAMBDA, config.lambda_alpha, rng)

    inter_lams = lambdas(len(inter_pairs), "lambda-inter")
    egos = {}

    def batch(epoch: int) -> MixBatch:
        seed = sub_seed(config.seed, f"intra-pairs-epoch-{epoch}")
        intra_pairs = sample_intra_pairs(pools, config.n_pairs, len(graphs), rng_seed=seed)
        lams = np.concatenate([inter_lams, lambdas(len(intra_pairs), f"lambda-epoch-{epoch}")])
        return build_batch(
            inter_pairs, intra_pairs, graphs, aligned, hops=config.hops, lam=lams, egos=egos
        )

    return batch
