"""Measurable bound terms and empirical checks for the trained encoder.

Covers the spectral Lipschitz upper bound, subgraph overlap statistics,
the dependence-adjusted concentration constant, boundary mass, the
mixing-stability inequality, and the domain-ambiguity probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .boundary import center_distances
from .errors import ConvergenceError, ValidationError
from .graphs import EgoSubgraph, extract_ego
from .mixing import mix_subgraphs
from .nn import ModelState, gcn_encode, init_model, mean_pool, normalized_adjacency
from .optim import Adam
from .seeding import sub_seed

POWER_TOL = 1e-8
POWER_MAX_STEPS = 10_000


def spectral_norm(mat, tol: float = POWER_TOL, max_steps: int = POWER_MAX_STEPS) -> float:
    """Largest singular value via power iteration on M^T M.

    Deterministic seeded start vector; raises ConvergenceError if the
    estimate has not stabilized after max_steps iterations.
    """
    is_sparse = sp.issparse(mat)
    if not is_sparse:
        mat = np.asarray(mat, dtype=np.float64)
        if mat.ndim != 2:
            raise ValidationError(f"need a 2-d matrix, got shape {mat.shape}")
    n_cols = mat.shape[1]
    rng = np.random.default_rng(sub_seed(0, "power-iteration-start"))
    v = rng.normal(size=n_cols)
    v /= np.linalg.norm(v)
    sigma_prev = None
    for _ in range(max_steps):
        w = mat @ v
        sigma = float(np.linalg.norm(w))
        if sigma == 0.0:
            return 0.0
        if sigma_prev is not None and abs(sigma - sigma_prev) <= tol * max(1.0, sigma):
            return sigma
        sigma_prev = sigma
        v = mat.T @ w
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return sigma
        v /= nv
    raise ConvergenceError(
        f"power iteration did not converge within {max_steps} steps"
    )


def lipschitz_upper(
    state: ModelState,
    subgraphs,
    tol: float = POWER_TOL,
    max_steps: int = POWER_MAX_STEPS,
) -> float:
    """sigma_max(W1) * sigma_max(W2) * max over subgraphs of ||A_hat||_2^2."""
    subgraphs = list(subgraphs)
    if not subgraphs:
        raise ValidationError("need at least one subgraph for the adjacency term")
    s1 = spectral_norm(state.params["encoder.w1"].data, tol, max_steps)
    s2 = spectral_norm(state.params["encoder.w2"].data, tol, max_steps)
    a_max = max(
        spectral_norm(normalized_adjacency(s.num_nodes, s.edges), tol, max_steps)
        for s in subgraphs
    )
    return s1 * s2 * a_max**2


def overlap_ratio(ids_a, ids_b) -> float:
    """|A intersect B| / min(|A|, |B|) over node-id sets."""
    a, b = set(ids_a), set(ids_b)
    if not a or not b:
        raise ValidationError("overlap_ratio needs two non-empty node sets")
    return len(a & b) / min(len(a), len(b))


def _as_tagged_set(item):
    if isinstance(item, EgoSubgraph):
        return item.source_domain, frozenset(int(i) for i in item.nodes_global)
    source, ids = item
    return source, frozenset(int(i) for i in ids)


def max_overlap(subgraphs) -> float:
    """Max pairwise overlap ratio; pairs from different graphs count 0."""
    tagged = [_as_tagged_set(s) for s in subgraphs]
    if len(tagged) < 2:
        raise ValidationError("need at least 2 subgraphs")
    best = 0.0
    for i in range(len(tagged)):
        for j in range(i + 1, len(tagged)):
            if tagged[i][0] != tagged[j][0]:
                continue
            best = max(best, overlap_ratio(tagged[i][1], tagged[j][1]))
    return best


def delta_max_bound(subgraphs, kappa: float = 0.25) -> float:
    """kappa * max pairwise overlap, the computable dependence bound."""
    if not 0.0 <= kappa <= 0.25:
        raise ValidationError(f"kappa must be in [0, 0.25], got {kappa}")
    return kappa * max_overlap(subgraphs)


def sigma_dep(n: int, delta_max: float) -> float:
    """sqrt(1/4 + (n - 1) * delta_max)."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if delta_max < 0:
        raise ValidationError(f"delta_max must be >= 0, got {delta_max}")
    return math.sqrt(0.25 + (n - 1) * delta_max)


def sampling_term(n: int, delta_max: float, delta_conf: float) -> float:
    """sigma_dep * sqrt(ln(2/delta) / (2n)), the concentration term."""
    if not 0.0 < delta_conf < 1.0:
        raise ValidationError(
            f"confidence level delta must be in (0, 1), got {delta_conf}"
        )
    return sigma_dep(n, delta_max) * math.sqrt(math.log(2.0 / delta_conf) / (2.0 * n))


def boundary_mass(boundary_sets, graphs):
    """Per-domain |B_k| / |V_k| plus the minimum across domains."""
    sizes = {g.domain_id: g.num_nodes for g in graphs}
    ratios = {}
    for bset in boundary_sets:
        k = bset.domain_id
        if k not in sizes:
            raise ValidationError(f"no graph with domain id {k}")
        ratios[k] = len(bset.node_ids) / sizes[k]
    if not ratios:
        raise ValidationError("no boundary sets given")
    return ratios, min(ratios.values())


def _embed(sub, state: ModelState) -> np.ndarray:
    return mean_pool(gcn_encode(sub, state)).data


@dataclass
class StabilityResult:
    violations: int
    margins: np.ndarray  # RHS - LHS per pair; negative means violated
    lipschitz_bound: float

    @property
    def num_pairs(self) -> int:
        return len(self.margins)


def _local_edge_sets(mixed, sub_a, sub_b):
    """Map each input subgraph's edges into the mixed graph's local ids."""
    amap, bmap = {}, {}
    for idx, (ga, gb) in enumerate(mixed.node_origins):
        if ga is not None:
            amap[ga] = idx
        if gb is not None:
            bmap[gb] = idx
    if sub_a.source_domain == sub_b.source_domain:
        # same-graph mixing folds both centers into merged node 0, so either
        # center id may appear as a plain neighbor on the opposite side
        amap[sub_b.center_global] = 0
        bmap[sub_a.center_global] = 0

    def relabel(sub, gmap):
        out = set()
        for u, v in sub.edges:
            mu = gmap[int(sub.nodes_global[u])]
            mv = gmap[int(sub.nodes_global[v])]
            if mu != mv:
                out.add((min(mu, mv), max(mu, mv)))
        return out

    return relabel(sub_a, amap), relabel(sub_b, bmap)


def stability_check(
    state: ModelState,
    pairs,
    lipschitz: float | None = None,
    tol: float = 1e-6,
) -> StabilityResult:
    """Check the mixing-stability inequality on (sub_a, sub_b, lam) pairs.

    LHS: ||f(mix(a, b, lam)) - f(a)||. RHS: (1 - lam) * L_f * ||feature
    difference on shared nodes|| plus L_f * (new-node count + new-edge
    count). Shared rows of a same-graph pair are identical, so in both the
    cross-graph and same-graph cases the feature term reduces to the
    interpolated center: (1 - lam) * L_f * ||x_center_b - x_center_a||.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValidationError("no pairs to check")
    mixes = []
    for sub_a, sub_b, lam in pairs:
        k = max(sub_a.source_domain, sub_b.source_domain) + 1
        mixes.append(mix_subgraphs(sub_a, sub_b, lam, num_domains=k))
    if lipschitz is None:
        sample = [p[0] for p in pairs] + [p[1] for p in pairs] + mixes
        lipschitz = lipschitz_upper(state, sample)
    margins = []
    violations = 0
    for (sub_a, sub_b, lam), mixed in zip(pairs, mixes):
        lhs = float(np.linalg.norm(_embed(mixed, state) - _embed(sub_a, state)))
        diff = (
            sub_b.features[sub_b.center_local]
            - sub_a.features[sub_a.center_local]
        )
        feat_term = (1.0 - lam) * lipschitz * float(np.linalg.norm(diff))
        new_nodes = sum(1 for ga, _ in mixed.node_origins if ga is None)
        edges_a, edges_b = _local_edge_sets(mixed, sub_a, sub_b)
        new_edges = len(edges_b - edges_a)
        rhs = feat_term + lipschitz * (new_nodes + new_edges)
        margin = rhs - lhs
        margins.append(margin)
        if lhs > rhs + tol:
            violations += 1
    return StabilityResult(
        violations=violations,
        margins=np.array(margins),
        lipschitz_bound=lipschitz,
    )


@dataclass
class ProbeReport:
    accuracy: dict
    loss: dict

    def to_dict(self) -> dict:
        return {"accuracy": dict(self.accuracy), "loss": dict(self.loss)}


def _probe_loss(sub, label, state: ModelState):
    h = mean_pool(gcn_encode(sub, state))
    probs = (h @ state.params["dec.w"] + state.params["dec.b"]).softmax()
    return -probs.clamp(1e-12, 1.0)[label].log(), probs


def ambiguity_probe(
    graphs,
    aligned,
    centers,
    boundary_sets,
    config,
    seed: int | None = None,
) -> ProbeReport:
    """Train a fresh domain classifier on center-nearest egos, evaluate on
    held-out center, random, and boundary egos."""
    if seed is None:
        seed = config.seed
    num_domains = len(graphs)
    hops = config.hops
    train_items = []
    eval_pools = {"center": [], "random": [], "boundary": []}
    for k, (graph, feats) in enumerate(zip(graphs, aligned)):
        n = graph.num_nodes
        dist_own = center_distances(feats, centers).matrix[:, k]
        order = np.argsort(dist_own, kind="stable")
        pool = order[: max(2, math.ceil(0.1 * n))]
        rng = np.random.default_rng(sub_seed(seed, f"probe-split-{k}"))
        shuffled = rng.permutation(pool)
        half = len(shuffled) // 2
        train_ids = shuffled[:half]
        heldout = shuffled[half:]
        train_set = set(int(i) for i in train_ids)
        candidates = np.array([i for i in range(n) if i not in train_set])
        rand_ids = rng.choice(candidates, size=min(len(heldout), len(candidates)), replace=False)
        for node in train_ids:
            train_items.append((extract_ego(graph, int(node), hops, feats), k))
        for node in heldout:
            eval_pools["center"].append((extract_ego(graph, int(node), hops, feats), k))
        for node in rand_ids:
            eval_pools["random"].append((extract_ego(graph, int(node), hops, feats), k))
        for node in boundary_sets[k].node_ids:
            eval_pools["boundary"].append((extract_ego(graph, int(node), hops, feats), k))

    probe = init_model(aligned[0].d, config.hidden, num_domains, seed=sub_seed(seed, "probe-init"))
    trainable = {
        name: t
        for name, t in probe.params.items()
        if name.startswith("encoder.") or name.startswith("dec.")
    }
    opt = Adam(
        trainable,
        lr=config.lr_pre,
        weight_decay=config.weight_decay,
        beta1=config.beta1,
        beta2=config.beta2,
        eps=config.adam_eps,
    )
    order_rng = np.random.default_rng(sub_seed(seed, "probe-epochs"))
    for _ in range(50):
        for idx in order_rng.permutation(len(train_items)):
            sub, label = train_items[idx]
            loss, _ = _probe_loss(sub, label, probe)
            opt.zero_grad()
            loss.backward()
            opt.step()

    accuracy, loss_out = {}, {}
    for name, items in eval_pools.items():
        hits, losses = [], []
        for sub, label in items:
            ce, probs = _probe_loss(sub, label, probe)
            losses.append(float(ce.data))
            hits.append(1.0 if int(np.argmax(probs.data)) == label else 0.0)
        accuracy[name] = float(np.mean(hits)) if hits else float("nan")
        loss_out[name] = float(np.mean(losses)) if losses else float("nan")
    return ProbeReport(accuracy=accuracy, loss=loss_out)


@dataclass
class DiagnosticsReport:
    lipschitz_bound: float
    max_overlap: float
    delta_max_bound: float
    sigma_dep: float
    sampling_term: float
    boundary_mass: dict
    rho_min: float
    probe_accuracies: dict
    probe_losses: dict
    stability_violations: int
    stability_margin_min: float
    num_subgraphs: int

    def to_dict(self) -> dict:
        return {
            "lipschitz_bound": self.lipschitz_bound,
            "max_overlap": self.max_overlap,
            "delta_max_bound": self.delta_max_bound,
            "sigma_dep": self.sigma_dep,
            "sampling_term": self.sampling_term,
            "boundary_mass": {str(k): v for k, v in sorted(self.boundary_mass.items())},
            "rho_min": self.rho_min,
            "probe_accuracies": dict(self.probe_accuracies),
            "probe_losses": dict(self.probe_losses),
            "stability_violations": self.stability_violations,
            "stability_margin_min": self.stability_margin_min,
            "num_subgraphs": self.num_subgraphs,
        }


def compute_diagnostics(
    graphs,
    aligned,
    centers,
    boundary_sets,
    state: ModelState,
    config,
    n_sample: int = 20,
    kappa: float = 0.25,
    delta_conf: float = 0.05,
) -> DiagnosticsReport:
    """Assemble the full report from a trained model and boundary sets."""
    seed = config.seed
    rng = np.random.default_rng(sub_seed(seed, "diagnostics-sample"))
    subs = []
    for graph, feats in zip(graphs, aligned):
        picks = rng.choice(graph.num_nodes, size=min(n_sample, graph.num_nodes), replace=False)
        subs.extend(extract_ego(graph, int(c), config.hops, feats) for c in picks)
    ovlp = max_overlap(subs)
    dmax = kappa * ovlp
    n = max(1, 2 * config.n_pairs)
    pairs = []
    for _ in range(min(n_sample, len(subs) // 2)):
        i, j = rng.choice(len(subs), size=2, replace=False)
        pairs.append((subs[i], subs[j], 0.5))
    stability = stability_check(state, pairs)
    mass, rho_min = boundary_mass(boundary_sets, graphs)
    probe = ambiguity_probe(graphs, aligned, centers, boundary_sets, config)
    return DiagnosticsReport(
        lipschitz_bound=lipschitz_upper(state, subs),
        max_overlap=ovlp,
        delta_max_bound=dmax,
        sigma_dep=sigma_dep(n, dmax),
        sampling_term=sampling_term(n, dmax, delta_conf),
        boundary_mass=mass,
        rho_min=rho_min,
        probe_accuracies=probe.accuracy,
        probe_losses=probe.loss,
        stability_violations=stability.violations,
        stability_margin_min=float(np.min(stability.margins)),
        num_subgraphs=len(subs),
    )
