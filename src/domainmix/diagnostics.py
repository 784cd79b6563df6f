"""Measurable bound terms and empirical checks for the trained encoder.

Covers the spectral Lipschitz upper bound, subgraph overlap statistics,
the dependence-adjusted concentration constant, boundary mass, the
mixing-stability inequality, and the domain-ambiguity probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary import center_distances
from .errors import ValidationError
from .graphs import EgoSubgraph, block_union, extract_egos, graph_union
from .mixing import mix_pairs
from .nn import ModelState, encode_union, init_model
from .optim import Adam
from .seeding import sub_seed

# full-batch Adam steps of the domain probe; 50 and 100 leave the probe
# unable to tell apart even well-separated domains
PROBE_EPOCHS = 200


def spectral_norm(mat) -> float:
    """Largest singular value of a 2-d matrix (exact, from its SVD)."""
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2:
        raise ValidationError(f"need a 2-d matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValidationError("matrix holds NaN or inf")
    return float(np.linalg.norm(mat, 2))


def lipschitz_upper(state: ModelState, subgraphs) -> float:
    """sigma_max(W1) * sigma_max(W2) * max over subgraphs of ||A_hat||_2^2.

    The adjacency term is 1 for every subgraph, so only the weights'
    spectral norms are computed. A_hat = D^-1/2 (A+I) D^-1/2 is symmetric
    and similar to the row-stochastic D^-1 (A+I), so its eigenvalues lie
    in [-1, 1] and its spectral norm is at most 1; D^1/2 1 is an
    eigenvector with eigenvalue 1, so the norm is exactly 1. The subgraphs
    are still required: the bound is stated over them.
    """
    if not list(subgraphs):
        raise ValidationError("need at least one subgraph for the adjacency term")
    s1 = spectral_norm(state.params["encoder.w1"].data)
    s2 = spectral_norm(state.params["encoder.w2"].data)
    return s1 * s2


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


@dataclass
class StabilityResult:
    violations: int
    margins: np.ndarray  # RHS - LHS per pair; negative means violated
    lipschitz_bound: float

    @property
    def num_pairs(self) -> int:
        return len(self.margins)


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
    New nodes and edges are those of sub_b that no node or edge of sub_a
    maps onto in the mix.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValidationError("no pairs to check")
    subs_a, subs_b, lams = (list(side) for side in zip(*pairs))
    features, sizes, edges, ids, codes = mix_pairs(subs_a, subs_b, lams)
    if lipschitz is None:
        lipschitz = lipschitz_upper(state, subs_a + subs_b)
    emb_a = encode_union(graph_union(subs_a), state).data
    emb_mix = encode_union(block_union(features, edges, sizes), state).data
    lhs = np.linalg.norm(emb_mix - emb_a, axis=1)
    owner = np.repeat(np.arange(len(pairs)), sizes)
    new_nodes = owner[np.setdiff1d(ids[1], ids[0])]
    new_edges = owner[np.setdiff1d(codes[1], codes[0]) // len(features)]
    diffs = [b.features[b.center_local] - a.features[a.center_local] for a, b, _ in pairs]
    rhs = lipschitz * (
        (1.0 - np.array(lams)) * np.array([np.linalg.norm(d) for d in diffs])
        + np.bincount(new_nodes, minlength=len(pairs))
        + np.bincount(new_edges, minlength=len(pairs))
    )
    return StabilityResult(
        violations=int(np.count_nonzero(lhs > rhs + tol)),
        margins=rhs - lhs,
        lipschitz_bound=lipschitz,
    )


@dataclass
class ProbeReport:
    accuracy: dict
    loss: dict

    def to_dict(self) -> dict:
        return {"accuracy": dict(self.accuracy), "loss": dict(self.loss)}


def probe_loss(union, labels, state: ModelState):
    """Mean clamped cross-entropy of the domain head over every block of a
    SubgraphUnion, with the (blocks x domains) probabilities."""
    labels = np.asarray(labels, dtype=np.int64)
    logits = encode_union(union, state) @ state.params["dec.w"] + state.params["dec.b"]
    probs = logits.softmax()
    picked = probs.clamp(1e-12, 1.0)[np.arange(len(labels)), labels]
    return -picked.log().mean(), probs


def ambiguity_probe(
    graphs,
    aligned,
    centers,
    boundary_sets,
    config,
    seed: int | None = None,
) -> ProbeReport:
    """Train a fresh domain classifier on center-nearest egos, evaluate on
    held-out center, random, and boundary egos.

    Training takes PROBE_EPOCHS Adam steps, each on the mean loss over all
    training egos at once; each pool is scored in one forward.
    """
    if seed is None:
        seed = config.seed
    hops = config.hops
    pools = {name: ([], []) for name in ("train", "center", "random", "boundary")}
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
        candidates = np.setdiff1d(np.arange(n), train_ids)
        rand_ids = rng.choice(candidates, size=min(len(heldout), len(candidates)), replace=False)
        picks = {"train": train_ids, "center": heldout, "random": rand_ids,
                 "boundary": boundary_sets[k].node_ids}
        for name, nodes in picks.items():
            subs, labels = pools[name]
            subs.extend(extract_egos(graph, nodes, hops, feats))
            labels.extend([k] * len(nodes))

    probe = init_model(aligned[0].d, config.hidden, len(graphs), seed=sub_seed(seed, "probe-init"))
    opt = Adam.from_config(
        {name: t for name, t in probe.params.items() if not name.startswith("disc.")},
        config.lr_pre,
        config,
    )
    train_subs, train_labels = pools.pop("train")
    train_union = graph_union(train_subs)
    for _ in range(PROBE_EPOCHS):
        loss, _ = probe_loss(train_union, train_labels, probe)
        opt.zero_grad()
        loss.backward()
        opt.step()

    accuracy, loss_out = {}, {}
    for name, (subs, labels) in pools.items():
        if not subs:
            accuracy[name] = loss_out[name] = float("nan")
            continue
        ce, probs = probe_loss(graph_union(subs), labels, probe)
        accuracy[name] = float(np.mean(np.argmax(probs.data, axis=1) == labels))
        loss_out[name] = ce.item()
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
        subs.extend(extract_egos(graph, picks, config.hops, feats))
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
