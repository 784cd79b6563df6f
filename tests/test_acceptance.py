"""Acceptance gate: one test per shipped guarantee, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the pass/fail lines
even when every test is green; each line carries the measured quantity the
verdict rests on.
"""

import json
import math
import time
from collections import defaultdict

import numpy as np
import pytest

from domainmix.adapt import (
    _embed_items,
    adapt,
    compute_prototypes,
    loss_downstream,
    mixed_prompt,
    sample_task,
)
from domainmix.align import (
    AlignedFeatures,
    align_graphs,
    domain_center,
    pca_project,
)
from domainmix.autodiff import Tensor, grl, parameter
from domainmix.boundary import select_boundaries
from domainmix.config import RunConfig
from domainmix.diagnostics import (
    ambiguity_probe,
    lipschitz_upper,
    overlap_ratio,
    sampling_term,
    sigma_dep,
    stability_check,
)
from domainmix.graphs import build_domain_graph, extract_ego
from domainmix.io import save_checkpoint
from domainmix.mixing import (
    build_batch,
    mix_subgraphs,
    sample_intra_pairs,
    select_pairs,
)
from domainmix.nn import (
    init_model,
    loss_dis,
    loss_fine,
    loss_pretrain,
    mean_pool,
    gcn_encode,
)
from domainmix.pipeline import redundancy_experiment, run_pipeline
from domainmix.synth import SynthSpec, make_synth


def _line(capsys, ok: bool, name: str, detail: str) -> bool:
    with capsys.disabled():
        print(f"[{'pass' if ok else 'FAIL'}] {name}: {detail}")
    return ok


# Shared data family for the two statistical claims below (ablation
# direction and drop robustness). Interior nodes carry attenuated class
# offsets so the transferable class evidence concentrates in the planted
# boundary rows; the target is a noisy midpoint domain.
_ABLATION_SPEC = dict(
    K=3,
    nodes_per_domain=300,
    classes_per_domain=3,
    boundary_cluster_fraction=0.3,
    interior_class_scale=0.3,
    target_domain_noise=2.0,
)
_ABLATION_CFG = dict(
    pca_dim=16,
    hidden=32,
    epochs_pre=80,
    n_pairs=20,
    gamma=0.3,
    steps_adapt=100,
    repeats=20,
    shots=1,
    mode="node",
    rho=0.3,
    lr_pre=3e-3,
)


# ------------------------------------------------------------------ 1


def _fd_batch(seed):
    spec = SynthSpec(K=2, nodes_per_domain=40, classes_per_domain=2, feature_dim=10)
    sources, _, _ = make_synth(spec, seed)
    aligned, centers = align_graphs(sources, 8)
    bsets = select_boundaries(aligned, centers, 0.4)
    pairs = select_pairs(bsets, aligned, 0.0, 3, rng_seed=seed)
    intra = sample_intra_pairs(
        [np.arange(g.num_nodes) for g in sources], 3, 2, rng_seed=seed
    )
    return build_batch(pairs, intra, sources, aligned, hops=1)


def _probe_tensor(fn, tensor, grad, rng, count=None):
    """Central differences on `count` random entries of one parameter."""
    flat = tensor.data.ravel()
    gflat = grad.ravel()
    idx = (
        np.arange(flat.size)
        if count is None
        else rng.choice(flat.size, size=count, replace=False)
    )
    worst = 0.0
    for i in idx:
        keep = flat[i]
        flat[i] = keep + 1e-4
        up = fn()
        flat[i] = keep - 1e-4
        dn = fn()
        flat[i] = keep
        fd = (up - dn) / 2e-4
        denom = max(abs(fd), abs(gflat[i]), 1e-8)
        worst = max(worst, abs(gflat[i] - fd) / denom)
    return worst, len(idx)


def test_loss_gradients_match_finite_differences(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    probes = 0

    # Pre-training loss. The reversal layer rescales the decomposer
    # path's downstream gradient, so the tape field is the plain
    # derivative of the scalar only at multiplier -1; that is the setting
    # a finite-difference probe can see. The rescaling itself is
    # certified exactly in the next test.
    for batch_seed, only_encoder in ((31, False), (32, True)):
        batch = _fd_batch(batch_seed)
        state = init_model(8, 8, 2, seed=batch_seed)
        # decisive inter logits keep every gate open and far from the
        # 0.5 threshold, so probes cannot flip the detached mask
        state.params["disc.b"].data[:] = (-4.0, 4.0)
        total, _ = loss_pretrain(batch, state, beta=-1.0)
        for p in state.params.values():
            p.zero_grad()
        total.backward()
        scalar = lambda: loss_pretrain(batch, state, beta=-1.0)[0].item()
        for name, p in state.params.items():
            if only_encoder and not name.startswith("encoder."):
                continue
            err, n = _probe_tensor(scalar, p, p.grad, rng)
            worst = max(worst, err)
            probes += n

    # Downstream loss as a function of the prompt weights alone.
    spec = SynthSpec(K=3, nodes_per_domain=50)
    sources, target, _ = make_synth(spec, 7)
    _, centers = align_graphs(sources, 8)
    t_al = pca_project(target.features_raw, 8, domain_id=target.domain_id)
    state3 = init_model(8, 8, 3, seed=1)
    task = sample_task(target.labels, 2, np.random.default_rng(3), mode="node")

    def ds_loss(vec):
        p_mix = mixed_prompt(np.asarray(vec, dtype=np.float64), centers)
        emb = _embed_items(state3, target, t_al.matrix, p_mix, task.support, "node", 2)
        protos = compute_prototypes(emb, task.support, task.num_classes)
        return loss_downstream(
            emb, [y for _, y in task.support], protos, 1.0
        )

    for point in (np.array([0.2, 0.5, 0.3]), np.array([1.0, -0.4, 0.7])):
        alpha = parameter(point.copy())
        p_mix = mixed_prompt(alpha, centers)
        emb = _embed_items(state3, target, t_al.matrix, p_mix, task.support, "node", 2)
        protos = compute_prototypes(emb, task.support, task.num_classes)
        loss = loss_downstream(emb, [y for _, y in task.support], protos, 1.0)
        loss.backward()
        err, n = _probe_tensor(
            lambda: ds_loss(alpha.data).item(), alpha, alpha.grad, rng
        )
        worst = max(worst, err)
        probes += n

    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and probes >= 200 and elapsed < 10.0
    assert _line(
        capsys,
        ok,
        "gradients match finite differences",
        f"max rel err {worst:.2e} over {probes} parameters in {elapsed:.1f}s",
    )


# ------------------------------------------------------------------ 2


def test_reversal_layer_scales_gradients_exactly(capsys):
    rng = np.random.default_rng(5)
    worst = 0.0
    # layer in isolation: upstream w must come back as -beta * w
    for shape in ((6,), (4, 5)):
        for beta in (0.0, 0.5, 1.0, 2.0):
            x = parameter(rng.normal(size=shape))
            w = rng.normal(size=shape)
            (grl(x, beta=beta) * Tensor(w)).sum().backward()
            worst = max(worst, float(np.abs(x.grad - (-beta) * w).max()))

    # inside the full pre-training loss: the encoder gradient beyond the
    # discriminator share must scale as -beta times the unreversed share
    batch = _fd_batch(33)

    def encoder_grads(beta):
        state = init_model(8, 8, 2, seed=33)
        state.params["disc.b"].data[:] = (-4.0, 4.0)
        total, _ = loss_pretrain(batch, state, beta=beta)
        for p in state.params.values():
            p.zero_grad()
        total.backward()
        return {
            k: p.grad.copy()
            for k, p in state.params.items()
            if k.startswith("encoder.")
        }

    g_zero = encoder_grads(0.0)  # decomposer path contributes nothing
    g_plain = encoder_grads(-1.0)  # decomposer path unreversed
    for beta in (0.5, 1.0):
        g_beta = encoder_grads(beta)
        for k in g_zero:
            got = g_beta[k] - g_zero[k]
            want = -beta * (g_plain[k] - g_zero[k])
            worst = max(worst, float(np.abs(got - want).max()))

    ok = worst <= 1e-12
    assert _line(
        capsys,
        ok,
        "gradient reversal is exact",
        f"max entrywise deviation {worst:.2e}",
    )


# ------------------------------------------------------------------ 3


def _dyadic(rng, shape, span=16, step=8):
    return rng.integers(-span * step, span * step + 1, size=shape) / step


def _brute_force_boundaries(mats, vecs, rho):
    """Plain-python re-derivation of the boundary sets."""
    out = []
    for k in range(len(mats)):
        x = mats[k]
        n = len(x)
        cand = []
        for m in range(len(mats)):
            if m == k:
                continue
            margins = []
            for i in range(n):
                sk = sum((x[i][t] - vecs[k][t]) ** 2 for t in range(len(vecs[k])))
                sm = sum((x[i][t] - vecs[m][t]) ** 2 for t in range(len(vecs[m])))
                margins.append(abs(math.sqrt(sk) - math.sqrt(sm)))
            lo, hi = min(margins), max(margins)
            if hi == lo:
                conf = [1.0] * n
            else:
                conf = [1.0 - (mg - lo) / (hi - lo) for mg in margins]
            count = math.ceil(rho * n)
            order = sorted(range(n), key=lambda i: (-conf[i], i))
            cand.append(set(order[:count]))
        inter = set.intersection(*cand)
        fallback = not inter
        chosen = set.union(*cand) if fallback else inter
        out.append((sorted(chosen), fallback))
    return out


def test_boundary_selection_matches_brute_force(capsys):
    rng = np.random.default_rng(101)
    mismatches = 0
    fallbacks = 0
    for trial in range(20):
        if trial == 19:
            # crafted instance whose candidate sets are disjoint, so the
            # union fallback has to fire
            mats = [
                np.array([[0.0, 4.0], [0.0, -4.0]]),
                np.array([[8.0, 8.0], [8.0, 6.0]]),
                np.array([[8.0, -8.0], [8.0, -6.0]]),
            ]
            vecs = [m.mean(axis=0) for m in mats]
            rho = 0.4
        else:
            n_domains = int(rng.integers(2, 5))
            d = int(rng.integers(2, 8))
            sizes = [int(rng.integers(3, 201)) for _ in range(n_domains)]
            mats = [_dyadic(rng, (n, d)) for n in sizes]
            vecs = [_dyadic(rng, d) for _ in range(n_domains)]
            rho = float(rng.uniform(0.1, 0.9))
        aligned = [
            AlignedFeatures(i, np.asarray(m, dtype=np.float64), len(vecs[0]))
            for i, m in enumerate(mats)
        ]
        centers = [
            domain_center(AlignedFeatures(i, v.reshape(1, -1), len(v)))
            for i, v in enumerate(np.asarray(vc, dtype=np.float64) for vc in vecs)
        ]
        got = select_boundaries(aligned, centers, rho)
        want = _brute_force_boundaries(
            [np.asarray(m).tolist() for m in mats],
            [np.asarray(v).tolist() for v in vecs],
            rho,
        )
        for k in range(len(mats)):
            if (
                list(got[k].node_ids) != want[k][0]
                or got[k].used_fallback != want[k][1]
            ):
                mismatches += 1
            fallbacks += int(got[k].used_fallback)
    ok = mismatches == 0 and fallbacks >= 1
    assert _line(
        capsys,
        ok,
        "boundary selection equals brute force",
        f"{mismatches} mismatching domains over 20 instances, "
        f"{fallbacks} fallback sets",
    )


# ------------------------------------------------------------------ 4


def _bfs_ego(graph, center, hops):
    adj = defaultdict(set)
    pairs = [(int(u), int(v)) for u, v in graph.edge_array()]
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    seen = {center}
    frontier = {center}
    for _ in range(hops):
        frontier = {w for u in frontier for w in adj[u]} - seen
        seen |= frontier
    edges = {
        (min(u, v), max(u, v)) for u, v in pairs if u in seen and v in seen
    }
    return seen, edges


def test_ego_extraction_matches_bfs_oracle(capsys):
    rng = np.random.default_rng(41)
    graphs = []
    for _ in range(5):
        n = int(rng.integers(60, 151))
        p = float(rng.uniform(0.01, 0.06))
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        graphs.append(build_domain_graph(edges, rng.normal(size=(n, 4))))
    mismatches = 0
    for trial in range(100):
        g = graphs[trial % len(graphs)]
        center = int(rng.integers(g.num_nodes))
        hops = int(rng.integers(1, 4))
        ego = extract_ego(g, center, hops)
        got_nodes = set(int(i) for i in ego.nodes_global)
        got_edges = {
            tuple(
                sorted(
                    (int(ego.nodes_global[u]), int(ego.nodes_global[v]))
                )
            )
            for u, v in ego.edges
        }
        want_nodes, want_edges = _bfs_ego(g, center, hops)
        if got_nodes != want_nodes or got_edges != want_edges:
            mismatches += 1
    ok = mismatches == 0
    assert _line(
        capsys,
        ok,
        "ego extraction equals BFS oracle",
        f"{mismatches} mismatches over 100 (graph, center, hop) triples",
    )


# ------------------------------------------------------------------ 5


def test_mixing_invariants_hold_on_random_pairs(capsys):
    rng = np.random.default_rng(11)
    spec = SynthSpec(K=3, nodes_per_domain=80)
    sources, _, _ = make_synth(spec, 11)
    aligned, _ = align_graphs(sources, 10)
    mats = [a.matrix for a in aligned]

    problems = []
    checked = 0
    for trial in range(30):
        ka = int(rng.integers(3))
        kb = int(rng.integers(3)) if trial % 3 == 0 else (ka + 1) % 3
        sub_a = extract_ego(
            sources[ka], int(rng.integers(sources[ka].num_nodes)), 1, mats[ka]
        )
        sub_b = extract_ego(
            sources[kb], int(rng.integers(sources[kb].num_nodes)), 1, mats[kb]
        )
        lam = float(rng.uniform(0.0, 1.0))
        topo = set()
        for l in (0.0, 0.3, 0.5, 1.0, lam):
            mixed = mix_subgraphs(sub_a, sub_b, l, num_domains=3)
            checked += 1
            label = mixed.mix_label
            if abs(label.sum() - 1.0) > 1e-9 or label.min() < 0:
                problems.append(f"trial {trial}: label off simplex at {l}")
            if ka != kb and (label[ka] != l or label[kb] != 1.0 - l):
                problems.append(f"trial {trial}: inter label not exact at {l}")
            topo.add(
                (tuple(mixed.node_origins), tuple(map(tuple, mixed.edges)))
            )
        if len(topo) != 1:
            problems.append(f"trial {trial}: topology varies with lambda")

        ab = mix_subgraphs(sub_a, sub_b, 0.5, num_domains=3)
        ba = mix_subgraphs(sub_b, sub_a, 0.5, num_domains=3)
        where_ba = {origin: i for i, origin in enumerate(ba.node_origins)}
        try:
            perm = [where_ba[(gb, ga)] for ga, gb in ab.node_origins]
        except KeyError:
            problems.append(f"trial {trial}: origin sets differ under swap")
            continue
        mapped = {
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in ab.edges
        }
        if (
            sorted(perm) != list(range(ab.num_nodes))
            or mapped != ba.edge_set()
            or not np.allclose(
                ab.features, ba.features[perm], rtol=0, atol=1e-12
            )
            or not np.allclose(ab.mix_label, ba.mix_label, rtol=0, atol=0)
        ):
            problems.append(f"trial {trial}: swap at 0.5 not isomorphic")

    ok = not problems
    assert _line(
        capsys,
        ok,
        "mixing invariants",
        f"{checked} mixed subgraphs, "
        + (f"violations: {problems[:3]}" if problems else "0 violations"),
    )


# ------------------------------------------------------------------ 6


def test_closed_form_loss_values(capsys):
    uniform = [Tensor(np.array([0.5, 0.5])) for _ in range(4)]
    v_dis = loss_dis(uniform, [1, 0, 1, 0]).item()

    y = np.array([0.3, 0.7])
    v_zero = loss_fine([Tensor(y.copy())], [y], [1]).item()

    v_kl = loss_fine(
        [Tensor(np.full(3, 1.0 / 3.0))], [np.array([0.5, 0.5, 0.0])], [1]
    ).item()

    ok = (
        abs(v_dis - math.log(2.0)) < 1e-6
        and abs(v_zero) < 1e-6
        and abs(v_kl - math.log(1.5)) < 1e-6
    )
    assert _line(
        capsys,
        ok,
        "closed-form loss values",
        f"uniform {v_dis:.6f} vs ln2, matched {v_zero:.1e} vs 0, "
        f"half-half {v_kl:.6f} vs ln1.5=0.405465",
    )


# ------------------------------------------------------------------ 7


def test_dependence_and_overlap_formulas(capsys):
    errs = [
        max(abs(sigma_dep(1, d) - 0.5) for d in (0.0, 0.1, 3.0)),
        abs(sigma_dep(5, 0.25) - math.sqrt(1.25)),
        abs(
            sampling_term(20, 0.0, 0.05)
            - 0.5 * math.sqrt(math.log(40.0) / 40.0)
        ),
    ]
    exact = overlap_ratio({1, 2, 3, 4}, {3, 4, 5}) == 2 / 3
    ok = max(errs) < 1e-12 and exact
    assert _line(
        capsys,
        ok,
        "closed-form bound terms",
        f"max abs err {max(errs):.2e}, overlap 2/3 exact: {exact}",
    )


# ------------------------------------------------------------------ 8


class _Sub:
    def __init__(self, num_nodes, edges, features):
        self.num_nodes = num_nodes
        self.edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self.features = features


def _unit_scaled(aligned):
    scale = max(np.linalg.norm(a.matrix, axis=1).max() for a in aligned)
    return [a.matrix / scale for a in aligned]


def test_lipschitz_bound_covers_single_node_edits(capsys):
    rng = np.random.default_rng(17)
    sources, _, _ = make_synth(SynthSpec(K=3, nodes_per_domain=60), 4)
    aligned, _ = align_graphs(sources, 6)
    mats = _unit_scaled(aligned)
    state = init_model(6, 8, 3, seed=2)

    def embed(sub):
        return mean_pool(gcn_encode(sub, state)).data

    pairs = []
    for _ in range(100):
        k = int(rng.integers(3))
        g = sources[k]
        ego = extract_ego(g, int(rng.integers(g.num_nodes)), 1, mats[k])
        n = len(ego.nodes_global)
        before = _Sub(n, ego.edges, np.asarray(ego.features))
        extra = rng.normal(size=6)
        extra /= max(1.0, float(np.linalg.norm(extra)))
        attach = int(rng.integers(n))
        after = _Sub(
            n + 1,
            np.vstack([before.edges, [[attach, n]]]),
            np.vstack([before.features, extra]),
        )
        pairs.append((before, after))

    everything = [s for pair in pairs for s in pair]
    bound = lipschitz_upper(state, everything)
    violations = 0
    worst = 0.0
    for before, after in pairs:
        # one node plus one incident edge added
        per_edit = float(np.linalg.norm(embed(after) - embed(before))) / 2.0
        worst = max(worst, per_edit)
        if per_edit > bound + 1e-12:
            violations += 1
    ok = violations == 0
    assert _line(
        capsys,
        ok,
        "edit sensitivity within certified bound",
        f"{violations} violations over 100 edits "
        f"(max per-edit {worst:.4f} vs bound {bound:.4f})",
    )


# ------------------------------------------------------------------ 9


def test_mixing_stability_bound_sweep(capsys):
    rng = np.random.default_rng(9)
    sources, _, _ = make_synth(SynthSpec(K=3, nodes_per_domain=60), 2)
    aligned, _ = align_graphs(sources, 6)
    mats = _unit_scaled(aligned)
    state = init_model(6, 8, 3, seed=3)
    pairs = []
    for _ in range(100):
        ka = int(rng.integers(3))
        kb = (ka + 1 + int(rng.integers(2))) % 3
        pairs.append(
            (
                extract_ego(
                    sources[ka], int(rng.integers(sources[ka].num_nodes)), 1, mats[ka]
                ),
                extract_ego(
                    sources[kb], int(rng.integers(sources[kb].num_nodes)), 1, mats[kb]
                ),
                float(rng.choice([0.0, 0.3, 0.5, 1.0])),
            )
        )
    res = stability_check(state, pairs)
    ok = res.violations == 0 and res.num_pairs == 100
    assert _line(
        capsys,
        ok,
        "mixing stability bound",
        f"{res.violations} violations over {res.num_pairs} pairs "
        f"(min margin {res.margins.min():.3f}, L_f {res.lipschitz_bound:.3f})",
    )


# ------------------------------------------------------------------ 10


def test_boundary_mixing_beats_random_pair_mixing(capsys):
    t0 = time.perf_counter()
    gaps = []
    for seed in range(20):
        sources, target, _ = make_synth(SynthSpec(**_ABLATION_SPEC), seed=seed)
        base = dict(_ABLATION_CFG, seed=seed)
        full = RunConfig(**base, pair_mode="boundary-top", intra_pool="boundary")
        rand = RunConfig(**base, pair_mode="random", intra_pool="all")
        a_full = run_pipeline(sources, target, full).mean_accuracy
        a_rand = run_pipeline(sources, target, rand).mean_accuracy
        gaps.append(100.0 * (a_full - a_rand))
    med = float(np.median(gaps))
    elapsed = time.perf_counter() - t0
    ok = med >= 2.0 and elapsed < 300.0
    assert _line(
        capsys,
        ok,
        "boundary mixing beats random pairs",
        f"median gap {med:+.2f} points over 20 seeds "
        f"(need >= +2.00) in {elapsed:.0f}s",
    )


# ------------------------------------------------------------------ 11


def test_accuracy_survives_heavy_node_drop(capsys):
    # After a 90% drop each domain keeps ~30 nodes, so the re-run PCA axes
    # wander and a similarity threshold can empty the boundary-pair pool on
    # unlucky seeds; gamma 0 keeps selection boundary-aware (best pairs
    # first) while staying well-posed at every drop level.
    cfg = RunConfig(
        **dict(
            _ABLATION_CFG,
            epochs_pre=40,
            n_pairs=8,
            gamma=0.0,
            repeats=10,
            intra_pool="all",
        )
    )
    diffs = []
    for seed in range(20):
        sources, target, _ = make_synth(SynthSpec(**_ABLATION_SPEC), seed=seed)
        rows = redundancy_experiment(sources, target, cfg, [0.0, 0.9], [seed])
        acc = {frac: mean for frac, mean, _ in rows}
        diffs.append(100.0 * (acc[0.9] - acc[0.0]))
    med = float(np.median(diffs))
    ok = abs(med) <= 5.0
    assert _line(
        capsys,
        ok,
        "accuracy survives 90% node drop",
        f"median shift {med:+.2f} points over 20 seeds (need within 5)",
    )


# ------------------------------------------------------------------ 12


def test_domain_probe_finds_boundaries_ambiguous(capsys):
    acc_c, acc_b, loss_c, loss_b = [], [], [], []
    for seed in range(20):
        spec = SynthSpec(nodes_per_domain=90)
        sources, _, _ = make_synth(spec, seed)
        raw = [
            AlignedFeatures(g.domain_id, g.features_raw, spec.feature_dim)
            for g in sources
        ]
        centers = [domain_center(a) for a in raw]
        aligned, cpca = align_graphs(sources, spec.feature_dim)
        bsets = select_boundaries(aligned, cpca, 0.3)
        cfg = RunConfig(seed=seed, pca_dim=16, hidden=32)
        rep = ambiguity_probe(sources, raw, centers, bsets, cfg)
        acc_c.append(rep.accuracy["center"])
        acc_b.append(rep.accuracy["boundary"])
        loss_c.append(rep.loss["center"])
        loss_b.append(rep.loss["boundary"])
    m_ac, m_ab = float(np.median(acc_c)), float(np.median(acc_b))
    m_lc, m_lb = float(np.median(loss_c)), float(np.median(loss_b))
    ok = m_ab < m_ac and m_lb > m_lc
    assert _line(
        capsys,
        ok,
        "boundary nodes are domain-ambiguous",
        f"median probe accuracy {m_ab:.3f} < {m_ac:.3f} and "
        f"loss {m_lb:.3f} > {m_lc:.3f} over 20 seeds",
    )


# ------------------------------------------------------------------ 13


def test_adaptation_freezes_encoder_and_trains_k_weights(capsys, tmp_path):
    spec = SynthSpec(K=3, nodes_per_domain=60, classes_per_domain=3, feature_dim=12)
    sources, target, _ = make_synth(spec, 5)
    cfg = RunConfig(
        seed=5, pca_dim=8, hidden=16, epochs_pre=4, n_pairs=4, gamma=0.3,
        steps_adapt=30, repeats=1,
    )
    result = run_pipeline(sources, target, cfg)

    before = tmp_path / "before.mdgm"
    after = tmp_path / "after.mdgm"
    save_checkpoint(before, result.state.data_dict())
    task = sample_task(
        target.labels, 1, np.random.default_rng(12), mode="node"
    )
    alpha, _ = adapt(
        result.state, target, result.target_aligned, result.centers, task, cfg
    )
    save_checkpoint(after, result.state.data_dict())

    identical = before.read_bytes() == after.read_bytes()
    ok = identical and alpha.shape == (3,)
    assert _line(
        capsys,
        ok,
        "adaptation trains K weights over a frozen encoder",
        f"checkpoint bytes identical: {identical}, "
        f"trainable parameters: {alpha.size} (K=3)",
    )


# ------------------------------------------------------------------ 14


def test_pipeline_metrics_are_byte_stable(capsys):
    spec = SynthSpec(K=3, nodes_per_domain=60, classes_per_domain=3, feature_dim=12)
    cfg = RunConfig(
        seed=9, pca_dim=8, hidden=16, epochs_pre=4, n_pairs=4, gamma=0.3,
        steps_adapt=20, repeats=3,
    )

    def run_bytes():
        sources, target, _ = make_synth(spec, 9)
        result = run_pipeline(sources, target, cfg)
        return json.dumps(result.metrics, sort_keys=True).encode()

    first, second = run_bytes(), run_bytes()
    ok = first == second
    assert _line(
        capsys,
        ok,
        "pipeline metrics byte-stable",
        f"two runs produced {'identical' if ok else 'different'} "
        f"{len(first)}-byte metric payloads",
    )
