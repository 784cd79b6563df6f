"""End-to-end orchestration: align, select, pre-train, adapt, evaluate.

Every stage draws its randomness from a sub-seed of the single run seed,
so stages are reproducible in isolation and whole runs are byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adapt import adapt_episodes, sample_task
from .align import align_graphs, pca_project
from .boundary import select_boundaries
from .errors import ValidationError
from .graphs import drop_nodes
from .nn import pretrain
from .seeding import sub_seed


@dataclass
class PipelineResult:
    state: object
    aligned: list
    centers: list
    boundary_sets: list
    history: list
    target_aligned: object
    metrics: list  # one dict per episode
    alphas: list  # learned prompt weights per episode

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean([m["accuracy"] for m in self.metrics]))


def prepare(sources, config):
    """Alignment and boundary selection for the source graphs."""
    aligned, centers = align_graphs(
        sources, config.pca_dim, scale=config.scale_features
    )
    boundary_sets = select_boundaries(aligned, centers, config.rho)
    return aligned, centers, boundary_sets


def project_target(target, config):
    """The target's features projected by its own PCA at the run's width."""
    return pca_project(
        target.features_raw,
        config.pca_dim,
        domain_id=target.domain_id,
        scale=config.scale_features,
    )


def episode_metrics(state, target, target_aligned, centers, config):
    """Run config.repeats few-shot episodes; one metrics row per episode."""
    if target.labels is None:
        raise ValidationError("target graph has no labels to evaluate against")
    tasks = [
        sample_task(
            target.labels,
            config.shots,
            np.random.default_rng(sub_seed(config.seed, f"episode-{rep}")),
            mode=config.mode,
        )
        for rep in range(config.repeats)
    ]
    alphas, _, accuracies = adapt_episodes(
        state, target, target_aligned, centers, tasks, config
    )
    metrics = [
        {
            "target": int(target.domain_id),
            "shots": int(config.shots),
            "mode": config.mode,
            "seed": int(config.seed),
            "accuracy": acc,
        }
        for acc in accuracies
    ]
    return metrics, list(alphas)


def run_pipeline(sources, target, config) -> PipelineResult:
    """Full route: align -> boundaries -> pre-train -> adapt -> eval."""
    if len(sources) < 2:
        raise ValidationError(f"need at least 2 source graphs, got {len(sources)}")
    aligned, centers, boundary_sets = prepare(sources, config)
    state, history = pretrain(sources, aligned, boundary_sets, config)
    target_aligned = project_target(target, config)
    metrics, alphas = episode_metrics(
        state, target, target_aligned, centers, config
    )
    return PipelineResult(
        state=state,
        aligned=aligned,
        centers=centers,
        boundary_sets=boundary_sets,
        history=history,
        target_aligned=target_aligned,
        metrics=metrics,
        alphas=alphas,
    )


def redundancy_experiment(sources, target, config, drop_fractions, seeds):
    """Accuracy-vs-node-drop curve.

    For each fraction, every source graph loses that share of its nodes
    (chosen uniformly, re-drawn per seed) before the whole pipeline runs.
    Rows are (fraction, mean accuracy, std accuracy) over the seeds.
    """
    fractions = list(drop_fractions)
    if not fractions:
        raise ValidationError("no drop fractions given")
    for frac in fractions:
        if not 0.0 <= frac < 1.0:
            raise ValidationError(f"drop fraction must be in [0, 1), got {frac}")
    seeds = list(seeds)
    if not seeds:
        raise ValidationError("no seeds given")
    rows = []
    for frac in fractions:
        accs = []
        for seed in seeds:
            cfg = config.replace(seed=int(seed))
            reduced = []
            for g in sources:
                rng = np.random.default_rng(
                    sub_seed(cfg.seed, f"drop-{g.domain_id}-{frac}")
                )
                try:
                    smaller, _ = drop_nodes(g, frac, rng)
                except ValidationError as exc:
                    raise ValidationError(
                        f"drop fraction {frac} empties domain {g.domain_id}"
                    ) from exc
                reduced.append(smaller)
            result = run_pipeline(reduced, target, cfg)
            accs.append(result.mean_accuracy)
        rows.append((float(frac), float(np.mean(accs)), float(np.std(accs))))
    return rows
