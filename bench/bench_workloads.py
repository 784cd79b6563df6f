"""The benchmark's workloads: inputs, one timed round, and output checks.

A round is one pass of the pipeline a user runs on the workload's inputs.
``run_round`` wraps the pre-training call and the few-shot episodes in
``stages(name)`` so the caller can time them (and, in the memory round,
take their tracemalloc peaks). Package functions are looked up on their
modules at call time, so the tracer's in-place wrappers see every call.
"""

from __future__ import annotations

import contextlib
import copy
import gc
import importlib
import io
import json
from pathlib import Path

import numpy as np

import domainmix.align as dm_align
import domainmix.cli as dm_cli
import domainmix.config as dm_config
import domainmix.io as dm_io
import domainmix.nn as dm_nn
import domainmix.pipeline as dm_pipeline
import domainmix.synth as dm_synth
from domainmix.seeding import sub_seed

import bench_checks as checks

# the package re-exports the function ``adapt`` under the module's own name
dm_adapt = importlib.import_module("domainmix.adapt")

# shared with the acceptance suite's ablation family
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
    shots=1,
    mode="node",
    rho=0.3,
    lr_pre=3e-3,
)


def _tasks(labels, config):
    """The episodes' support/query splits, drawn as episode_metrics draws them."""
    return [
        dm_adapt.sample_task(
            labels,
            config.shots,
            np.random.default_rng(sub_seed(config.seed, f"episode-{rep}")),
            mode=config.mode,
        )
        for rep in range(config.repeats)
    ]


class NodeWorkload:
    """Library pipeline: prepare + pretrain, then node-mode episodes."""

    def __init__(self, spec: dict, config: dict):
        self.spec = spec
        self.config = config

    def operations(self) -> int:
        """Operations per round: the pre-training call and each episode."""
        return 1 + self.config["repeats"]

    def run_config(self, seed):
        return dm_config.RunConfig(seed=seed, **self.config).validate()

    def setup(self, seed, workdir):
        sources, target, _ = dm_synth.make_synth(dm_synth.SynthSpec(**self.spec), seed)
        return {"seed": seed, "sources": sources, "target": target}

    def run_round(self, inputs, stages, index):
        # fresh graphs every round: the package caches propagation matrices
        # on graph instances, and a second round must not find them warm
        sources, target = copy.deepcopy((inputs["sources"], inputs["target"]))
        cfg = self.run_config(inputs["seed"])
        with stages("pretrain"):
            aligned, centers, bsets = dm_pipeline.prepare(sources, cfg)
            state, history = dm_nn.pretrain(sources, aligned, bsets, cfg)
        target_aligned = dm_align.pca_project(
            target.features_raw, cfg.pca_dim, domain_id=target.domain_id, scale=cfg.scale_features
        )
        before = checks.snapshot(state.data_dict())
        with stages("episodes"):
            metrics, alphas = dm_pipeline.episode_metrics(
                state, target, target_aligned, centers, cfg
            )
        return {
            "failed": 0,
            "accuracies": [m["accuracy"] for m in metrics],
            "state": state,
            "history": history,
            "centers": centers,
            "target_aligned": target_aligned,
            "alphas": alphas,
            "params_before": before,
        }

    def check(self, inputs, out):
        cfg = self.run_config(inputs["seed"])
        target = inputs["target"]
        params = out["state"].data_dict()
        initial = dm_nn.init_model(cfg.pca_dim, cfg.hidden, len(inputs["sources"]), seed=cfg.seed)
        failures = checks.check_pretrain(out["history"], params, initial.data_dict())
        failures += checks.check_frozen(out["params_before"], params)
        classes = dm_synth.SynthSpec(**self.spec).classes_per_domain
        failures += checks.check_accuracy(out["accuracies"], classes)
        failures += checks.check_node_episodes(
            checks.dense_a_hat(target.num_nodes, target.edge_array()),
            out["target_aligned"].matrix,
            np.stack([c.vector for c in out["centers"]]),
            params["encoder.w1"],
            params["encoder.w2"],
            _tasks(target.labels, cfg),
            out["alphas"],
            out["accuracies"],
        )
        return failures


def _flags(options: dict) -> list:
    out = []
    for key, value in options.items():
        out += ["--" + key.replace("_", "-"), str(value)]
    return out


def _cli(argv) -> int:
    """One in-process ``domainmix`` command; its stdout is dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        return dm_cli.cli([str(a) for a in argv])


class CliWorkload:
    """The ``domainmix`` command line, driven in-process: pretrain, eval
    and diagnose on files written by gen-synth."""

    def __init__(self, spec: dict, config: dict):
        self.spec = spec
        self.config = config

    def operations(self) -> int:
        """Operations per round: the three commands."""
        return 3

    def setup(self, seed, workdir):
        data = Path(workdir) / "data"
        spec = dict(self.spec)
        spec["domains"] = spec.pop("K")
        code = _cli(["gen-synth", "--out", data, "--seed", seed] + _flags(spec))
        if code != 0:
            raise RuntimeError(f"domainmix gen-synth exited with {code}")
        return {"seed": seed, "data": data, "workdir": Path(workdir)}

    def run_round(self, inputs, stages, index):
        data = inputs["data"]
        run = inputs["workdir"] / f"round-{index}"
        flags = _flags(dict(self.config, seed=inputs["seed"]))
        model = run / "model.mdgm"
        codes = {}
        # each command starts clean, as in its own process: the tape's
        # reference cycles would otherwise leave garbage for the next one
        gc.collect()
        with stages("pretrain"):
            codes["pretrain"] = _cli(["pretrain", "--data", data, "--out", run] + flags)
        gc.collect()
        with stages("episodes"):
            codes["eval"] = _cli(
                ["eval", "--data", data, "--model", model, "--out", run / "metrics.jsonl"] + flags
            )
        gc.collect()
        codes["diagnose"] = _cli(
            ["diagnose", "--data", data, "--model", model, "--out", run / "diagnostics.json"]
            + flags
        )
        accuracies = []
        if codes["eval"] == 0:
            with open(run / "metrics.jsonl", "r", encoding="utf-8") as fh:
                accuracies = [json.loads(line)["accuracy"] for line in fh if line.strip()]
        return {
            "failed": sum(1 for rc in codes.values() if rc != 0),
            "codes": codes,
            "run": run,
            "accuracies": accuracies,
        }

    def check(self, inputs, out):
        failures = checks.check_exit_codes(out["codes"])
        if failures:
            return failures
        run, data = out["run"], inputs["data"]
        cfg = dm_config.load_config(run / "config.json")
        sources, target, meta = dm_synth.load_synth_dir(data)
        with open(run / "history.jsonl", "r", encoding="utf-8") as fh:
            history = [json.loads(line) for line in fh if line.strip()]
        weights = dm_io.load_checkpoint(run / "model.mdgm")
        initial = dm_nn.init_model(cfg.pca_dim, cfg.hidden, len(sources), seed=cfg.seed)
        failures += checks.check_pretrain(history, weights, initial.data_dict())
        failures += checks.check_accuracy(out["accuracies"], meta["spec"]["classes_per_domain"])

        # the library on the checkpoint's f32 weights gives the CLI's numbers
        _, centers, _ = dm_pipeline.prepare(sources, cfg)
        state = dm_nn.init_model(cfg.pca_dim, cfg.hidden, len(sources), seed=cfg.seed)
        state.load_data(weights)
        target_aligned = dm_align.pca_project(
            target.features_raw, cfg.pca_dim, domain_id=target.domain_id, scale=cfg.scale_features
        )
        before = checks.snapshot(state.data_dict())
        metrics, _ = dm_pipeline.episode_metrics(state, target, target_aligned, centers, cfg)
        failures += checks.check_frozen(before, state.data_dict())
        failures += checks.check_parity(out["accuracies"], [m["accuracy"] for m in metrics])

        with open(run / "diagnostics.json", "r", encoding="utf-8") as fh:
            report = json.load(fh)
        failures += checks.check_diagnostics(
            report, self.lipschitz_reference(data, meta, weights, cfg)
        )
        return failures

    @staticmethod
    def lipschitz_reference(data, meta, weights, cfg, n_sample=20):
        """The bound over the egos compute_diagnostics samples, rebuilt
        from the edge files with the benchmark's own BFS and adjacency."""
        rng = np.random.default_rng(sub_seed(cfg.seed, "diagnostics-sample"))
        n = meta["spec"]["nodes_per_domain"]
        adjacencies = []
        for k in range(meta["num_source_domains"]):
            edges = checks.read_edges(Path(data) / f"edges_{k}.txt")
            for center in rng.choice(n, size=min(n_sample, n), replace=False):
                nodes, sub_edges = checks.ego(n, edges, int(center), cfg.hops)
                adjacencies.append(checks.dense_a_hat(len(nodes), sub_edges))
        return checks.lipschitz_reference(
            weights["encoder.w1"], weights["encoder.w2"], adjacencies
        )


WORKLOADS = {
    # one seed of the slowest acceptance test, with more episodes
    "node-1shot": NodeWorkload(
        _ABLATION_SPEC,
        dict(_ABLATION_CFG, repeats=40, pair_mode="boundary-top", intra_pool="boundary"),
    ),
    # four 1,500-node domains with 2-hop egos: pair selection and ego mixing
    # dominate; the SBM is thinned so egos stay near 100 nodes
    "pretrain-large": NodeWorkload(
        dict(
            K=4,
            nodes_per_domain=1500,
            feature_dim=32,
            intra_edge_prob=0.02,
            inter_block_prob=0.002,
        ),
        dict(
            pca_dim=32,
            hidden=64,
            hops=2,
            n_pairs=64,
            epochs_pre=15,
            gamma=0.3,
            rho=0.3,
            lr_pre=3e-3,
            steps_adapt=20,
            repeats=16,
            shots=1,
            mode="node",
            pair_mode="boundary-top",
        ),
    ),
    # the ablation arm through files, checkpoints and graph-mode episodes
    "graph-5shot-cli": CliWorkload(
        _ABLATION_SPEC,
        dict(
            _ABLATION_CFG,
            pair_mode="random",
            intra_pool="all",
            mode="graph",
            shots=5,
            steps_adapt=50,
            repeats=8,
        ),
    ),
}
