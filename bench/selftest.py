"""The benchmark's output checks pass on real outputs and fail on
perturbed ones. Run: PYTHONPATH=src python -m pytest -q bench/selftest.py

The file name keeps these tests out of a plain ``pytest`` run from the
repository root, so the repository's own suite is left as it is."""

import contextlib
import copy
import json

import numpy as np
import pytest

import bench_checks as checks
from bench_workloads import CliWorkload, NodeWorkload
from domainmix.io import load_checkpoint, save_checkpoint

_SPEC = dict(K=3, nodes_per_domain=60, classes_per_domain=3, feature_dim=12)
_CFG = dict(pca_dim=8, hidden=16, epochs_pre=4, n_pairs=4, gamma=0.3, lr_pre=3e-3)


def _stages(name):
    return contextlib.nullcontext()


@pytest.fixture(scope="module")
def node_run():
    workload = NodeWorkload(_SPEC, dict(_CFG, steps_adapt=10, repeats=3, mode="node"))
    inputs = workload.setup(9, None)
    return workload, inputs, workload.run_round(inputs, _stages, 0)


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    workload = CliWorkload(
        _SPEC, dict(_CFG, steps_adapt=5, repeats=2, mode="graph", shots=2, pair_mode="random")
    )
    inputs = workload.setup(9, tmp_path_factory.mktemp("cli"))
    return workload, inputs, workload.run_round(inputs, _stages, 0)


def _failures(run, edit):
    workload, inputs, out = run
    out = copy.deepcopy(out)
    edit(out)
    return workload.check(inputs, out)


def test_node_outputs_pass(node_run):
    workload, inputs, out = node_run
    assert workload.check(inputs, out) == []


def test_flipped_query_fails(node_run):
    queries = len(node_run[1]["target"].labels) - 3  # 1-shot, 3 classes

    def flip(out):
        acc = out["accuracies"][0]
        out["accuracies"][0] = acc - 1.0 / queries if acc > 0.5 else acc + 1.0 / queries

    assert any("episode 0" in f and "reference" in f for f in _failures(node_run, flip))


def test_changed_alpha_fails(node_run):
    def shift(out):
        out["alphas"][1] = out["alphas"][1] + np.array([1.0, -1.0, 0.0])

    assert any("episode 1" in f and "reference" in f for f in _failures(node_run, shift))


def test_moved_encoder_fails(node_run):
    def nudge(out):
        w = out["params_before"]["encoder.w1"]
        w[0, 0] = np.nextafter(w[0, 0], np.inf)

    assert _failures(node_run, nudge) == ["parameter encoder.w1 changed during the episodes"]


@pytest.mark.parametrize(
    "key, value, needle",
    [("loss_dis", -0.1, "loss_dis"), ("loss_fine", float("nan"), "loss_fine"),
     ("loss_fine", -1e-6, "KL"), ("gate_fraction", 1.5, "gate_fraction")],
)
def test_bad_history_fails(node_run, key, value, needle):
    def corrupt(out):
        out["history"][-1][key] = value

    assert any(needle in f for f in _failures(node_run, corrupt))


def test_untrained_parameters_fail():
    initial = {"w": np.zeros(2)}
    row = {"epoch": 0, "loss_dis": 0.5, "loss_fine": 0.0, "loss_total": 0.5, "gate_fraction": 0.0}
    assert checks.check_pretrain([row], dict(initial), initial) == [
        "trained parameters equal their initial values"
    ]


def test_accuracy_bounds():
    assert checks.check_accuracy([0.5, 0.7], 3) == []
    assert checks.check_accuracy([1.2, 0.7], 3)
    assert checks.check_accuracy([0.3, 0.3], 3)


def test_cli_outputs_pass(cli_run):
    workload, inputs, out = cli_run
    assert out["codes"] == {"pretrain": 0, "eval": 0, "diagnose": 0}
    assert workload.check(inputs, out) == []


def test_cli_flipped_episode_fails(cli_run):
    def flip(out):
        out["accuracies"][0] += 0.01

    assert any("CLI accuracies" in f for f in _failures(cli_run, flip))


def test_cli_exit_code_fails(cli_run):
    def fail(out):
        out["codes"]["diagnose"] = 2

    assert _failures(cli_run, fail) == ["`domainmix diagnose` exited with 2"]


def test_scaled_w2_fails_lipschitz(cli_run, tmp_path):
    workload, inputs, out = cli_run
    run = tmp_path / "run"
    run.mkdir()
    for name in ("config.json", "history.jsonl", "metrics.jsonl", "diagnostics.json"):
        (run / name).write_bytes((out["run"] / name).read_bytes())
    weights = load_checkpoint(out["run"] / "model.mdgm")
    weights["encoder.w2"] = weights["encoder.w2"] * 1.01
    save_checkpoint(run / "model.mdgm", weights)
    failures = workload.check(inputs, dict(out, run=run))
    assert any("lipschitz_bound" in f for f in failures)


def test_stability_violation_fails(cli_run):
    report = json.loads((cli_run[2]["run"] / "diagnostics.json").read_text())
    report["stability_violations"] = 1
    failures = checks.check_diagnostics(report, report["lipschitz_bound"])
    assert failures == ["1 mixing-stability violations"]
