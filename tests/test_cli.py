"""End-to-end command-line checks: artifacts, exit codes, determinism."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import domainmix.nn
from domainmix.cli import cli
from domainmix.config import RunConfig, load_config
from domainmix.io import read_matrix
from domainmix.pipeline import prepare
from domainmix.synth import load_synth_dir

GEN = [
    "gen-synth",
    "--domains", "3",
    "--nodes-per-domain", "60",
    "--classes-per-domain", "3",
    "--feature-dim", "12",
    "--seed", "5",
]
CFG = [
    "--pca-dim", "8",
    "--hidden", "16",
    "--epochs-pre", "4",
    "--n-pairs", "4",
    "--gamma", "0.3",
    "--steps-adapt", "15",
    "--repeats", "3",
    "--seed", "5",
]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    art = root / "art"
    code, _, err = run(GEN + ["--out", str(data)])
    assert code == 0, err
    code, _, err = run(
        ["pretrain", "--data", str(data), "--out", str(art)] + CFG
    )
    assert code == 0, err
    return root


def test_gen_synth_writes_expected_files(workspace):
    data = workspace / "data"
    for k in range(4):  # 3 sources + target
        assert (data / f"edges_{k}.txt").exists()
        assert (data / f"features_{k}.mdgf").exists()
        assert (data / f"labels_{k}.txt").exists()
    meta = json.loads((data / "meta.json").read_text())
    assert meta["num_source_domains"] == 3
    assert meta["target_domain"] == 3


def test_gen_synth_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(GEN + ["--out", str(a)])[0] == 0
    assert run(GEN + ["--out", str(b)])[0] == 0
    for path in sorted(a.iterdir()):
        assert path.read_bytes() == (b / path.name).read_bytes(), path.name


def test_align_writes_matrices(workspace, tmp_path):
    out = tmp_path / "aligned"
    code, _, err = run(
        ["align", "--data", str(workspace / "data"), "--out", str(out)] + CFG
    )
    assert code == 0, err
    for k in range(3):
        mat = read_matrix(out / f"aligned_{k}.mdgf")
        assert mat.shape == (60, 8)
    centers = read_matrix(out / "centers.mdgf")
    assert centers.shape == (3, 8)


@pytest.fixture(scope="module")
def boundaries_ran(workspace):
    code, _, err = run(
        [
            "boundaries",
            "--data", str(workspace / "data"),
            "--out", str(workspace / "art"),
        ]
        + CFG
    )
    assert code == 0, err
    return workspace


# boundaries.json is written by the boundaries stage, not pretrain
def test_boundaries_artifact(boundaries_ran):
    payload = json.loads((boundaries_ran / "art" / "boundaries.json").read_text())
    assert sorted(payload) == ["0", "1", "2"]
    for entry in payload.values():
        assert len(entry["node_ids"]) >= 1
        assert len(entry["node_ids"]) == len(entry["confidences"])
        assert isinstance(entry["used_fallback"], bool)


def test_mix_rows_are_simplex(workspace, tmp_path):
    out = tmp_path / "mix"
    code, _, err = run(
        ["mix", "--data", str(workspace / "data"), "--out", str(out)] + CFG
    )
    assert code == 0, err
    rows = [
        json.loads(line)
        for line in (out / "mixed.jsonl").read_text().splitlines()
    ]
    assert len(rows) == 8  # n_pairs inter + n_pairs intra
    for row in rows:
        assert abs(sum(row["mix_label"]) - 1.0) < 1e-9
        assert row["kind"] in ("inter", "intra")
        assert row["num_nodes"] >= 1


def test_mix_writes_the_epoch_0_pretraining_batch(workspace, tmp_path, monkeypatch):
    data, out = workspace / "data", tmp_path / "mix"
    code, _, err = run(
        ["mix", "--data", str(data), "--out", str(out), "--lambda-mode", "beta"] + CFG
    )
    assert code == 0, err
    keys = ("domain_a", "center_a", "domain_b", "center_b", "lambda")
    rows = [
        tuple(json.loads(line)[k] for k in keys)
        for line in (out / "mixed.jsonl").read_text().splitlines()
    ]

    batches = []
    loss_pretrain = domainmix.nn.loss_pretrain

    def capture(batch, state, beta=1.0):
        batches.append(batch)
        return loss_pretrain(batch, state, beta=beta)

    monkeypatch.setattr(domainmix.nn, "loss_pretrain", capture)
    cfg = RunConfig(
        pca_dim=8, hidden=16, epochs_pre=1, n_pairs=4, gamma=0.3, seed=5,
        lambda_mode="beta",
    ).validate()
    sources, _, _ = load_synth_dir(data)
    aligned, _, boundary_sets = prepare(sources, cfg)
    domainmix.nn.pretrain(sources, aligned, boundary_sets, cfg)
    want = [sub.provenance for sub in batches[0].subgraphs]
    assert rows == want
    assert len({lam for *_, lam in want}) > 1  # beta draws, not the fixed 0.5


def test_pretrain_artifacts(workspace):
    art = workspace / "art"
    assert (art / "model.mdgm").exists()
    history = [
        json.loads(line)
        for line in (art / "history.jsonl").read_text().splitlines()
    ]
    assert len(history) == 4
    for row in history:
        assert {"epoch", "loss_dis", "loss_fine", "gate_fraction"} <= set(row)


def test_pretrain_config_round_trip(workspace):
    cfg = load_config(workspace / "art" / "config.json")
    assert cfg == RunConfig(
        seed=5,
        pca_dim=8,
        hidden=16,
        epochs_pre=4,
        n_pairs=4,
        gamma=0.3,
        steps_adapt=15,
        repeats=3,
    )


def test_eval_emits_json_lines(workspace, tmp_path):
    out = tmp_path / "metrics.jsonl"
    code, stdout, err = run(
        [
            "eval",
            "--data", str(workspace / "data"),
            "--model", str(workspace / "art" / "model.mdgm"),
            "--out", str(out),
        ]
        + CFG
    )
    assert code == 0, err
    lines = stdout.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        row = json.loads(line)
        assert set(row) == {"target", "shots", "mode", "seed", "accuracy"}
        assert row["target"] == 3
        assert row["shots"] == 1
        assert row["mode"] == "node"
        assert row["seed"] == 5
        assert 0.0 <= row["accuracy"] <= 1.0
    assert out.read_text() == "\n".join(lines) + "\n"


def test_eval_byte_deterministic(workspace, tmp_path):
    outs = []
    for name in ("m1.jsonl", "m2.jsonl"):
        path = tmp_path / name
        code, _, err = run(
            [
                "eval",
                "--data", str(workspace / "data"),
                "--model", str(workspace / "art" / "model.mdgm"),
                "--out", str(path),
            ]
            + CFG
        )
        assert code == 0, err
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_adapt_reports_alpha(workspace, tmp_path):
    out = tmp_path / "adapt.json"
    code, stdout, err = run(
        [
            "adapt",
            "--data", str(workspace / "data"),
            "--model", str(workspace / "art" / "model.mdgm"),
            "--out", str(out),
        ]
        + CFG
    )
    assert code == 0, err
    payload = json.loads(out.read_text())
    assert len(payload["alpha"]) == 3
    assert {"loss_first", "loss_last", "accuracy"} <= set(payload)
    assert json.loads(stdout) == payload


def test_diagnose_report(workspace, tmp_path):
    out = tmp_path / "report.json"
    code, stdout, err = run(
        [
            "diagnose",
            "--data", str(workspace / "data"),
            "--model", str(workspace / "art" / "model.mdgm"),
            "--out", str(out),
        ]
        + CFG
    )
    assert code == 0, err
    report = json.loads(out.read_text())
    for key in (
        "lipschitz_bound",
        "max_overlap",
        "delta_max_bound",
        "sigma_dep",
        "sampling_term",
        "boundary_mass",
        "rho_min",
        "probe_accuracies",
        "probe_losses",
        "stability_violations",
    ):
        assert key in report, key
    assert report["rho_min"] > 0


def test_redundancy_csv(workspace, tmp_path):
    out = tmp_path / "curve.csv"
    code, stdout, err = run(
        [
            "redundancy",
            "--data", str(workspace / "data"),
            "--fractions", "0,0.5",
            "--seeds", "0,1",
            "--out", str(out),
        ]
        + CFG
    )
    assert code == 0, err
    lines = out.read_text().splitlines()
    assert lines[0] == "fraction,mean,std"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert 0.0 <= float(first[1]) <= 1.0


def test_unknown_flag_exit_1_names_flag(workspace):
    code, _, err = run(
        ["pretrain", "--data", str(workspace / "data"), "--out", "x", "--frob", "1"]
    )
    assert code == 1
    assert "--frob" in err


def test_missing_config_file_exit_1_names_path(workspace):
    code, _, err = run(
        [
            "pretrain",
            "--data", str(workspace / "data"),
            "--out", "x",
            "--config", "no-such-config.json",
        ]
    )
    assert code == 1
    assert "no-such-config.json" in err


def test_bad_rho_exit_1_cites_rho(workspace):
    code, _, err = run(
        ["boundaries", "--data", str(workspace / "data"), "--out", "x", "--rho", "1.5"]
    )
    assert code == 1
    assert "rho" in err


def test_missing_data_dir_exit_1(tmp_path):
    code, _, err = run(["align", "--data", str(tmp_path / "void"), "--out", "x"])
    assert code == 1
    assert "void" in err


def test_missing_model_exit_1(workspace):
    code, _, err = run(
        [
            "eval",
            "--data", str(workspace / "data"),
            "--model", "ghost.mdgm",
        ]
        + CFG
    )
    assert code == 1
    assert "ghost.mdgm" in err


def test_no_subcommand_exit_1():
    code, _, _ = run([])
    assert code == 1


def test_config_file_plus_override(workspace, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(RunConfig(pca_dim=8, hidden=16).to_dict()))
    out = tmp_path / "aligned"
    code, stdout, err = run(
        [
            "align",
            "--data", str(workspace / "data"),
            "--out", str(out),
            "--config", str(cfg_path),
            "--pca-dim", "6",
        ]
    )
    assert code == 0, err
    assert read_matrix(out / "aligned_0.mdgf").shape == (60, 6)
