"""SHA-256 fingerprints of whole runs, one per (benchmark workload, seed).

    python3 tools/fingerprint.py --seeds 0 1 2

Run from the repository root. For each workload config in
``bench/bench_workloads.py`` and each seed, the library pipeline runs once
on the workload's synthetic spec: prepare, pretrain, and the config's
few-shot episodes through ``adapt_episodes``. The hash covers the
pre-training history, the trained parameters, the alphas, the adapt loss
histories and the per-episode accuracies. A command-line workload also
runs ``gen-synth``, ``mix``, ``pretrain``, ``eval``, ``adapt`` and
``diagnose`` in a temporary directory, and its hash covers every file they
write. Two trees that print the same lines gave byte-identical outputs on
those runs. BLAS is pinned to one thread, as in ``bench/run.py``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from bench_workloads import WORKLOADS, CliWorkload  # noqa: E402
from domainmix.adapt import adapt_episodes, sample_task  # noqa: E402
from domainmix.cli import cli  # noqa: E402
from domainmix.config import RunConfig  # noqa: E402
from domainmix.nn import pretrain  # noqa: E402
from domainmix.pipeline import prepare, project_target  # noqa: E402
from domainmix.seeding import sub_seed  # noqa: E402
from domainmix.synth import SynthSpec, make_synth  # noqa: E402


def _update(h, name: str, value) -> None:
    h.update(name.encode() + b"\0")
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, bytes):
        h.update(value)
    else:
        h.update(json.dumps(value, sort_keys=True).encode())


def library_run(h, spec: dict, config: dict, seed: int) -> None:
    sources, target, _ = make_synth(SynthSpec(**spec), seed)
    cfg = RunConfig(seed=seed, **config).validate()
    aligned, centers, boundary_sets = prepare(sources, cfg)
    state, history = pretrain(sources, aligned, boundary_sets, cfg)
    tasks = [
        sample_task(
            target.labels,
            cfg.shots,
            np.random.default_rng(sub_seed(cfg.seed, f"episode-{rep}")),
            mode=cfg.mode,
        )
        for rep in range(cfg.repeats)
    ]
    alphas, histories, accuracies = adapt_episodes(
        state, target, project_target(target, cfg), centers, tasks, cfg
    )
    _update(h, "history", history)
    for name, value in state.data_dict().items():
        _update(h, f"param {name}", value)
    _update(h, "alphas", np.asarray(alphas))
    _update(h, "adapt histories", [list(map(float, losses)) for losses in histories])
    _update(h, "accuracies", [float(a) for a in accuracies])


def _flags(options: dict) -> list:
    return [tok for k, v in options.items() for tok in ("--" + k.replace("_", "-"), str(v))]


def cli_run(h, spec: dict, config: dict, seed: int) -> None:
    spec = dict(spec)
    spec["domains"] = spec.pop("K")
    flags = _flags(dict(config, seed=seed))
    with tempfile.TemporaryDirectory(prefix="fingerprint-") as tmp:
        data, run = Path(tmp) / "data", Path(tmp) / "run"
        model = run / "model.mdgm"
        commands = [
            ["gen-synth", "--out", data, "--seed", seed] + _flags(spec),
            ["mix", "--data", data, "--out", run] + flags,
            ["pretrain", "--data", data, "--out", run] + flags,
            ["eval", "--data", data, "--model", model, "--out", run / "metrics.jsonl"] + flags,
            ["adapt", "--data", data, "--model", model, "--out", run / "adapt.json"] + flags,
            ["diagnose", "--data", data, "--model", model, "--out", run / "diagnostics.json"]
            + flags,
        ]
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli([str(a) for a in argv])
            if code != 0:
                raise RuntimeError(f"domainmix {argv[0]} exited with {code}")
        for path in sorted(run.iterdir()):
            _update(h, f"file {path.name}", path.read_bytes())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS), default=list(WORKLOADS))
    args = parser.parse_args(argv)
    for name in args.workloads:
        workload = WORKLOADS[name]
        for seed in args.seeds:
            h = hashlib.sha256()
            library_run(h, workload.spec, workload.config, seed)
            if isinstance(workload, CliWorkload):
                cli_run(h, workload.spec, workload.config, seed)
            print(f"{name} seed {seed} {h.hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
