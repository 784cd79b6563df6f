"""Command-line front end.

Each subcommand reads a RunConfig from an optional JSON file plus flag
overrides, loads a generated data directory where needed, and writes its
artifacts under --out. Exit codes: 0 success, 1 validation error (bad
flag, bad value, missing file), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields as dataclass_fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .adapt import adapt, evaluate, sample_task
from .align import align_graphs, pca_project
from .config import RunConfig, load_config, save_config
from .diagnostics import compute_diagnostics
from .errors import DomainmixError, ValidationError
from .io import load_checkpoint, save_checkpoint, write_matrix
from .mixing import epoch_batches
from .nn import init_model, pretrain
from .pipeline import episode_metrics, prepare, redundancy_experiment
from .seeding import sub_seed
from .synth import SynthSpec, gen_synth, load_synth_dir


class _Parser(argparse.ArgumentParser):
    """argparse that reports problems as ValidationError instead of exiting."""

    def error(self, message):
        raise ValidationError(message)


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


_FLAG_NAMES = {"K": "--domains"}


def _add_dataclass_flags(parser, cls, skip=()):
    hints = get_type_hints(cls)
    for field in dataclass_fields(cls):
        if field.name in skip:
            continue
        flag = _FLAG_NAMES.get(field.name, "--" + field.name.replace("_", "-"))
        kind = hints[field.name]
        if kind is bool:
            parser.add_argument(
                flag, dest=field.name, type=_parse_bool, default=None, metavar="BOOL"
            )
        else:
            parser.add_argument(flag, dest=field.name, type=kind, default=None)


def _pick_overrides(args, cls):
    return {
        f.name: getattr(args, f.name)
        for f in dataclass_fields(cls)
        if getattr(args, f.name, None) is not None
    }


def _build_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides = _pick_overrides(args, RunConfig)
    if overrides:
        cfg = cfg.replace(**overrides)
    return cfg.validate()


def _build_spec(args) -> SynthSpec:
    overrides = _pick_overrides(args, SynthSpec)
    return SynthSpec(**overrides).validate()


def _load_data(args):
    return load_synth_dir(args.data)


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise ValidationError(f"{what} file not found: {p}")
    return p


def _load_model(args, cfg, num_domains: int):
    path = _require_file(args.model, "checkpoint")
    state = init_model(cfg.pca_dim, cfg.hidden, num_domains, seed=cfg.seed)
    state.load_data(load_checkpoint(path))
    return state


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def cmd_gen_synth(args) -> int:
    cfg = _build_config(args)
    spec = _build_spec(args)
    graphs = gen_synth(spec, cfg.seed, args.out)
    print(f"wrote {len(graphs)} domains to {args.out}")
    return 0


def cmd_align(args) -> int:
    cfg = _build_config(args)
    sources, _, _ = _load_data(args)
    aligned, centers = align_graphs(sources, cfg.pca_dim, scale=cfg.scale_features)
    out = _out_dir(args)
    for feats in aligned:
        write_matrix(out / f"aligned_{feats.domain_id}.mdgf", feats.matrix)
    write_matrix(out / "centers.mdgf", np.stack([c.vector for c in centers]))
    print(f"aligned {len(aligned)} domains to d={cfg.pca_dim} under {out}")
    return 0


def cmd_boundaries(args) -> int:
    cfg = _build_config(args)
    sources, _, _ = _load_data(args)
    _, _, boundary_sets = prepare(sources, cfg)
    payload = {
        str(bs.domain_id): {
            "node_ids": [int(i) for i in bs.node_ids],
            "confidences": [float(c) for c in bs.confidences],
            "used_fallback": bool(bs.used_fallback),
        }
        for bs in boundary_sets
    }
    out = _out_dir(args)
    (out / "boundaries.json").write_text(_dump_json(payload) + "\n", encoding="utf-8")
    sizes = {bs.domain_id: len(bs.node_ids) for bs in boundary_sets}
    print(f"boundary set sizes: {sizes}")
    return 0


def cmd_mix(args) -> int:
    cfg = _build_config(args)
    sources, _, _ = _load_data(args)
    aligned, _, boundary_sets = prepare(sources, cfg)
    batch = epoch_batches(sources, aligned, boundary_sets, cfg)(0)
    out = _out_dir(args)
    with open(out / "mixed.jsonl", "w", encoding="utf-8") as fh:
        for kind, subs in (("inter", batch.inter), ("intra", batch.intra)):
            for sub in subs:
                da, ca, db, cb, lam = sub.provenance
                row = {
                    "kind": kind,
                    "domain_a": da,
                    "center_a": ca,
                    "domain_b": db,
                    "center_b": cb,
                    "lambda": lam,
                    "coarse_label": sub.coarse_label,
                    "mix_label": [float(v) for v in sub.mix_label],
                    "num_nodes": len(sub.features),
                    "num_edges": len(sub.edges),
                }
                fh.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"mixed {len(batch.inter)} inter + {len(batch.intra)} intra subgraphs")
    return 0


def cmd_pretrain(args) -> int:
    cfg = _build_config(args)
    sources, _, _ = _load_data(args)
    aligned, _, boundary_sets = prepare(sources, cfg)
    state, history = pretrain(sources, aligned, boundary_sets, cfg)
    out = _out_dir(args)
    save_checkpoint(out / "model.mdgm", state.data_dict())
    save_config(out / "config.json", cfg)
    with open(out / "history.jsonl", "w", encoding="utf-8") as fh:
        for row in history:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    last = history[-1]
    print(
        f"pre-trained {cfg.epochs_pre} epochs: loss_dis={last['loss_dis']:.4f} "
        f"loss_fine={last['loss_fine']:.4f} gate={last['gate_fraction']:.2f}"
    )
    return 0


def _target_setup(args, cfg):
    sources, target, _ = _load_data(args)
    if target is None:
        raise ValidationError(f"data directory {args.data} has no target domain")
    _, centers, _ = prepare(sources, cfg)
    state = _load_model(args, cfg, len(sources))
    target_aligned = pca_project(
        target.features_raw,
        cfg.pca_dim,
        domain_id=target.domain_id,
        scale=cfg.scale_features,
    )
    return state, target, target_aligned, centers


def cmd_adapt(args) -> int:
    cfg = _build_config(args)
    state, target, target_aligned, centers = _target_setup(args, cfg)
    rng = np.random.default_rng(sub_seed(cfg.seed, "episode-0"))
    task = sample_task(target.labels, cfg.shots, rng, mode=cfg.mode)
    alpha, history = adapt(state, target, target_aligned, centers, task, cfg)
    acc = evaluate(state, alpha, target, target_aligned, centers, task, cfg)
    payload = {
        "alpha": [float(a) for a in alpha],
        "loss_first": history[0],
        "loss_last": history[-1],
        "accuracy": acc,
    }
    text = _dump_json(payload)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def cmd_eval(args) -> int:
    cfg = _build_config(args)
    state, target, target_aligned, centers = _target_setup(args, cfg)
    metrics, _ = episode_metrics(state, target, target_aligned, centers, cfg)
    lines = [json.dumps(row, sort_keys=True) for row in metrics]
    if args.out:
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    for line in lines:
        print(line)
    return 0


def cmd_diagnose(args) -> int:
    cfg = _build_config(args)
    sources, _, _ = _load_data(args)
    aligned, centers, boundary_sets = prepare(sources, cfg)
    if args.model:
        state = _load_model(args, cfg, len(sources))
    else:
        state, _ = pretrain(sources, aligned, boundary_sets, cfg)
    report = compute_diagnostics(
        sources, aligned, centers, boundary_sets, state, cfg
    )
    text = _dump_json(report.to_dict())
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def _parse_floats(text: str):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad fraction list {text!r}: {exc}") from exc


def _parse_ints(text: str):
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad seed list {text!r}: {exc}") from exc


def cmd_redundancy(args) -> int:
    cfg = _build_config(args)
    sources, target, _ = _load_data(args)
    if target is None:
        raise ValidationError(f"data directory {args.data} has no target domain")
    rows = redundancy_experiment(sources, target, cfg, args.fractions, args.seeds)
    lines = ["fraction,mean,std"]
    lines += [f"{frac},{mean},{std}" for frac, mean, std in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="domainmix", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def stage(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="RunConfig JSON file")
        _add_dataclass_flags(p, RunConfig)
        p.set_defaults(func=func)
        return p

    p = stage("gen-synth", cmd_gen_synth, "generate synthetic multi-domain graphs")
    _add_dataclass_flags(p, SynthSpec)
    p.add_argument("--out", required=True, help="output directory")

    p = stage("align", cmd_align, "per-domain PCA alignment")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = stage("boundaries", cmd_boundaries, "select boundary nodes")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = stage("mix", cmd_mix, "write the epoch-0 pre-training batch of mixed subgraphs")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = stage("pretrain", cmd_pretrain, "run hierarchical pre-training")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = stage("adapt", cmd_adapt, "one few-shot adaptation episode")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=None)

    p = stage("eval", cmd_eval, "repeated few-shot evaluation episodes")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=None)

    p = stage("diagnose", cmd_diagnose, "generalization-bound diagnostics report")
    p.add_argument("--data", required=True)
    p.add_argument("--model", default=None)
    p.add_argument("--out", default=None)

    p = stage("redundancy", cmd_redundancy, "accuracy vs node-drop curve")
    p.add_argument("--data", required=True)
    p.add_argument("--fractions", type=_parse_floats, default=[0.0, 0.5, 0.9])
    p.add_argument("--seeds", type=_parse_ints, default=[0, 1, 2])
    p.add_argument("--out", default=None)

    return parser


def cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DomainmixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
