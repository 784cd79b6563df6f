"""Run configuration: defaults, validation, JSON round-trip."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

from .errors import ValidationError


@dataclass
class RunConfig:
    seed: int = 0
    pca_dim: int = 50
    hidden: int = 256
    hops: int = 1
    n_pairs: int = 10
    rho: float = 0.3
    gamma: float = 0.5
    lambda_mode: str = "fixed"  # "fixed" (lambda = 0.5) or "beta"
    lambda_alpha: float = 0.2
    grl_beta: float = 1.0
    lr_pre: float = 1e-4
    lr_down: float = 1e-3
    weight_decay: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    epochs_pre: int = 100
    steps_adapt: int = 200
    tau: float = 1.0
    shots: int = 1
    repeats: int = 100
    mode: str = "node"  # downstream task granularity: "node" or "graph"
    pair_mode: str = "boundary-top"
    intra_pool: str = "boundary"
    scale_features: bool = False

    def validate(self) -> "RunConfig":
        if not 0.0 < self.rho < 1.0:
            raise ValidationError(f"rho must be in (0, 1), got {self.rho}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValidationError(f"gamma must be in [0, 1), got {self.gamma}")
        if self.tau <= 0:
            raise ValidationError(f"tau must be > 0, got {self.tau}")
        for name in ("lr_pre", "lr_down"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.weight_decay < 0:
            raise ValidationError(f"weight_decay must be >= 0, got {self.weight_decay}")
        for name in ("pca_dim", "hidden", "hops", "n_pairs", "shots", "repeats"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("epochs_pre", "steps_adapt"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.lambda_mode not in ("fixed", "beta"):
            raise ValidationError(f"lambda_mode must be 'fixed' or 'beta', got {self.lambda_mode!r}")
        if self.lambda_alpha <= 0:
            raise ValidationError(f"lambda_alpha must be > 0, got {self.lambda_alpha}")
        if self.mode not in ("node", "graph"):
            raise ValidationError(f"mode must be 'node' or 'graph', got {self.mode!r}")
        if self.pair_mode not in ("boundary-top", "boundary-random", "random"):
            raise ValidationError(f"unknown pair_mode {self.pair_mode!r}")
        if self.intra_pool not in ("boundary", "all"):
            raise ValidationError(f"intra_pool must be 'boundary' or 'all', got {self.intra_pool!r}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    def replace(self, **overrides) -> "RunConfig":
        merged = self.to_dict()
        for key, value in overrides.items():
            if key not in merged:
                raise ValidationError(f"unknown config field {key!r}")
            merged[key] = value
        return RunConfig(**merged).validate()


def config_from_dict(data: dict) -> RunConfig:
    known = {f.name: f.type for f in fields(RunConfig)}
    unknown = set(data) - set(known)
    if unknown:
        raise ValidationError(f"unknown config field {sorted(unknown)[0]!r}")
    return RunConfig(**data).validate()


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"config file {path} must hold a JSON object")
    return config_from_dict(data)


def save_config(path, config: RunConfig) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
