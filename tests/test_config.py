"""RunConfig defaults, validation, and JSON round-trip."""

import json

import pytest

from domainmix.config import RunConfig, config_from_dict, load_config, save_config
from domainmix.errors import ValidationError


def test_defaults_validate():
    cfg = RunConfig().validate()
    assert cfg.pca_dim == 50
    assert cfg.hidden == 256
    assert cfg.hops == 1
    assert cfg.n_pairs == 10
    assert cfg.rho == 0.3
    assert cfg.gamma == 0.5
    assert cfg.lr_pre == 1e-4
    assert cfg.lr_down == 1e-3
    assert cfg.weight_decay == 1e-4
    assert cfg.epochs_pre == 100
    assert cfg.steps_adapt == 200
    assert cfg.tau == 1.0
    assert cfg.shots == 1
    assert cfg.repeats == 100


@pytest.mark.parametrize(
    "field,value,needle",
    [
        ("rho", 1.5, "rho"),
        ("rho", 0.0, "rho"),
        ("gamma", 1.0, "gamma"),
        ("tau", 0.0, "tau"),
        ("lr_pre", -1e-4, "lr_pre"),
        ("shots", 0, "shots"),
        ("lambda_mode", "gaussian", "lambda_mode"),
        ("mode", "edge", "mode"),
        ("pair_mode", "top", "pair_mode"),
        ("intra_pool", "none", "intra_pool"),
        ("seed", -1, "seed"),
    ],
)
def test_validation_names_the_field(field, value, needle):
    with pytest.raises(ValidationError, match=needle):
        RunConfig(**{field: value}).validate()


def test_replace_rejects_unknown_field():
    with pytest.raises(ValidationError, match="frobnicate"):
        RunConfig().replace(frobnicate=1)


def test_replace_returns_new_validated_config():
    cfg = RunConfig()
    other = cfg.replace(seed=9, rho=0.1)
    assert other.seed == 9 and other.rho == 0.1
    assert cfg.seed == 0 and cfg.rho == 0.3
    with pytest.raises(ValidationError, match="rho"):
        cfg.replace(rho=2.0)


def test_config_from_dict_rejects_unknown_key():
    with pytest.raises(ValidationError, match="zzz_extra"):
        config_from_dict({"seed": 1, "zzz_extra": 2})


def test_round_trip(tmp_path):
    cfg = RunConfig(seed=3, pca_dim=8, hidden=16, rho=0.25, mode="graph")
    path = tmp_path / "cfg.json"
    save_config(path, cfg)
    again = load_config(path)
    assert again == cfg


def test_saved_file_is_sorted_json(tmp_path):
    path = tmp_path / "cfg.json"
    save_config(path, RunConfig())
    text = path.read_text()
    data = json.loads(text)
    assert list(data) == sorted(data)
    assert text.endswith("\n")


def test_load_missing_file_names_path(tmp_path):
    with pytest.raises(ValidationError, match="not-there.json"):
        load_config(tmp_path / "not-there.json")


def test_load_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_config(path)


def test_load_non_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValidationError, match="JSON object"):
        load_config(path)
