"""``tools/bench_pairs.py summarize`` on hand-built paired runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "run_s", "better": "lower", "bound": 0.25},
    {"name": "episodes_per_s", "better": "higher", "bound": 0.25},
]


def paired_runs(base, change, name):
    """Runs of one metric: pair i holds base[i] and change[i]."""
    runs = []
    for pair, (b, c) in enumerate(zip(base, change)):
        for side, value in (("base", b), ("change", c)):
            runs.append({"pair": pair, "side": side, "ok": True, "metrics": {name: value}})
    return runs


def summary(base, change, name):
    metric = [m for m in METRICS if m["name"] == name]
    return bench_pairs.summarize(paired_runs(base, change, name), metric)[name]


# base medians 10.0 (lower is better) and 40.0 (higher), quartile spreads 1.0 and 4.0
BASE_S = [9.0, 9.5, 9.6, 9.8, 10.0, 10.0, 10.2, 10.4, 10.5, 11.0]
BASE_RATE = [4.0 * v for v in BASE_S]


@pytest.mark.parametrize("name, base, sign", [("run_s", BASE_S, -1), ("episodes_per_s", BASE_RATE, 1)])
def test_clear_gain_is_shown(name, base, sign):
    change = [b * (1.0 + sign * 0.5) for b in base]
    s = summary(base, change, name)
    assert s["change_wins"] == 10
    assert s["gain_shown"] and not s["worse_beyond_bound"]


@pytest.mark.parametrize("name, base, sign", [("run_s", BASE_S, -1), ("episodes_per_s", BASE_RATE, 1)])
def test_gain_losing_two_pairs_is_not_shown(name, base, sign):
    change = [b * (1.0 + sign * 0.5) for b in base]
    for i in (0, 5):
        change[i] = base[i] * (1.0 - sign * 0.01)
    s = summary(base, change, name)
    assert s["change_wins"] == 8
    assert abs(s["change"]["median"] - s["base"]["median"]) > s["base_iqr"]
    assert not s["gain_shown"] and not s["worse_beyond_bound"]


@pytest.mark.parametrize("name, base, sign", [("run_s", BASE_S, -1), ("episodes_per_s", BASE_RATE, 1)])
def test_gain_inside_the_spread_is_not_shown(name, base, sign):
    change = [b * (1.0 + sign * 0.02) for b in base]
    s = summary(base, change, name)
    assert s["change_wins"] == 10
    assert abs(s["change"]["median"] - s["base"]["median"]) < s["base_iqr"]
    assert not s["gain_shown"] and not s["worse_beyond_bound"]


@pytest.mark.parametrize("name, base, sign", [("run_s", BASE_S, -1), ("episodes_per_s", BASE_RATE, 1)])
def test_regression_past_the_bound(name, base, sign):
    s = summary(base, [b * (1.0 - sign * 0.3) for b in base], name)
    assert s["change_wins"] == 0
    assert s["worse_beyond_bound"] and not s["gain_shown"]
    # 20% worse is inside the 0.25 bound
    s = summary(base, [b * (1.0 - sign * 0.2) for b in base], name)
    assert not s["worse_beyond_bound"] and not s["gain_shown"]
