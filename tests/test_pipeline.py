"""Full-pipeline orchestration: smoke, determinism, redundancy curve."""

import numpy as np
import pytest

from domainmix.config import RunConfig
from domainmix.errors import ValidationError
from domainmix.pipeline import redundancy_experiment, run_pipeline
from domainmix.synth import SynthSpec, make_synth

SPEC = SynthSpec(
    K=3,
    nodes_per_domain=60,
    classes_per_domain=3,
    feature_dim=12,
)
CFG = RunConfig(
    seed=2,
    pca_dim=8,
    hidden=16,
    epochs_pre=4,
    n_pairs=4,
    gamma=0.3,
    steps_adapt=10,
    repeats=3,
)


@pytest.fixture(scope="module")
def data():
    sources, target, _ = make_synth(SPEC, seed=2)
    return sources, target


@pytest.fixture(scope="module")
def result(data):
    sources, target = data
    return run_pipeline(sources, target, CFG)


def test_run_pipeline_shapes(result):
    assert len(result.metrics) == 3
    assert len(result.alphas) == 3
    assert len(result.history) == 4
    assert len(result.boundary_sets) == 3
    for row in result.metrics:
        assert set(row) == {"target", "shots", "mode", "seed", "accuracy"}
        assert 0.0 <= row["accuracy"] <= 1.0
    for alpha in result.alphas:
        assert alpha.shape == (3,)


def test_run_pipeline_deterministic(data, result):
    sources, target = data
    again = run_pipeline(sources, target, CFG)
    assert again.metrics == result.metrics
    for a, b in zip(again.alphas, result.alphas):
        np.testing.assert_array_equal(a, b)
    for name, tensor in again.state.params.items():
        np.testing.assert_array_equal(tensor.data, result.state.params[name].data)


def test_run_pipeline_needs_two_sources(data):
    sources, target = data
    with pytest.raises(ValidationError, match="2 source graphs"):
        run_pipeline(sources[:1], target, CFG)


def test_mean_accuracy_matches_rows(result):
    accs = [row["accuracy"] for row in result.metrics]
    assert result.mean_accuracy == pytest.approx(np.mean(accs))


def test_redundancy_rows(data):
    sources, target = data
    rows = redundancy_experiment(
        sources, target, CFG.replace(repeats=2, steps_adapt=5), [0.0, 0.5], [0, 1]
    )
    assert [frac for frac, _, _ in rows] == [0.0, 0.5]
    for _, mean, std in rows:
        assert 0.0 <= mean <= 1.0
        assert std >= 0.0


def test_redundancy_rejects_bad_fraction(data):
    sources, target = data
    with pytest.raises(ValidationError, match="1.0"):
        redundancy_experiment(sources, target, CFG, [1.0], [0])
    with pytest.raises(ValidationError, match="fractions"):
        redundancy_experiment(sources, target, CFG, [], [0])
    with pytest.raises(ValidationError, match="seeds"):
        redundancy_experiment(sources, target, CFG, [0.0], [])

