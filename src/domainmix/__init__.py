"""Multi-domain graph pre-training via boundary-aware subgraph mixing.

The pieces compose front to back: per-domain PCA alignment, boundary-node
selection by center-distance margins, cross-domain ego-subgraph mixing,
adversarial pre-training of a small GCN encoder, prompt-weighted few-shot
adaptation on a frozen encoder, and diagnostics for every measurable term
of the accompanying stability analysis. ``run_pipeline`` strings the
stages together; everything is also usable piecemeal.
"""

from .adapt import FewShotTask, adapt, evaluate, sample_task
from .align import AlignedFeatures, DomainCenter, align_graphs, domain_center, pca_project
from .boundary import BoundarySet, select_boundaries
from .config import RunConfig, load_config, save_config
from .diagnostics import (
    DiagnosticsReport,
    ambiguity_probe,
    compute_diagnostics,
    lipschitz_upper,
    max_overlap,
    overlap_ratio,
    sampling_term,
    sigma_dep,
    stability_check,
)
from .errors import (
    ConvergenceError,
    DomainmixError,
    EncoderMutatedError,
    NoMixablePairsError,
    NonFiniteGradientError,
    ValidationError,
)
from .graphs import DomainGraph, EgoSubgraph, build_domain_graph, extract_ego, load_graph
from .mixing import MixBatch, MixedSubgraph, build_batch, mix_subgraphs, select_pairs
from .nn import ModelState, init_model, pretrain
from .pipeline import PipelineResult, redundancy_experiment, run_pipeline
from .synth import SynthSpec, make_synth

__version__ = "0.1.0"

__all__ = [
    "AlignedFeatures",
    "BoundarySet",
    "ConvergenceError",
    "DiagnosticsReport",
    "DomainCenter",
    "DomainGraph",
    "DomainmixError",
    "EgoSubgraph",
    "EncoderMutatedError",
    "FewShotTask",
    "MixBatch",
    "MixedSubgraph",
    "ModelState",
    "NoMixablePairsError",
    "NonFiniteGradientError",
    "PipelineResult",
    "RunConfig",
    "SynthSpec",
    "ValidationError",
    "adapt",
    "align_graphs",
    "ambiguity_probe",
    "build_batch",
    "build_domain_graph",
    "compute_diagnostics",
    "domain_center",
    "evaluate",
    "extract_ego",
    "init_model",
    "lipschitz_upper",
    "load_config",
    "load_graph",
    "make_synth",
    "max_overlap",
    "mix_subgraphs",
    "overlap_ratio",
    "pca_project",
    "pretrain",
    "redundancy_experiment",
    "run_pipeline",
    "sample_task",
    "sampling_term",
    "save_config",
    "select_boundaries",
    "select_pairs",
    "sigma_dep",
    "stability_check",
    "__version__",
]
