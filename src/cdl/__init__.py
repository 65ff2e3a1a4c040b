"""Collaborative deep learning for implicit-feedback recommendation.

Couples a sigmoid stacked denoising autoencoder over item content with a
confidence-weighted matrix factorization over binary ratings.  Provides MAP
training (joint plus degenerate variants), a Metropolis-within-Gibbs sampler
for the finite-precision model, top-M ranking metrics, and a batch CLI.
"""

__version__ = "0.1.0"

from .data import (
    ContentMatrix,
    RatingsMatrix,
    SplitSpec,
    corrupt,
    generate_synthetic,
    load_content,
    load_ratings,
    split,
)
from .exceptions import (
    ArgumentError,
    CdlError,
    ConfigError,
    NumericError,
    ParseError,
    ShapeError,
    TrainingError,
    ValidationError,
)
from .factors import ConfidenceParams, LatentFactors, predict, predict_new_item
from .metrics import MetricReport, RankedList, aggregate, map_at_500, rank, recall_at_m
from .sampling import ChainSummary, run_chain
from .sdae import SdaeNetwork, encode, forward, init_network, reconstruct
from .training import (
    HyperParams,
    TrainReport,
    fit,
    fit_encoder_only,
    fit_mf_baseline,
    fit_two_step,
    load_config,
    objective,
)

__all__ = [
    "ArgumentError",
    "CdlError",
    "ChainSummary",
    "ConfidenceParams",
    "ConfigError",
    "ContentMatrix",
    "HyperParams",
    "LatentFactors",
    "MetricReport",
    "NumericError",
    "ParseError",
    "RankedList",
    "RatingsMatrix",
    "SdaeNetwork",
    "ShapeError",
    "SplitSpec",
    "TrainReport",
    "TrainingError",
    "ValidationError",
    "aggregate",
    "corrupt",
    "encode",
    "fit",
    "fit_encoder_only",
    "fit_mf_baseline",
    "fit_two_step",
    "forward",
    "generate_synthetic",
    "init_network",
    "load_config",
    "load_content",
    "load_ratings",
    "map_at_500",
    "objective",
    "predict",
    "predict_new_item",
    "rank",
    "recall_at_m",
    "reconstruct",
    "run_chain",
    "split",
]
