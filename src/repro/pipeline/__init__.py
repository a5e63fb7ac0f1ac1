"""The hmmsearch task pipeline: statistics, calibration, stages, results."""

from .calibrate import PipelineCalibration, calibrate_profile
from .oracle import Divergence, OracleReport, sample_indices
from .pipeline import HmmsearchPipeline, PipelineThresholds
from .results import SearchHit, SearchResults, StageStats
from .stats import (
    ScoreDistribution,
    bits_from_nats,
    exponential_survival,
    fit_exponential_tau,
    fit_gumbel_mu,
    gumbel_survival,
)

__all__ = [
    "HmmsearchPipeline",
    "PipelineThresholds",
    "PipelineCalibration",
    "calibrate_profile",
    "SearchResults",
    "SearchHit",
    "StageStats",
    "Divergence",
    "OracleReport",
    "sample_indices",
    "ScoreDistribution",
    "gumbel_survival",
    "exponential_survival",
    "fit_gumbel_mu",
    "fit_exponential_tau",
    "bits_from_nats",
]
