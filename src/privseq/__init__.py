"""Differentially private release of temporally correlated time series.

The package perturbs multivariate recordings under a per-sequence epsilon
budget using either direct Laplace noise on samples or Laplace noise on a
truncated Fourier representation (whole-sequence, chunked, or chunked on
first differences), and ships the surrounding tooling: pairwise group
sensitivity, retained-coefficient tuning, utility sweeps, correlation
diagnostics, synthetic corpus generation, and a leave-one-person-out
classification harness.
"""
from privseq.core import (
    ChunkPlan,
    Corpus,
    DataError,
    FeatureMatrix,
    InternalInvariantError,
    MechanismReport,
    ParameterError,
    chunk_plan,
)

__version__ = "0.1.0"

__all__ = [
    "ChunkPlan",
    "Corpus",
    "DataError",
    "FeatureMatrix",
    "InternalInvariantError",
    "MechanismReport",
    "ParameterError",
    "chunk_plan",
    "__version__",
]
