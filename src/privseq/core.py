"""Shared domain types and the error hierarchy.

Everything downstream operates on the types defined here: float64
sample vectors, recordings (time x feature grids), corpora of
recordings, chunk partitions, and the per-release accounting report.
Construction validates invariants and raises typed errors; nothing is
silently repaired.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

__all__ = [
    "ParameterError",
    "InsufficientGroupError",
    "DataError",
    "ConfigurationError",
    "InternalInvariantError",
    "RealSeq",
    "FeatureMatrix",
    "Corpus",
    "ChunkPlan",
    "chunk_plan",
    "ReportUnit",
    "MechanismReport",
    "SEQUENTIAL",
]


class ParameterError(ValueError):
    """An argument violates an operation's precondition."""


class InsufficientGroupError(ParameterError):
    """A participant group is too small for the requested computation."""


class DataError(ValueError):
    """External input (files, manifests, CSV cells) is malformed."""


class ConfigurationError(ValueError):
    """A mechanism configuration is inconsistent or incomplete."""


class InternalInvariantError(AssertionError):
    """A should-never-happen internal consistency violation."""


# Canonical array alias: a 1-D float64 ndarray of finite samples with
# length >= 1.
RealSeq = np.ndarray


@dataclass(frozen=True, slots=True)
class FeatureMatrix:
    """One recording: a time x feature grid with identifying metadata.

    values has shape (n, F) where column j is the signal of
    feature_names[j]; all columns share the length n by construction.
    """

    recording_id: str
    participant_id: str
    labels: Mapping[str, str]
    feature_names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        if not self.recording_id:
            raise ParameterError("recording_id must be non-empty")
        if not self.participant_id:
            raise ParameterError("participant_id must be non-empty")
        names = tuple(self.feature_names)
        if len(set(names)) != len(names):
            raise ParameterError("feature names must be unique within a recording")
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2:
            raise ParameterError(f"values must be 2-D (time x feature), got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ParameterError("recording must contain at least one time step")
        if arr.shape[1] != len(names):
            raise ParameterError(
                f"values has {arr.shape[1]} columns but {len(names)} feature names"
            )
        if not np.all(np.isfinite(arr)):
            raise ParameterError("recording contains NaN or infinite values")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "labels", dict(self.labels))

    @property
    def length(self) -> int:
        return int(self.values.shape[0])

    def column(self, feature_name: str) -> RealSeq:
        """The signal of one named feature, as a read-only view."""
        try:
            j = self.feature_names.index(feature_name)
        except ValueError:
            raise ParameterError(f"unknown feature {feature_name!r}") from None
        return self.values[:, j]


@dataclass(frozen=True, slots=True)
class Corpus:
    """Recordings grouped by participant and label, with a fixed schema.

    excluded_features marks columns (all-zero magnitude features) that
    sensitivity, mechanisms, and aggregate metrics skip.
    """

    matrices: tuple[FeatureMatrix, ...]
    schema: tuple[str, ...]
    excluded_features: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        schema = tuple(self.schema)
        if len(set(schema)) != len(schema):
            raise ParameterError("schema feature names must be unique")
        matrices = tuple(self.matrices)
        for m in matrices:
            if m.feature_names != schema:
                raise ParameterError(
                    f"recording {m.recording_id!r} feature names do not match the schema"
                )
        extra = frozenset(self.excluded_features) - set(schema)
        if extra:
            raise ParameterError(f"excluded features not in schema: {sorted(extra)}")
        object.__setattr__(self, "matrices", matrices)
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "excluded_features", frozenset(self.excluded_features))

    @property
    def included_features(self) -> tuple[str, ...]:
        return tuple(f for f in self.schema if f not in self.excluded_features)

    def participants(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for m in self.matrices:
            seen.setdefault(m.participant_id, None)
        return tuple(seen)

    def label_values(self, label_kind: str) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for m in self.matrices:
            if label_kind not in m.labels:
                raise ParameterError(
                    f"recording {m.recording_id!r} lacks label kind {label_kind!r}"
                )
            seen.setdefault(m.labels[label_kind], None)
        return tuple(seen)

    def group(self, label_kind: str, label_value: str) -> tuple[FeatureMatrix, ...]:
        """All recordings carrying the given label value."""
        return tuple(
            m for m in self.matrices if m.labels.get(label_kind) == label_value
        )


@dataclass(frozen=True, slots=True)
class ChunkPlan:
    """Deterministic partition of [0, n) into contiguous chunks.

    Every chunk except possibly the last has length chunk_size; the last
    holds the remainder. Mechanisms treat chunks as disjoint queries.
    """

    total_length: int
    chunk_size: int
    boundaries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n, c = self.total_length, self.chunk_size
        if n < 1:
            raise ParameterError("total_length must be >= 1")
        if c < 1:
            raise ParameterError("chunk_size must be >= 1")
        bounds = tuple((int(s), int(e)) for s, e in self.boundaries)
        if not bounds:
            raise ParameterError("plan must contain at least one chunk")
        cursor = 0
        for i, (s, e) in enumerate(bounds):
            if s != cursor or e <= s:
                raise ParameterError(f"chunk {i} range ({s}, {e}) breaks contiguous coverage")
            length = e - s
            last = i == len(bounds) - 1
            if not last and length != c:
                raise ParameterError(f"non-final chunk {i} has length {length}, expected {c}")
            if last and not (1 <= length <= c):
                raise ParameterError(f"final chunk length {length} outside [1, {c}]")
            cursor = e
        if cursor != n:
            raise ParameterError(f"chunks cover [0, {cursor}) but total_length is {n}")
        object.__setattr__(self, "boundaries", bounds)

    def __len__(self) -> int:
        return len(self.boundaries)

    def chunk_lengths(self) -> tuple[int, ...]:
        return tuple(e - s for s, e in self.boundaries)


def chunk_plan(total_length: int, chunk_size: int) -> ChunkPlan:
    """Build the canonical plan: full chunks of chunk_size plus a remainder."""
    if total_length < 1:
        raise ParameterError("total_length must be >= 1")
    if chunk_size < 1:
        raise ParameterError("chunk_size must be >= 1")
    bounds = tuple(
        (s, min(s + chunk_size, total_length))
        for s in range(0, total_length, chunk_size)
    )
    return ChunkPlan(total_length, chunk_size, bounds)


SEQUENTIAL = "sequential"


@dataclass(frozen=True, slots=True)
class ReportUnit:
    """Accounting entry for one (feature, chunk) noise application."""

    feature: str
    chunk_index: int
    sensitivity: float
    lam: float
    k: int
    epsilon: float

    def __post_init__(self) -> None:
        if self.sensitivity < 0:
            raise ParameterError("sensitivity must be >= 0")
        if not self.lam > 0:
            raise ParameterError("lambda must be > 0 (zero-noise units are omitted)")
        if self.k < 1:
            raise ParameterError("k must be >= 1")
        if not self.epsilon >= 0:
            raise ParameterError("epsilon must be >= 0")


@dataclass(frozen=True, slots=True)
class MechanismReport:
    """Per-release record of noise scales and the epsilon accounting.

    per_feature_epsilon composes each feature's chunk budgets with the
    parallel rule (disjoint index ranges); total_epsilon composes the
    per-feature budgets sequentially (sum). accounting records that rule
    in report.json and must be SEQUENTIAL.
    """

    mechanism: str
    per_unit: tuple[ReportUnit, ...]
    accounting: str
    per_feature_epsilon: Mapping[str, float]
    total_epsilon: float

    def __post_init__(self) -> None:
        if self.mechanism not in ("lpa", "fpa", "cfpa", "dcfpa"):
            raise ParameterError(f"unknown mechanism {self.mechanism!r}")
        if self.accounting != SEQUENTIAL:
            raise ParameterError(f"unknown accounting mode {self.accounting!r}")
        object.__setattr__(self, "per_unit", tuple(self.per_unit))
        object.__setattr__(self, "per_feature_epsilon", dict(self.per_feature_epsilon))
        feats = self.per_feature_epsilon
        if feats:
            expected = float(sum(feats.values()))
            if not np.isclose(expected, self.total_epsilon, rtol=0, atol=1e-12):
                raise InternalInvariantError(
                    f"total_epsilon {self.total_epsilon} does not match "
                    f"{self.accounting} composition {expected}"
                )

    def payload(self) -> dict:
        """The report as plain JSON values: what to_json serializes and
        what report.json holds per label group."""
        return {
            "mechanism": self.mechanism,
            "accounting": self.accounting,
            "total_epsilon": self.total_epsilon,
            "per_feature_epsilon": {k: v for k, v in sorted(self.per_feature_epsilon.items())},
            "units": [
                {
                    "feature": u.feature,
                    "chunk_index": u.chunk_index,
                    "sensitivity": u.sensitivity,
                    "lambda": u.lam,
                    "k": u.k,
                    "epsilon": u.epsilon,
                }
                for u in self.per_unit
            ],
        }

    def to_json(self) -> str:
        """Deterministic-key-order serialization for sidecar report files."""
        import json

        return json.dumps(self.payload(), sort_keys=True, indent=2)
