"""Domain types: validation, immutability, chunk plans, report accounting."""
import json

import numpy as np
import pytest

from privseq.core import (
    ChunkPlan,
    ConfigurationError,
    Corpus,
    DataError,
    FeatureMatrix,
    InsufficientGroupError,
    InternalInvariantError,
    MechanismReport,
    ParameterError,
    ReportUnit,
    chunk_plan,
    SEQUENTIAL,
)


def _matrix(rid="r0", pid="p0", label="a", names=("f0", "f1"), values=None):
    if values is None:
        values = np.arange(6, dtype=float).reshape(3, 2)
    return FeatureMatrix(
        recording_id=rid,
        participant_id=pid,
        labels={"category": label},
        feature_names=names,
        values=values,
    )


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(ParameterError, ValueError)
        assert issubclass(InsufficientGroupError, ParameterError)
        assert issubclass(DataError, ValueError)
        assert issubclass(ConfigurationError, ValueError)
        assert issubclass(InternalInvariantError, AssertionError)


class TestFeatureMatrix:
    def test_values_are_frozen_and_copied(self):
        src = np.ones((2, 2))
        m = _matrix(values=src)
        src[0, 0] = 99.0
        assert m.values[0, 0] == 1.0
        with pytest.raises(ValueError):
            m.values[0, 0] = 5.0

    def test_column_lookup(self):
        m = _matrix()
        assert np.array_equal(m.column("f1"), [1.0, 3.0, 5.0])
        with pytest.raises(ParameterError):
            m.column("missing")

    def test_shape_and_metadata_validation(self):
        with pytest.raises(ParameterError):
            _matrix(rid="")
        with pytest.raises(ParameterError):
            _matrix(values=np.ones((0, 2)))
        with pytest.raises(ParameterError):
            _matrix(values=np.ones((3, 1)))
        with pytest.raises(ParameterError):
            _matrix(names=("dup", "dup"))
        with pytest.raises(ParameterError):
            _matrix(values=np.full((3, 2), np.nan))

    def test_length(self):
        assert _matrix().length == 3


class TestCorpus:
    def test_group_and_labels(self):
        c = Corpus(
            matrices=(
                _matrix("r0", "p0", "a"),
                _matrix("r1", "p1", "b"),
                _matrix("r2", "p0", "b"),
            ),
            schema=("f0", "f1"),
        )
        assert c.participants() == ("p0", "p1")
        assert c.label_values("category") == ("a", "b")
        assert [m.recording_id for m in c.group("category", "b")] == ["r1", "r2"]

    def test_schema_must_match_every_recording(self):
        with pytest.raises(ParameterError):
            Corpus(matrices=(_matrix(),), schema=("f0", "other"))

    def test_excluded_features_checked_against_schema(self):
        with pytest.raises(ParameterError):
            Corpus(matrices=(_matrix(),), schema=("f0", "f1"), excluded_features={"nope"})
        c = Corpus(matrices=(_matrix(),), schema=("f0", "f1"), excluded_features={"f1"})
        assert c.included_features == ("f0",)

    def test_missing_label_kind_raises(self):
        c = Corpus(matrices=(_matrix(),), schema=("f0", "f1"))
        with pytest.raises(ParameterError):
            c.label_values("gender")

    def test_empty_corpus_allowed(self):
        c = Corpus(matrices=(), schema=("f0",))
        assert c.matrices == () and c.participants() == ()


class TestChunkPlan:
    def test_builder_covers_with_remainder(self):
        p = chunk_plan(10, 4)
        assert p.boundaries == ((0, 4), (4, 8), (8, 10))
        assert p.chunk_lengths() == (4, 4, 2)
        assert len(p) == 3

    def test_single_chunk_when_size_exceeds_length(self):
        assert chunk_plan(7, 7).boundaries == ((0, 7),)
        assert chunk_plan(3, 100).boundaries == ((0, 3),)

    def test_validation_rejects_gaps_and_bad_lengths(self):
        with pytest.raises(ParameterError):
            ChunkPlan(8, 4, ((0, 4), (5, 8)))
        with pytest.raises(ParameterError):
            ChunkPlan(8, 4, ((0, 3), (3, 8)))
        with pytest.raises(ParameterError):
            ChunkPlan(8, 4, ((0, 4),))
        with pytest.raises(ParameterError):
            chunk_plan(0, 4)
        with pytest.raises(ParameterError):
            chunk_plan(8, 0)


class TestMechanismReport:
    def _unit(self, feature="f0", chunk=0, eps=1.0):
        return ReportUnit(
            feature=feature, chunk_index=chunk, sensitivity=2.0, lam=2.0, k=4, epsilon=eps
        )

    def test_sequential_total_is_sum(self):
        r = MechanismReport(
            mechanism="fpa",
            per_unit=(self._unit("f0"), self._unit("f1")),
            accounting=SEQUENTIAL,
            per_feature_epsilon={"f0": 1.0, "f1": 2.0},
            total_epsilon=3.0,
        )
        assert r.total_epsilon == 3.0

    def test_parallel_accounting_is_rejected(self):
        # features of one recording describe the same people, so their
        # budgets only ever compose sequentially
        with pytest.raises(ParameterError):
            MechanismReport(
                mechanism="cfpa",
                per_unit=(self._unit(),),
                accounting="parallel",
                per_feature_epsilon={"f0": 1.0, "f1": 2.0},
                total_epsilon=2.0,
            )

    def test_inconsistent_total_is_an_invariant_failure(self):
        with pytest.raises(InternalInvariantError):
            MechanismReport(
                mechanism="fpa",
                per_unit=(self._unit(),),
                accounting=SEQUENTIAL,
                per_feature_epsilon={"f0": 1.0, "f1": 2.0},
                total_epsilon=9.0,
            )

    def test_zero_noise_units_rejected(self):
        with pytest.raises(ParameterError):
            ReportUnit(feature="f0", chunk_index=0, sensitivity=0.0, lam=0.0, k=1, epsilon=0.0)

    def test_json_is_deterministic_and_complete(self):
        r = MechanismReport(
            mechanism="fpa",
            per_unit=(self._unit(),),
            accounting=SEQUENTIAL,
            per_feature_epsilon={"f0": 1.0},
            total_epsilon=1.0,
        )
        payload = json.loads(r.to_json())
        assert payload["chunk_total_epsilon"] == payload["sequence_total_epsilon"] == 1.0
        assert payload["chunk_per_feature_epsilon"] == {"f0": 1.0}
        assert payload["sequence_per_feature_epsilon"] == {"f0": 1.0}
        assert payload["units"][0]["lambda"] == 2.0
        assert r.to_json() == r.to_json()
