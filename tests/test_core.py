"""Domain types: validation, immutability, chunk plans, report accounting."""
import json

import numpy as np
import pytest

from privseq import core

from privseq.core import (
    ChunkPlan,
    Corpus,
    DataError,
    FeatureMatrix,
    InternalInvariantError,
    MechanismReport,
    ParameterError,
    ReportUnit,
    chunk_plan,
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
        # one exception type per exit code of the command line: 2, 3, 4
        assert issubclass(ParameterError, ValueError)
        assert issubclass(DataError, ValueError)
        assert issubclass(InternalInvariantError, AssertionError)
        defined = {
            name for name, v in vars(core).items()
            if isinstance(v, type) and issubclass(v, BaseException) and v.__module__ == core.__name__
        }
        assert defined == {"ParameterError", "DataError", "InternalInvariantError"}


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

    def test_excluded_features_are_derived_not_passed(self):
        with pytest.raises(TypeError):
            Corpus((_matrix(),), ("f0", "f1"), frozenset({"f1"}))
        zero_f1 = _matrix("r1", values=np.array([[1.0, 0.0], [2.0, -0.0], [3.0, 0.0]]))
        c = Corpus(matrices=(zero_f1, zero_f1), schema=("f0", "f1"))
        assert c.excluded_features == frozenset({"f1"})
        assert c.included_features == ("f0",)
        # one non-zero sample in any recording keeps a feature
        c = Corpus(matrices=(zero_f1, _matrix()), schema=("f0", "f1"))
        assert c.excluded_features == frozenset()

    def test_missing_label_kind_raises(self):
        c = Corpus(matrices=(_matrix(),), schema=("f0", "f1"))
        with pytest.raises(ParameterError):
            c.label_values("gender")

    def test_empty_corpus_allowed(self):
        c = Corpus(matrices=(), schema=("f0",))
        assert c.matrices == () and c.participants() == ()
        assert c.excluded_features == frozenset()


class TestChunkPlan:
    def test_builder_covers_with_remainder(self):
        p = chunk_plan(10, 4)
        assert p.boundaries == ((0, 4), (4, 8), (8, 10))
        assert p.chunk_lengths() == (4, 4, 2)
        assert len(p) == 3

    def test_single_chunk_when_size_exceeds_length(self):
        assert chunk_plan(7, 7).boundaries == ((0, 7),)
        assert chunk_plan(3, 100).boundaries == ((0, 3),)

    def test_validation_rejects_non_positive_sizes(self):
        for build in (ChunkPlan, chunk_plan):
            with pytest.raises(ParameterError):
                build(0, 4)
            with pytest.raises(ParameterError):
                build(8, 0)

    def test_sizes_are_integers(self):
        # a float or a bool is not a size, numpy's integers are
        for n, c in ((64.0, 16), (64, 16.0), (64, True), (True, 1), (64, "16")):
            with pytest.raises(ParameterError, match="must be an integer"):
                ChunkPlan(n, c)
        plan = ChunkPlan(np.int64(64), np.int32(16))
        assert plan == ChunkPlan(64, 16)
        assert type(plan.total_length) is type(plan.chunk_size) is int

    def test_constructor_derives_the_builder_plan(self):
        # (n, c) fix the boundaries: contiguous chunks of c from 0, the
        # last one ending at n; there is no other way to state them
        for n, c in ((1, 1), (8, 4), (10, 4), (3, 100), (1000, 48)):
            plan = ChunkPlan(n, c)
            assert plan == chunk_plan(n, c)
            starts = [s for s, _ in plan.boundaries]
            assert starts == list(range(0, n, c))
            assert [e for _, e in plan.boundaries] == starts[1:] + [n]
        with pytest.raises(TypeError):
            ChunkPlan(8, 4, ((0, 4), (4, 8)))


class TestMechanismReport:
    def _unit(self, feature="f0", chunk=0, eps=1.0):
        return ReportUnit(
            feature=feature, chunk_index=chunk, sensitivity=2.0, lam=2.0, k=4, epsilon=eps
        )

    def test_sequential_total_is_sum(self):
        r = MechanismReport(
            mechanism="cfpa",
            features=("f0", "f1"),
            per_unit=(self._unit("f0", 0, 1.0), self._unit("f0", 1, 1.0), self._unit("f1", 0, 2.0)),
        )
        assert r.per_feature_epsilon == {"f0": 1.0, "f1": 2.0}
        assert r.total_epsilon == 3.0
        assert r.sequence_per_feature_epsilon == {"f0": 2.0, "f1": 2.0}
        assert r.sequence_total_epsilon == 4.0

    def test_feature_without_units_reads_zero(self):
        r = MechanismReport(mechanism="fpa", features=("f0", "f1"), per_unit=(self._unit("f1"),))
        assert r.per_feature_epsilon == r.sequence_per_feature_epsilon == {"f0": 0.0, "f1": 1.0}
        assert r.total_epsilon == r.sequence_total_epsilon == 1.0

    def test_features_are_unique_and_name_every_unit(self):
        with pytest.raises(ParameterError):
            MechanismReport(mechanism="fpa", features=("f0",), per_unit=(self._unit("f1"),))
        with pytest.raises(ParameterError):
            MechanismReport(mechanism="fpa", features=("f0", "f0"), per_unit=())

    def test_zero_noise_units_rejected(self):
        with pytest.raises(ParameterError):
            ReportUnit(feature="f0", chunk_index=0, sensitivity=0.0, lam=0.0, k=1, epsilon=0.0)

    def test_json_is_deterministic_and_complete(self):
        r = MechanismReport(mechanism="fpa", features=("f0",), per_unit=(self._unit(),))
        payload = json.loads(r.to_json())
        assert payload["chunk_total_epsilon"] == payload["sequence_total_epsilon"] == 1.0
        assert payload["chunk_per_feature_epsilon"] == {"f0": 1.0}
        assert payload["sequence_per_feature_epsilon"] == {"f0": 1.0}
        assert payload["units"][0]["lambda"] == 2.0
        assert r.to_json() == r.to_json()
