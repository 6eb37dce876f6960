"""Classification harness: subsampling arithmetic, train-only
normalization, kNN against a brute-force oracle, and the held-out
cross-validation loop on separable and unlearnable corpora."""
import numpy as np
import pytest

from privseq import classify
from privseq.classify import (
    ClassifierConfig,
    _neighbour_counts,
    _vote,
    decimate,
    lopo_cv,
    zscore_apply,
    zscore_fit,
)
from privseq.core import Corpus, FeatureMatrix, ParameterError
from privseq.noise import NoiseSource


def _matrix(rid, pid, label, values, names=("f0", "f1")):
    return FeatureMatrix(
        recording_id=rid,
        participant_id=pid,
        labels={"category": label},
        feature_names=names,
        values=np.asarray(values, dtype=np.float64),
    )


# --- decimate ---------------------------------------------------------------


def test_decimate_keeps_first_row_of_each_window():
    values = np.arange(50, dtype=np.float64).reshape(25, 2)
    out = decimate(_matrix("r", "p", "a", values), window=10)
    assert out.values.shape == (3, 2)
    assert np.array_equal(out.values, values[[0, 10, 20]])


def test_decimate_window_one_is_identity():
    m = _matrix("r", "p", "a", np.ones((4, 2)))
    assert decimate(m, window=1) is m


def test_decimate_mean_pool():
    values = np.asarray([[0.0], [1.0], [2.0], [3.0], [4.0]])
    out = decimate(_matrix("r", "p", "a", values, names=("f0",)), window=2, mean_pool=True)
    assert np.array_equal(out.values, [[0.5], [2.5], [4.0]])


def test_decimate_validation():
    with pytest.raises(ParameterError):
        decimate(_matrix("r", "p", "a", np.ones((4, 2))), window=0)


# --- zscore -------------------------------------------------------------------


def test_zscore_hand_example():
    means, sds = zscore_fit([[0.0], [2.0]])
    assert np.array_equal(means, [1.0])
    assert np.array_equal(sds, [1.0])
    out = zscore_apply([[0.0], [2.0], [1.0]], means, sds)
    assert np.array_equal(out, [[-1.0], [1.0], [0.0]])


def test_zscore_constant_dimension_maps_to_zero():
    rows = [[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]]
    means, sds = zscore_fit(rows)
    assert sds[1] == 0.0
    out = zscore_apply(rows, means, sds)
    assert np.array_equal(out[:, 1], [0.0, 0.0, 0.0])
    assert not np.any(np.isnan(out))


def test_zscore_normalizes_training_rows():
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((40, 3)) * 5.0 + 2.0
    means, sds = zscore_fit(rows)
    out = zscore_apply(rows, means, sds)
    assert np.max(np.abs(out.mean(axis=0))) < 1e-12
    assert np.max(np.abs(out.std(axis=0) - 1.0)) < 1e-12


def test_zscore_fit_validation():
    with pytest.raises(ParameterError):
        zscore_fit([[1.0]])
    with pytest.raises(ParameterError):
        zscore_fit([1.0, 2.0])


# --- kNN: neighbour counts and the vote ----------------------------------------


def test_knn_k1_returns_exact_match():
    train = np.array([[0.0, 0.0], [5.0, 5.0]])
    counts = _neighbour_counts(train, np.array([0, 1]), 2, np.array([[5.0, 5.0]]), 1)
    assert counts.tolist() == [[0, 1]]
    assert _vote(counts[0], ("a", "b"), NoiseSource(0)) == "b"


def test_knn_majority_of_three():
    train = np.array([[0.0, 0.0], [0.5, 0.0], [5.0, 5.0]])
    counts = _neighbour_counts(train, np.array([0, 0, 1]), 2, np.array([[0.1, 0.0]]), 3)
    assert counts.tolist() == [[2, 1]]
    assert _vote(counts[0], ("a", "b"), NoiseSource(0)) == "a"


def test_knn_matches_brute_force_oracle():
    rng = np.random.default_rng(12)
    coords = rng.integers(-5, 6, size=(40, 3)).astype(np.float64)
    codes = rng.integers(0, 3, size=40)
    values = ("a", "b", "c")
    for qi in range(25):
        query = rng.integers(-5, 6, size=3).astype(np.float64)
        k = int(rng.integers(1, 9))
        # integer coordinates keep every squared distance exact, so the
        # oracle's ordering decisions match the library's
        d2 = np.sum((coords - query) ** 2, axis=1)
        order = sorted(range(40), key=lambda i: (d2[i], i))[:k]
        expected = np.bincount(codes[order], minlength=3)
        counts = _neighbour_counts(coords, codes, 3, query[np.newaxis, :], k)
        assert np.array_equal(counts[0], expected), qi
        tied = [values[i] for i in range(3) if expected[i] == expected.max()]
        got = _vote(counts[0], values, NoiseSource(0), qi)
        if len(tied) == 1:
            assert got == tied[0]
        else:
            assert got in tied


def test_neighbour_counts_match_stable_argsort_with_duplicate_rows(monkeypatch):
    # Exact duplicate training rows put many rows at the k-th distance;
    # the selection must still be the first k of a stable sort. Besides
    # the default tile, queries go one row per tile, and 7 rows per tile
    # over 26 queries, which leaves a last tile of 5.
    rng = np.random.default_rng(21)
    distinct = rng.integers(-2, 3, size=(6, 3)).astype(np.float64)
    train = distinct[rng.integers(0, 6, size=120)]
    codes = rng.integers(0, 3, size=120)
    queries = np.concatenate([distinct, rng.integers(-3, 4, size=(20, 3)).astype(np.float64)])
    d2 = np.sum((queries[:, np.newaxis, :] - train[np.newaxis, :, :]) ** 2, axis=2)
    for tile_values in (classify.TILE_VALUES, 1, 120 * 7):
        monkeypatch.setattr(classify, "TILE_VALUES", tile_values)
        for k in (1, 2, 7, 19, 20, 21, 60, 119, 120):
            got = _neighbour_counts(train, codes, 3, queries, k)
            for q in range(queries.shape[0]):
                order = np.argsort(d2[q], kind="stable")[:k]
                assert np.array_equal(
                    got[q], np.bincount(codes[order], minlength=3)
                ), (tile_values, k, q)


def test_knn_tie_is_reproducible_per_seed():
    # a tie draws from src itself, or from src.derive(*coords) when
    # coordinates are given, as lopo_cv gives them
    tie = np.array([1, 1])
    for coords in ((), (0, 3, 1)):
        picks = {_vote(tie, ("a", "b"), NoiseSource(s), *coords) for s in range(20)}
        assert picks == {"a", "b"}, coords
        for s in range(5):
            a = _vote(tie, ("a", "b"), NoiseSource(s), *coords)
            assert a == _vote(tie, ("a", "b"), NoiseSource(s), *coords)
    for s in range(5):
        assert _vote(tie, ("a", "b"), NoiseSource(s), 0, 3, 1) == _vote(
            tie, ("a", "b"), NoiseSource(s).derive(0, 3, 1)
        )


def test_classifier_config_validation():
    with pytest.raises(ParameterError):
        ClassifierConfig(window=0)
    with pytest.raises(ParameterError):
        ClassifierConfig(neighbors=0)


# --- lopo_cv ----------------------------------------------------------------------


def _separable_corpus(participants=4, length=20, noise=0.5, seed=3):
    rng = np.random.default_rng(seed)
    offsets = {"lo": 0.0, "hi": 100.0}
    mats = []
    for p in range(participants):
        for label, offset in offsets.items():
            values = offset + noise * rng.standard_normal((length, 2))
            mats.append(_matrix(f"r_p{p}_{label}", f"p{p}", label, values))
    return Corpus(matrices=tuple(mats), schema=("f0", "f1"), excluded_features=frozenset())


def test_lopo_separable_corpus_is_perfect():
    corpus = _separable_corpus()
    config = ClassifierConfig(window=10, neighbors=3)
    folds, summary = lopo_cv(corpus, "category", config, majority=True, src=NoiseSource(1))
    assert summary.folds == 4
    assert summary.instance_accuracy == 1.0
    assert summary.instance_accuracy_pooled == 1.0
    assert summary.voted_accuracy == 1.0
    for fold in folds:
        assert fold.instance_accuracy == 1.0 and fold.voted_accuracy == 1.0
        assert len(fold.instance_predictions) == 4  # 2 recordings x 2 windows
        assert len(fold.voted_predictions) == 2


def test_lopo_mean_pool_separable():
    corpus = _separable_corpus(seed=8)
    config = ClassifierConfig(window=10, mean_pool=True, neighbors=3)
    _, summary = lopo_cv(corpus, "category", config, src=NoiseSource(2))
    assert summary.instance_accuracy == 1.0
    assert summary.voted_accuracy is None


def test_lopo_unlearnable_corpus_sits_at_chance():
    rng = np.random.default_rng(9)
    mats = []
    for p in range(6):
        for label in ("a", "b", "c"):
            mats.append(
                _matrix(f"r_p{p}_{label}", f"p{p}", label, rng.standard_normal((30, 2)))
            )
    corpus = Corpus(matrices=tuple(mats), schema=("f0", "f1"), excluded_features=frozenset())
    _, summary = lopo_cv(
        corpus, "category", ClassifierConfig(window=3, neighbors=5), src=NoiseSource(3)
    )
    assert 0.13 < summary.instance_accuracy_pooled < 0.58


def test_lopo_normalization_is_fit_on_training_rows_only():
    corpus = _separable_corpus(seed=5)
    config = ClassifierConfig(window=10, neighbors=3)
    folds, _ = lopo_cv(corpus, "category", config, src=NoiseSource(4))
    for fold in folds:
        train_rows = np.concatenate(
            [
                decimate(m, config.window).values
                for m in corpus.matrices
                if m.participant_id != fold.held_out_participant
            ]
        )
        means, sds = zscore_fit(train_rows)
        assert tuple(float(v) for v in means) == fold.norm_means
        assert tuple(float(v) for v in sds) == fold.norm_sds


def test_lopo_majority_vote_per_recording():
    # held-out recording has three windows: two near the 'lo' cluster and
    # one planted in the 'hi' cluster, so votes are (lo, lo, hi) -> lo
    mats = [_matrix("r_p0_lo", "p0", "lo", [[0.0, 0.0], [0.2, 0.1], [100.0, 100.0]])]
    rng = np.random.default_rng(6)
    for p in range(1, 4):
        for label, offset in (("lo", 0.0), ("hi", 100.0)):
            values = offset + 0.3 * rng.standard_normal((3, 2))
            mats.append(_matrix(f"r_p{p}_{label}", f"p{p}", label, values))
    corpus = Corpus(matrices=tuple(mats), schema=("f0", "f1"), excluded_features=frozenset())
    folds, _ = lopo_cv(
        corpus, "category", ClassifierConfig(window=1, neighbors=3),
        majority=True, src=NoiseSource(7),
    )
    fold = next(f for f in folds if f.held_out_participant == "p0")
    assert [p for _, p in fold.instance_predictions] == ["lo", "lo", "hi"]
    assert fold.voted_predictions == (("r_p0_lo", "lo", "lo"),)
    assert fold.voted_accuracy == 1.0


def test_lopo_is_deterministic():
    corpus = _separable_corpus(seed=11, noise=30.0)  # overlapping clusters
    config = ClassifierConfig(window=5, neighbors=5)
    a = lopo_cv(corpus, "category", config, majority=True, src=NoiseSource(8))
    b = lopo_cv(corpus, "category", config, majority=True, src=NoiseSource(8))
    assert a == b


def test_lopo_validation():
    corpus = _separable_corpus()
    single = Corpus(
        matrices=tuple(m for m in corpus.matrices if m.participant_id == "p0"),
        schema=corpus.schema,
        excluded_features=frozenset(),
    )
    with pytest.raises(ParameterError, match="participants"):
        lopo_cv(single, "category")
    with pytest.raises(ParameterError, match="neighbors"):
        lopo_cv(corpus, "category", ClassifierConfig(window=10, neighbors=500))
    all_excluded = Corpus(
        matrices=corpus.matrices, schema=corpus.schema,
        excluded_features=frozenset(("f0", "f1")),
    )
    with pytest.raises(ParameterError, match="excluded"):
        lopo_cv(all_excluded, "category")
