"""Downstream usability: subsample, normalize, kNN, leave-one-person-out.

The harness measures how much task signal survives privatization: each
subsampled time instance becomes one classification instance over the
included features, folds hold out every recording of one participant,
normalization is fit on training rows only, and accuracy is reported
both as the mean over folds and pooled over instances. Majority voting
aggregates instance predictions per recording.

All tie-breaking randomness flows through derived noise streams, so a
run is reproducible from the seed alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from privseq.core import Corpus, FeatureMatrix, ParameterError
from privseq.noise import NoiseSource

__all__ = [
    "decimate",
    "zscore_fit",
    "zscore_apply",
    "ClassifierConfig",
    "FoldResult",
    "CvSummary",
    "lopo_cv",
]


def decimate(m: FeatureMatrix, window: int, mean_pool: bool = False) -> FeatureMatrix:
    """Shrink a recording to one row per non-overlapping window.

    Default keeps the first row of each window, preserving the feature
    values as observed; mean_pool averages the window instead. Output
    length is ceil(n / window).
    """
    if window < 1:
        raise ParameterError(f"window must be >= 1, got {window}")
    if window == 1:
        return m
    if mean_pool:
        n = m.length
        rows = [
            m.values[s : min(s + window, n)].mean(axis=0) for s in range(0, n, window)
        ]
        values = np.stack(rows)
    else:
        values = m.values[::window]
    return FeatureMatrix(
        recording_id=m.recording_id,
        participant_id=m.participant_id,
        labels=m.labels,
        feature_names=m.feature_names,
        values=values,
    )


def zscore_fit(rows: Sequence[Sequence[float]] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension mean and population standard deviation.

    A constant dimension gets sd 0.0, the marker zscore_apply reads to
    map that dimension to zero instead of dividing by it.
    """
    arr = np.asarray(rows, dtype=np.float64)
    if arr.ndim != 2:
        raise ParameterError(f"expected a 2-D row matrix, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise ParameterError(f"normalization needs >= 2 rows, got {arr.shape[0]}")
    return arr.mean(axis=0), arr.std(axis=0)


def zscore_apply(
    rows: Sequence[Sequence[float]] | np.ndarray,
    means: np.ndarray,
    sds: np.ndarray,
) -> np.ndarray:
    arr = np.asarray(rows, dtype=np.float64)
    live = sds != 0.0
    out = np.zeros_like(arr, dtype=np.float64)
    np.divide(arr - means, sds, out=out, where=live)
    return out


# Query rows per distance tile: about TILE_VALUES float64 distances, so a
# tile's work arrays stay in cache however many queries there are.
TILE_VALUES = 1 << 15


def _neighbour_counts(
    train_x: np.ndarray, codes: np.ndarray, n_labels: int, queries: np.ndarray, k: int
) -> np.ndarray:
    """(queries, n_labels) label counts among each query's k nearest
    training rows.

    Squared Euclidean distances are summed from direct per-feature
    differences, in feature order. The neighbours are the rows a stable
    sort of the distances puts first: every row strictly closer than the
    k-th smallest distance, then rows at that distance in index order.
    Queries go in tiles of rows; no row's result depends on its tile.
    """
    train_t = np.ascontiguousarray(train_x.T)
    n_features, n_train = train_t.shape
    onehot = (codes[:, np.newaxis] == np.arange(n_labels)).astype(np.float64)
    counts = np.empty((queries.shape[0], n_labels), dtype=np.intp)
    tile = max(1, TILE_VALUES // n_train)
    for s in range(0, queries.shape[0], tile):
        q = queries[s : s + tile]
        # the sum starts at the first feature's square, bitwise what a
        # zero start gives (0 + x == x)
        d2 = np.subtract(q[:, :1], train_t[0])
        np.multiply(d2, d2, out=d2)
        diff = np.empty_like(d2)
        for f in range(1, n_features):
            np.subtract(q[:, f : f + 1], train_t[f], out=diff)
            np.multiply(diff, diff, out=diff)
            d2 += diff
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
        # 1.0 for every row at or below the k-th distance; label counts
        # below 2**53 are exact in float64
        chosen = np.less_equal(d2, kth, out=diff)
        tile_counts = chosen @ onehot
        over = tile_counts.sum(axis=1) - k
        for r in np.flatnonzero(over > 0):
            # more rows tie at the k-th distance than places are left:
            # keep the lowest indices
            ties = np.flatnonzero(d2[r] == kth[r])
            chosen[r, ties[ties.size - int(over[r]) :]] = 0.0
            tile_counts[r] = chosen[r] @ onehot
        counts[s : s + tile] = tile_counts
    return counts


def _vote(counts: np.ndarray, values: Sequence[str], src: NoiseSource, *coords: int) -> str:
    """The top label; a tie draws from stream src.derive(*coords) (src
    itself without coords), derived only when there is a tie."""
    top = counts.max()
    tied = [values[i] for i in range(len(values)) if counts[i] == top]
    if len(tied) == 1:
        return tied[0]
    stream = src.derive(*coords) if coords else src
    pick = int(stream.generator().integers(0, len(tied)))
    return tied[pick]


@dataclass(frozen=True, slots=True)
class ClassifierConfig:
    """Subsampling window, window reduction, and neighbor count."""

    window: int = 10
    mean_pool: bool = False
    neighbors: int = 11

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ParameterError(f"window must be >= 1, got {self.window}")
        if self.neighbors < 1:
            raise ParameterError(f"neighbors must be >= 1, got {self.neighbors}")


@dataclass(frozen=True, slots=True)
class FoldResult:
    """Outcome of one held-out participant.

    voted_predictions holds one (recording_id, true, voted) triple per
    held-out recording and is empty unless majority voting was
    requested. A held-out participant can carry recordings with
    different true labels, so voting is per recording. The fitted
    normalization parameters are retained so a leak check can recompute
    them from training rows alone and compare.
    """

    held_out_participant: str
    instance_predictions: tuple[tuple[str, str], ...]
    voted_predictions: tuple[tuple[str, str, str], ...] = ()
    norm_means: tuple[float, ...] = ()
    norm_sds: tuple[float, ...] = ()

    @property
    def instance_accuracy(self) -> float:
        pairs = self.instance_predictions
        return sum(1 for t, p in pairs if t == p) / len(pairs)

    @property
    def voted_accuracy(self) -> float | None:
        if not self.voted_predictions:
            return None
        return sum(1 for _, t, v in self.voted_predictions if t == v) / len(
            self.voted_predictions
        )


@dataclass(frozen=True, slots=True)
class CvSummary:
    """Fold-mean accuracy is the headline number; pooled counts every
    instance equally across folds."""

    folds: int
    instance_accuracy: float
    instance_accuracy_pooled: float
    voted_accuracy: float | None = None


def lopo_cv(
    corpus: Corpus,
    label_kind: str,
    config: ClassifierConfig = ClassifierConfig(),
    majority: bool = False,
    src: NoiseSource = NoiseSource(0),
) -> tuple[tuple[FoldResult, ...], CvSummary]:
    """Leave-one-person-out cross-validation over subsampled instances.

    Each fold holds out all recordings of one participant, fits
    normalization on the remaining rows, and classifies every held-out
    instance with kNN. Tie-break streams are addressed by (fold,
    recording, instance), so results do not depend on evaluation order.
    """
    participants = corpus.participants()
    if len(participants) < 2:
        raise ParameterError("leave-one-person-out needs >= 2 participants")
    corpus.label_values(label_kind)  # validates presence on every recording
    features = corpus.included_features
    if not features:
        raise ParameterError("every feature is excluded")
    cols = [corpus.schema.index(f) for f in features]
    small = [decimate(m, config.window, config.mean_pool) for m in corpus.matrices]
    # column selection returns Fortran order; canonicalize so fitted
    # statistics match a row-major recomputation bit for bit
    rows = [np.ascontiguousarray(m.values[:, cols]) for m in small]

    folds: list[FoldResult] = []
    for fold_i, person in enumerate(participants):
        train_rows = []
        train_labels: list[str] = []
        for m, r in zip(small, rows):
            if m.participant_id != person:
                train_rows.append(r)
                train_labels.extend([m.labels[label_kind]] * r.shape[0])
        train_x = np.concatenate(train_rows, axis=0)
        if config.neighbors > train_x.shape[0]:
            raise ParameterError(
                f"neighbors={config.neighbors} exceeds {train_x.shape[0]} training rows"
            )
        means, sds = zscore_fit(train_x)
        train_x = zscore_apply(train_x, means, sds)
        values = sorted(set(train_labels))
        index = {v: i for i, v in enumerate(values)}
        codes = np.asarray([index[lab] for lab in train_labels])

        held = [i for i, m in enumerate(small) if m.participant_id == person]
        test_x = zscore_apply(np.concatenate([rows[i] for i in held], axis=0), means, sds)
        counts = _neighbour_counts(train_x, codes, len(values), test_x, config.neighbors)
        ends = np.cumsum([rows[i].shape[0] for i in held])
        instance_preds: list[tuple[str, str]] = []
        voted: list[tuple[str, str, str]] = []
        for rec_i, rec_counts in zip(held, np.split(counts, ends[:-1])):
            m = small[rec_i]
            truth = m.labels[label_kind]
            rec_preds = [
                _vote(c, values, src, fold_i, rec_i, q) for q, c in enumerate(rec_counts)
            ]
            instance_preds.extend((truth, p) for p in rec_preds)
            if majority:
                votes = np.bincount(
                    [index.get(p, -1) for p in rec_preds if p in index],
                    minlength=len(values),
                )
                voted.append(
                    (m.recording_id, truth, _vote(votes, values, src, fold_i, rec_i))
                )
        folds.append(
            FoldResult(
                held_out_participant=person,
                instance_predictions=tuple(instance_preds),
                voted_predictions=tuple(voted),
                norm_means=tuple(float(v) for v in means),
                norm_sds=tuple(float(v) for v in sds),
            )
        )

    inst_fold_mean = math.fsum(f.instance_accuracy for f in folds) / len(folds)
    total = sum(len(f.instance_predictions) for f in folds)
    correct = sum(
        1 for f in folds for t, p in f.instance_predictions if t == p
    )
    summary = CvSummary(
        folds=len(folds),
        instance_accuracy=inst_fold_mean,
        instance_accuracy_pooled=correct / total,
        voted_accuracy=(
            math.fsum(f.voted_accuracy for f in folds) / len(folds) if majority else None
        ),
    )
    return tuple(folds), summary
