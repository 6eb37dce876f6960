"""Reconstruction-quality metrics, utility sweeps, correlation curves.

NMSE follows the normalized form literally: mean squared error divided
by the product of the two signal means. A noisy mean can make that
denominator negative or near zero; such rows are kept and flagged, and
aggregate means skip them while reporting how many were skipped.

The sweep runner measures mean utility per (mechanism, chunk size,
epsilon) over repeated noisy executions. Aggregation is two-stage: NMSE
cells (one per recording x run) are averaged per feature, per-feature
means are averaged across features, and the row's utility is the
reciprocal of that final mean. The sweep runs on the release driver
perturb_corpus runs on (mechanisms._release_blocks), which decides each
unit's k, sensitivity and noise scale once and releases row blocks of
one (group, feature), each config over the whole epsilon grid at once;
run 0 of a cell is bitwise what perturb_corpus releases at that budget.
The sweep scores each block as it is released (_cell_sums), each
recording's cells over its own length. Noise streams are addressed by
(recording, feature, run), epsilon never enters a stream address, and
per-recording partial sums are merged in recording order, so sweeps are
bitwise reproducible and independent of block size and worker count.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from privseq.core import Corpus, InternalInvariantError, ParameterError, RealSeq
from privseq.mechanisms import MECHANISMS, MechanismConfig, _release_blocks, _released
from privseq.noise import NoiseSource
from privseq.sensitivity import build_group_table  # noqa: F401 (perfbench traces it here)

if TYPE_CHECKING:
    from privseq.tuning import KTable

__all__ = [
    "corr_curve",
    "CorrelationCurve",
    "SweepRow",
    "UtilitySweep",
    "run_sweep",
    "write_sweep_csv",
    "write_correlation_csv",
    "DEFAULT_EPSILONS",
    "DEFAULT_CHUNK_SIZES",
    "DEFAULT_RUNS",
]

DEFAULT_EPSILONS = (0.48, 2.4, 4.8, 24.0, 48.0)
DEFAULT_CHUNK_SIZES = (32, 64, 128)
DEFAULT_RUNS = 100

# Denominators smaller than this are treated as undefined rather than
# amplified into meaningless quotients.
_DENOM_FLOOR = 1e-12

_SWEEP_HEADER = (
    "mechanism",
    "chunk_size",
    "epsilon",
    "mean_utility",
    "mean_nmse",
    "runs",
    "flagged_rows",
)


def _nmse_ratio(num, den) -> tuple[np.ndarray, np.ndarray]:
    """(values, valid) of NMSE cells num / den, elementwise. The NMSE of
    a release xt of x is mean((x - xt)^2) / (mean(x) * mean(xt)); a cell
    whose denominator magnitude is below 1e-12 is undefined (NaN), and
    valid marks the cells that aggregates count, the defined non-negative
    ones. A numerator or denominator that overflowed while it was formed
    (inf or NaN) is a ParameterError: its noise is too large to score."""
    num = np.asarray(num, dtype=np.float64)
    if not (np.isfinite(num).all() and np.isfinite(den).all()):
        raise ParameterError("the NMSE of a release overflows: its noise is too large to score")
    defined = np.abs(den) >= _DENOM_FLOOR
    values = np.divide(num, den, out=np.full_like(num, math.nan), where=defined)
    return values, values >= 0.0


@dataclass(frozen=True, slots=True)
class CorrelationCurve:
    """Pearson correlation against a reference time index, per lag."""

    feature: str
    group_label: str
    reference_index: int
    points: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        pts = tuple((int(d), float(r)) for d, r in self.points)
        for d, r in pts:
            if d < 0:
                raise ParameterError(f"negative lag {d}")
            if not -1.0 <= r <= 1.0:
                raise ParameterError(f"correlation {r} outside [-1, 1] at lag {d}")
        object.__setattr__(self, "points", pts)


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    da = a - a.mean()
    db = b - b.mean()
    den = math.sqrt(float(np.sum(da * da)) * float(np.sum(db * db)))
    if den == 0.0:
        raise ParameterError("zero variance across the group; correlation undefined")
    r = float(np.sum(da * db)) / den
    return min(1.0, max(-1.0, r))


def corr_curve(
    group: Sequence[RealSeq],
    reference_index: int = 5,
    max_lag: int = 10,
    feature: str = "",
    group_label: str = "",
) -> CorrelationCurve:
    """Correlation across the group between the sample at the reference
    index and the sample at reference + delta_t, for each lag."""
    if reference_index < 0 or max_lag < 0:
        raise ParameterError("reference_index and max_lag must be >= 0")
    vecs = [np.asarray(v, dtype=np.float64) for v in group]
    if len(vecs) < 3:
        raise ParameterError(f"corr_curve needs a group of >= 3 signals, got {len(vecs)}")
    need = reference_index + max_lag + 1
    for v in vecs:
        if v.ndim != 1 or v.size < need:
            raise ParameterError(
                f"every signal must have length > {reference_index + max_lag}"
            )
    rows = np.stack([v[:need] for v in vecs])
    ref = rows[:, reference_index]
    points = [
        (dt, _pearson(ref, rows[:, reference_index + dt])) for dt in range(max_lag + 1)
    ]
    return CorrelationCurve(
        feature=feature,
        group_label=group_label,
        reference_index=reference_index,
        points=tuple(points),
    )


def write_correlation_csv(curve: CorrelationCurve, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("delta_t", "r"))
        for d, r in curve.points:
            writer.writerow([d, repr(r)])


@dataclass(frozen=True, slots=True)
class SweepRow:
    """One sweep cell. mean_utility is the reciprocal of mean_nmse by
    construction; flagged_rows counts the NMSE cells (recording x run)
    skipped for a negative or undefined value."""

    mechanism: str
    chunk_size: int | None
    epsilon: float
    mean_utility: float
    mean_nmse: float
    runs: int
    flagged_rows: int

    def __post_init__(self) -> None:
        if self.mechanism not in MECHANISMS:
            raise ParameterError(f"unknown mechanism {self.mechanism!r}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ParameterError(f"chunk_size must be positive, got {self.chunk_size}")
        if not self.epsilon > 0:
            raise ParameterError(f"epsilon must be positive, got {self.epsilon}")
        if self.runs < 1:
            raise ParameterError(f"runs must be >= 1, got {self.runs}")
        if self.flagged_rows < 0:
            raise ParameterError("flagged_rows must be >= 0")
        if not self.mean_nmse >= 0:
            raise ParameterError(f"mean_nmse must be >= 0, got {self.mean_nmse}")
        if math.isfinite(self.mean_nmse) and self.mean_nmse > 0:
            if self.mean_utility != 1.0 / self.mean_nmse:
                raise InternalInvariantError(
                    "mean_utility must be the reciprocal of mean_nmse"
                )


@dataclass(frozen=True, slots=True)
class UtilitySweep:
    rows: tuple[SweepRow, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))

    def row(self, mechanism: str, chunk_size: int | None, epsilon: float) -> SweepRow:
        for r in self.rows:
            if (
                r.mechanism == mechanism
                and r.chunk_size == chunk_size
                and r.epsilon == epsilon
            ):
                return r
        raise ParameterError(f"no row for ({mechanism}, {chunk_size}, {epsilon})")


def write_sweep_csv(sweep: UtilitySweep, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SWEEP_HEADER)
        for r in sweep.rows:
            writer.writerow(
                [
                    r.mechanism,
                    "" if r.chunk_size is None else r.chunk_size,
                    repr(r.epsilon),
                    repr(r.mean_utility),
                    repr(r.mean_nmse),
                    r.runs,
                    r.flagged_rows,
                ]
            )


def _reject_repeats(what: str, values: Sequence) -> None:
    """A sweep grid axis names each value once: a repeat would release
    and report the same cells again."""
    seen = set()
    for v in values:
        if v in seen:
            raise ParameterError(f"repeated {what} {v!r} in the sweep grid")
        seen.add(v)


def _sweep_configs(
    mechanisms: Sequence[str], chunk_sizes: Sequence[int]
) -> list[tuple[str, int | None]]:
    _reject_repeats("mechanism", mechanisms)
    _reject_repeats("chunk size", chunk_sizes)
    configs: list[tuple[str, int | None]] = []
    for mech in mechanisms:
        if mech not in MECHANISMS:
            raise ParameterError(f"unknown mechanism {mech!r}")
        if mech in ("lpa", "fpa"):
            configs.append((mech, None))
        else:
            for c in chunk_sizes:
                if c < 1:
                    raise ParameterError(f"chunk sizes must be positive, got {c}")
                configs.append((mech, int(c)))
    if not configs:
        raise ParameterError("empty sweep grid: no mechanisms")
    return configs


def _cell_sums(corpus: Corpus, rows: Sequence[int], block: np.ndarray, released: np.ndarray):
    """(sums of the valid NMSE cells, valid counts), each (epsilons,
    recordings), of one config's (epsilons, rows, runs, n) release of a
    row block of recordings rows. Each recording's cells are taken over
    its own length, and its sum over the valid runs is that of numpy's
    sum of those runs in run order."""
    by_length: dict[int, list[int]] = {}
    for i, r in enumerate(rows):
        by_length.setdefault(corpus.matrices[r].length, []).append(i)
    sums = np.empty(released.shape[:2])
    counts = np.empty(released.shape[:2], dtype=np.int64)
    for n, members in by_length.items():
        xt = released[..., :n] if len(members) == len(rows) else released[:, members, :, :n]
        x = block[members, :n]
        with np.errstate(over="ignore", invalid="ignore"):  # _nmse_ratio rejects the result
            den = np.mean(x, axis=-1)[:, np.newaxis] * np.mean(xt, axis=-1)
            xt -= x[:, np.newaxis, :]  # the release is not read again
            xt *= xt
            num = np.mean(xt, axis=-1)
        values, ok = _nmse_ratio(num, den)
        sums[:, members] = np.sum(values, axis=-1)
        counts[:, members] = np.count_nonzero(ok, axis=-1)
        for e, i in zip(*np.nonzero(~ok.all(axis=-1))):
            sums[e, members[i]] = np.sum(values[e, i][ok[e, i]])
    return sums, counts


def run_sweep(
    corpus: Corpus,
    label_kind: str,
    src: NoiseSource,
    mechanisms: Sequence[str] = MECHANISMS,
    epsilons: Sequence[float] = DEFAULT_EPSILONS,
    chunk_sizes: Sequence[int] = DEFAULT_CHUNK_SIZES,
    runs: int = DEFAULT_RUNS,
    jobs: int = 1,
    k_table: KTable | None = None,
) -> UtilitySweep:
    """Mean utility for every (mechanism, chunk size, epsilon) cell.

    Without k_table every chunk keeps all its coefficients. A k_table
    supplies the counts of every group instead: each fpa, cfpa or dcfpa
    configuration must use the chunk plan the group was tuned for, and a
    missing group or another plan is a ConfigurationError. lpa keeps no
    coefficients and ignores it. A mechanism, chunk size or epsilon named
    twice is a ParameterError.
    """
    if not epsilons:
        raise ParameterError("empty sweep grid: no epsilons")
    eps = [float(e) for e in epsilons]
    for e in eps:
        if not (e > 0 and math.isfinite(e)):
            raise ParameterError(f"epsilons must be positive and finite, got {e}")
    configs = _sweep_configs(mechanisms, chunk_sizes)
    _reject_repeats("epsilon", eps)
    features = corpus.included_features
    if not features:
        raise ParameterError("empty sweep: every feature excluded")
    _, blocks = _release_blocks(
        corpus, label_kind, [MechanismConfig(mech, 1.0, chunk_size=c) for mech, c in configs],
        np.array(eps)[:, np.newaxis], src, runs, jobs,
        lambda col, rows, block, draws, config, units: _cell_sums(
            corpus, rows, block, _released(block, draws, config, units)
        ),
        k_table=k_table,
    )

    # Float sums are merged per recording, in recording order, so they
    # never depend on block size or scheduling; counts are exact anyway.
    shape = (len(configs), len(eps))
    feature_col = {f: corpus.schema.index(f) for f in features}
    totals = {col: np.zeros(shape) for col in feature_col.values()}
    valid = {col: np.zeros(shape, dtype=np.int64) for col in feature_col.values()}
    per_recording = {}
    for _, col, recordings, out in blocks:
        sums = np.stack([s for s, _ in out])
        valid[col] += np.stack([c for _, c in out]).sum(axis=-1)
        per_recording.update({(r, col): sums[..., i] for i, r in enumerate(recordings)})
    for r, col in sorted(per_recording):
        totals[col] += per_recording[(r, col)]

    cells = len(corpus.matrices) * runs
    rows: list[SweepRow] = []
    for cfg_idx, (mech, c) in enumerate(configs):
        for e_idx, e in enumerate(eps):
            feature_means: list[float] = []
            flagged = 0
            for col in feature_col.values():
                count = int(valid[col][cfg_idx, e_idx])
                flagged += cells - count
                if count > 0:
                    feature_means.append(float(totals[col][cfg_idx, e_idx]) / count)
            if not feature_means:
                raise ParameterError(
                    f"empty sweep cell ({mech}, {c}, {e}): all rows flagged"
                )
            mean_nmse = math.fsum(feature_means) / len(feature_means)
            mean_util = math.inf if mean_nmse == 0.0 else 1.0 / mean_nmse
            rows.append(
                SweepRow(
                    mechanism=mech,
                    chunk_size=c,
                    epsilon=e,
                    mean_utility=mean_util,
                    mean_nmse=mean_nmse,
                    runs=runs,
                    flagged_rows=flagged,
                )
            )
    return UtilitySweep(rows=tuple(rows))
