"""Retention tuning: pick how many spectral coefficients to keep.

Keeping more coefficients lowers truncation error but spreads the
privacy budget over more noisy values; the best cut depends on the
budget and on how compressible the signals are. tune_k evaluates every
candidate retention count against reconstruction error on a reference
group and keeps the winner per chunk, with ties resolved toward the
smaller (cheaper) count.

Candidates are scored on the releases the mechanisms make, A_k + lam_k
* B_k at the scales mechanisms._unit_scales decides, on the chunk plan
the mechanism releases with (fpa's whole signal included). Each
(signal, run) reads one unit-noise vector from stream src.derive(signal,
run), the vector an fpa, cfpa or dcfpa call on that stream reads. Bin j's
noise sits at a fixed place in it (mechanisms.FpaLayout), so the noise of
k retained bins is a prefix of that of k + 1, and so are the clean and
the noise parts A_k and B_k of the release: running sums over bins of
each bin's time-domain contribution. One forward transform per block of
signals then scores every k without an inverse transform; the scores
equal those of the mechanisms' own releases up to rounding, and the
comparison is not dominated by draw luck.
"""
from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from privseq.core import (
    ChunkPlan,
    Corpus,
    DataError,
    ParameterError,
    RealSeq,
    chunk_plan,
)
from privseq.mechanisms import (
    BLOCK_VALUES,
    FpaLayout,
    MechanismConfig,
    _noise_pairs,
    _uniform_blocks,
    _unit_scales,
    fpa_spectra,
)
from privseq.metrics import _nmse_ratio
from privseq.noise import NoiseSource, unit_laplace
from privseq.sensitivity import DIFFERENCE, RAW, chunk_sensitivities

__all__ = [
    "tune_k",
    "tune_corpus",
    "KTable",
    "write_k_csv",
    "load_k_csv",
]

_K_HEADER = (
    "group_label", "feature", "chunk_index", "k", "runs_used", "epsilon_used", "chunk_size", "length",
    "mechanism",
)
_TUNABLE = ("fpa", "cfpa", "dcfpa")


def tune_k(
    signals: Sequence[RealSeq],
    plan: ChunkPlan,
    mechanism: str,
    epsilon: float,
    runs: int,
    src: NoiseSource,
) -> tuple[int, ...]:
    """Best retention count per chunk for a group of same-length signals.

    Every k in 1..chunk_length is scored by mean reconstruction NMSE
    over (signal, run) noisy executions at the given budget; ties go to
    the smaller k. The group also supplies the sensitivity, so it must
    contain at least two signals. Candidate k is evaluated for every
    chunk at once (a shorter remainder at min(k, its length)), run t of
    member m on stream src.derive(m, t), every k of a block of members in
    one pass over its bins (_prefix_scores).
    """
    if mechanism not in _TUNABLE:
        raise ParameterError(
            f"retention tuning applies to fpa, cfpa or dcfpa, got {mechanism!r}"
        )
    if runs < 1:
        raise ParameterError(f"runs must be >= 1, got {runs}")
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ParameterError(f"epsilon must be positive and finite, got {epsilon}")
    rows = [np.asarray(s, dtype=np.float64) for s in signals]
    if len(rows) < 2:
        raise ParameterError(f"tuning needs a group of >= 2 signals, got {len(rows)}")
    n = plan.total_length
    for row in rows:
        if row.ndim != 1 or row.size != n:
            raise ParameterError(f"every signal must be 1-D of length {n}")
    difference = mechanism == "dcfpa"
    domain = DIFFERENCE if difference else RAW
    deltas = chunk_sensitivities(rows, plan, 2, domain=domain)
    lengths = np.asarray(plan.chunk_lengths())
    longest = int(lengths.max())
    # lams[k - 1, i]: chunk i's scale at k (capped at the chunk's length).
    lams = np.stack([
        _unit_scales(FpaLayout(plan, np.minimum(k, lengths)), deltas, epsilon)
        for k in range(1, longest + 1)
    ])
    totals = np.zeros((longest, len(plan)))
    counts = np.zeros((longest, len(plan)), dtype=np.int64)
    stacked = np.stack(rows)
    step = max(1, BLOCK_VALUES // ((runs + 1) * n))
    for lo in range(0, len(rows), step):
        block = stacked[lo : lo + step]
        members = block.shape[0]
        streams = itertools.product(range(lo, lo + members), range(runs))
        draws = np.stack([unit_laplace(src.derive(m, t).generator(), 2 * n) for m, t in streams])
        pairs = _noise_pairs(draws, n).reshape(members, runs, n)
        spectra = fpa_spectra(block, plan, difference)
        for spec, (first, count, c, start) in zip(spectra, _uniform_blocks(plan)):
            span = slice(start, start + count * c)
            x = block[:, span].reshape(members, count, c)
            unit = pairs[:, :, span].reshape(members, runs, count, c)
            chunks = slice(first, first + count)
            total, valid = _prefix_scores(x, spec, unit, lams[:c, chunks], difference)
            totals[:c, chunks] += total
            counts[:c, chunks] += valid
    # Candidates whose every cell is flagged, and counts beyond a chunk's
    # length, score infinity; argmin keeps the smallest k among ties.
    scores = np.divide(totals, counts, out=np.full_like(totals, math.inf), where=counts > 0)
    scores[np.arange(1, longest + 1)[:, np.newaxis] > lengths] = math.inf
    return tuple(int(i) + 1 for i in np.argmin(scores, axis=0))


def _basis(c: int, bins: slice, difference: bool) -> np.ndarray:
    """The real form of the basis e^{2 pi i j t / c} / c for the bins j of
    the slice and t in 0..c-1, (bins, 2, c): Re(z e^{...}) / c is
    [Re z, Im z] @ basis[j]. j * t is reduced mod c before scaling, so
    large products keep their precision. difference takes the running
    sum along t, the basis of a differenced chunk's release."""
    j = np.arange(bins.start, bins.stop)[:, np.newaxis]
    angle = (2.0 * math.pi / c) * ((j * np.arange(c)) % c)
    basis = np.stack([np.cos(angle), -np.sin(angle)], axis=1) / c
    return np.cumsum(basis, axis=-1) if difference else basis


def _prefix_scores(
    x: np.ndarray,
    spec: np.ndarray,
    unit: np.ndarray,
    lams: np.ndarray,
    difference: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """(sum of valid NMSE cells, valid count) over members and runs of
    every candidate k = 1..c of a run of equal-length chunks, (c, count)
    each.

    x (members, count, c) holds the clean chunks, spec their spectra,
    unit (members, runs, count, c) the complex unit noise of each bin and
    lams (c, count) each chunk's scale at every k. The release at k is
    A_k + lam_k * B_k, where A_k and B_k sum the time-domain contributions
    (_basis) of the first k bins of spec and of unit. Both are running
    sums over bins, taken bins first and in slabs of bins so that no work
    array holds more than about BLOCK_VALUES values per member."""
    members, runs, count, c = unit.shape
    slab = max(1, min(c, BLOCK_VALUES // ((runs + 1) * count * c)))
    spec = np.ascontiguousarray(np.moveaxis(spec, -1, 0)[:, :, np.newaxis])
    unit = np.ascontiguousarray(np.moveaxis(unit, -1, 0))
    x_mean = x.mean(axis=-1)[:, np.newaxis]
    clean = np.zeros((members, 1, count, c))
    noise = np.zeros((members, runs, count, c))
    total = np.zeros((c, count))
    valid = np.zeros((c, count), dtype=np.int64)
    for lo in range(0, c, slab):
        bins = slice(lo, min(lo + slab, c))
        basis = _basis(c, bins, difference)
        a = _running_sum(_contributions(spec[bins], basis), clean)
        b = _running_sum(_contributions(unit[bins], basis), noise)
        clean, noise = a[-1].copy(), b[-1].copy()
        # Release minus signal, for every (k, member, run, chunk, t).
        a -= x[:, np.newaxis]
        b *= lams[bins, np.newaxis, np.newaxis, :, np.newaxis]
        b += a
        num = np.einsum("...t,...t->...", b, b) / c
        values, ok = _nmse_ratio(num, x_mean * (b.mean(axis=-1) + x_mean))
        total[bins] += np.sum(values, axis=(1, 2), where=ok)
        valid[bins] += np.count_nonzero(ok, axis=(1, 2))
    return total, valid


def _contributions(coef: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Re(coef_j * basis_j[t]) for contiguous bins-first complex
    coefficients (bins, ...): the time-domain contribution of each bin,
    (bins, ..., c), one matrix product per bin."""
    pairs = coef.view(np.float64).reshape(coef.shape[0], -1, 2)
    return np.matmul(pairs, basis).reshape(coef.shape + basis.shape[-1:])


def _running_sum(parts: np.ndarray, carry: np.ndarray) -> np.ndarray:
    """In place, parts[j] = carry + parts[0] + ... + parts[j] along the
    first axis; one vector add per bin, which numpy's cumsum along an
    outer axis runs several times slower."""
    parts[0] += carry
    for j in range(1, parts.shape[0]):
        parts[j] += parts[j - 1]
    return parts


@dataclass(frozen=True, slots=True)
class KTable:
    """Tuned retention counts keyed by (group label, feature, chunk).

    Chunk indices and counts only mean something against the mechanism
    they were tuned for (fpa, cfpa or dcfpa) and the chunk plan each group
    was tuned on, which plans records per group label.
    """

    entries: Mapping[tuple[str, str, int], int]
    runs_used: int
    epsilon_used: float
    plans: Mapping[str, ChunkPlan]
    mechanism: str

    def __post_init__(self) -> None:
        if self.mechanism not in _TUNABLE:
            raise ParameterError(
                f"k table mechanism must be one of {', '.join(_TUNABLE)}, got {self.mechanism!r}"
            )
        frozen = {}
        for key, k in dict(self.entries).items():
            label, feature, ci = key
            if int(k) < 1 or int(ci) < 0:
                raise ParameterError(f"bad k table entry {key} -> {k}")
            frozen[(str(label), str(feature), int(ci))] = int(k)
        object.__setattr__(self, "entries", frozen)
        plans = dict(self.plans)
        labels = {label for label, _, _ in frozen}
        if set(plans) != labels:
            raise ParameterError(
                f"k table plans name groups {sorted(plans)}, its entries {sorted(labels)}"
            )
        for label, feature, ci in frozen:
            if ci >= len(plans[label]):
                raise ParameterError(
                    f"chunk index in k table key {(label, feature, ci)} is outside the "
                    f"{len(plans[label])}-chunk plan"
                )
        object.__setattr__(self, "plans", plans)
        if self.runs_used < 1:
            raise ParameterError(f"runs_used must be >= 1, got {self.runs_used}")
        if not self.epsilon_used > 0:
            raise ParameterError(f"epsilon_used must be positive, got {self.epsilon_used}")

    def mapping(self, group_label: str) -> dict[tuple[str, int], int]:
        """{(feature, chunk_index): k} for one group, the form the sweep
        and report builders consume."""
        out = {
            (feature, ci): k
            for (label, feature, ci), k in self.entries.items()
            if label == group_label
        }
        if not out:
            raise ParameterError(f"no tuned entries for group {group_label!r}")
        return out


def tune_corpus(
    corpus: Corpus,
    label_kind: str,
    chunk_size: int | None,
    mechanism: str,
    epsilon: float,
    runs: int,
    src: NoiseSource,
) -> KTable:
    """Tune every (label group, feature, chunk) of a corpus at one
    reference budget, on the chunk plan the mechanism releases the group
    with (fpa's whole signal, whatever chunk_size says; cfpa and dcfpa
    need a chunk_size). The table records the mechanism. Shorter
    recordings are zero-padded to the group maximum, mirroring how the
    mechanisms are applied."""
    config = MechanismConfig(mechanism, epsilon, chunk_size)
    entries: dict[tuple[str, str, int], int] = {}
    plans: dict[str, ChunkPlan] = {}
    labels = corpus.label_values(label_kind)
    for li, label in enumerate(labels):
        group = corpus.group(label_kind, label)
        length = max(m.length for m in group)
        plan = config.plan_for(length)
        for col, feature in enumerate(corpus.schema):
            if feature in corpus.excluded_features:
                continue
            signals = []
            for m in group:
                padded = np.zeros(length, dtype=np.float64)
                padded[: m.length] = m.values[:, col]
                signals.append(padded)
            ks = tune_k(signals, plan, mechanism, epsilon, runs, src.derive(li, col))
            for ci, k in enumerate(ks):
                entries[(label, feature, ci)] = k
            plans[label] = plan
    return KTable(
        entries=entries, runs_used=runs, epsilon_used=float(epsilon), plans=plans,
        mechanism=mechanism,
    )


def write_k_csv(table: KTable, path) -> None:
    """Serialize to the flat CSV shape (group_label, feature, chunk_index,
    k, runs_used, epsilon_used, chunk_size, length, mechanism)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_K_HEADER)
        for (label, feature, ci), k in sorted(table.entries.items()):
            plan = table.plans[label]
            writer.writerow(
                [label, feature, ci, k, table.runs_used, repr(table.epsilon_used),
                 plan.chunk_size, plan.total_length, table.mechanism]
            )


def load_k_csv(path) -> KTable:
    """Inverse of write_k_csv, validating every cell; all rows of a group
    must name one chunk plan, and all rows one mechanism."""
    entries: dict[tuple[str, str, int], int] = {}
    shapes: dict[str, tuple[int, int]] = {}
    runs_used: int | None = None
    epsilon_used: float | None = None
    mechanism: str | None = None
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != _K_HEADER:
            raise DataError(f"{path}: expected header {','.join(_K_HEADER)}")
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(_K_HEADER):
                raise DataError(f"{path}: row {row_no}: wrong column count")
            try:
                key = (row[0], row[1], int(row[2]))
                k = int(row[3])
                runs = int(row[4])
                eps = float(row[5])
                shape = (int(row[6]), int(row[7]))
            except ValueError as exc:
                raise DataError(f"{path}: row {row_no}: {exc}") from None
            if shapes.setdefault(key[0], shape) != shape:
                raise DataError(
                    f"{path}: row {row_no}: group {key[0]!r} rows name chunk plans "
                    f"{shapes[key[0]]} and {shape} (chunk_size, length)"
                )
            if key in entries:
                raise DataError(f"{path}: row {row_no}: duplicate entry for {key}")
            if runs_used is None:
                runs_used, epsilon_used, mechanism = runs, eps, row[8]
            elif runs != runs_used or eps != epsilon_used or row[8] != mechanism:
                raise DataError(
                    f"{path}: row {row_no}: inconsistent runs_used/epsilon_used/mechanism"
                )
            entries[key] = k
    if not entries:
        raise DataError(f"{path}: no entries")
    try:
        plans = {label: chunk_plan(length, size) for label, (size, length) in shapes.items()}
        return KTable(
            entries=entries, runs_used=runs_used, epsilon_used=epsilon_used, plans=plans,
            mechanism=mechanism,
        )
    except ParameterError as exc:
        raise DataError(f"{path}: {exc}") from None
