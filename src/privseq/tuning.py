"""Retention tuning: pick how many spectral coefficients to keep.

Keeping more coefficients lowers truncation error but spreads the
privacy budget over more noisy values; the best cut depends on the
budget and on how compressible the signals are. tune_k evaluates every
candidate retention count against reconstruction error on a reference
group and keeps the winner per chunk, with ties resolved toward the
smaller (cheaper) count.

Candidates are scored on the mechanisms' own release step, S + lam * N
at the scales mechanisms._unit_scales decides, on the chunk plan the
mechanism releases with (fpa's whole signal included). Each
(signal, run) reads one unit-noise vector from stream src.derive(signal,
run), which every candidate hands to the core as is: a scored candidate
is bitwise the fpa, cfpa or dcfpa release on that stream at that k,
nearby candidates share part of their noise (mechanisms.FpaLayout), and
the comparison is not dominated by draw luck.
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
    MECHANISMS,
    FpaLayout,
    MechanismConfig,
    _release,
    _unit_scales,
    fpa_parts,
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
)


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
    chunk at once (a shorter remainder at min(k, its length)) through
    the mechanism core, run t of member m on stream src.derive(m, t).
    """
    if mechanism not in MECHANISMS or mechanism == "lpa":
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
    stacked = np.stack(rows)
    lengths = np.asarray(plan.chunk_lengths())
    starts = np.asarray([s for s, _ in plan.boundaries])
    longest = int(lengths.max())
    totals = np.zeros((longest, len(plan)))
    counts = np.zeros((longest, len(plan)), dtype=np.int64)
    step = max(1, BLOCK_VALUES // ((runs + 1) * n))
    for lo in range(0, len(rows), step):
        block = stacked[lo : lo + step]
        members = block.shape[0]
        streams = itertools.product(range(lo, lo + members), range(runs))
        draws = np.stack([unit_laplace(src.derive(m, t).generator(), 2 * n) for m, t in streams])
        spectra = fpa_spectra(block, plan, difference)
        means = np.add.reduceat(block, starts, axis=1)[:, np.newaxis, :] / lengths
        for k in range(1, longest + 1):
            layout = FpaLayout(plan, np.minimum(k, lengths))
            clean, unit = fpa_parts(spectra, layout, draws, difference)
            lams = _unit_scales(layout, deltas, epsilon)
            rec = _release(clean[:, np.newaxis, :], unit.reshape(members, runs, -1), layout, lams)
            d = rec - block[:, np.newaxis, :]
            num = np.add.reduceat(d * d, starts, axis=2) / lengths
            values, valid = _nmse_ratio(num, means * (np.add.reduceat(rec, starts, axis=2) / lengths))
            totals[k - 1] += np.sum(values, axis=(0, 1), where=valid)
            counts[k - 1] += np.count_nonzero(valid, axis=(0, 1))
    # Candidates whose every cell is flagged, and counts beyond a chunk's
    # length, score infinity; argmin keeps the smallest k among ties.
    scores = np.divide(totals, counts, out=np.full_like(totals, math.inf), where=counts > 0)
    scores[np.arange(1, longest + 1)[:, np.newaxis] > lengths] = math.inf
    return tuple(int(i) + 1 for i in np.argmin(scores, axis=0))


@dataclass(frozen=True, slots=True)
class KTable:
    """Tuned retention counts keyed by (group label, feature, chunk).

    Chunk indices and counts only mean something against the chunk plan
    each group was tuned for, which plans records per group label.
    """

    entries: Mapping[tuple[str, str, int], int]
    runs_used: int
    epsilon_used: float
    plans: Mapping[str, ChunkPlan]

    def __post_init__(self) -> None:
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
    chunk_size: int,
    mechanism: str,
    epsilon: float,
    runs: int,
    src: NoiseSource,
) -> KTable:
    """Tune every (label group, feature, chunk) of a corpus at one
    reference budget, on the chunk plan the mechanism releases the group
    with (fpa's whole signal, whatever chunk_size says). Shorter
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
    return KTable(entries=entries, runs_used=runs, epsilon_used=float(epsilon), plans=plans)


def write_k_csv(table: KTable, path) -> None:
    """Serialize to the flat CSV shape (group_label, feature, chunk_index,
    k, runs_used, epsilon_used, chunk_size, length)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_K_HEADER)
        for (label, feature, ci), k in sorted(table.entries.items()):
            plan = table.plans[label]
            writer.writerow(
                [label, feature, ci, k, table.runs_used, repr(table.epsilon_used),
                 plan.chunk_size, plan.total_length]
            )


def load_k_csv(path) -> KTable:
    """Inverse of write_k_csv, validating every cell; all rows of a group
    must name one chunk plan."""
    entries: dict[tuple[str, str, int], int] = {}
    shapes: dict[str, tuple[int, int]] = {}
    runs_used: int | None = None
    epsilon_used: float | None = None
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
                runs_used, epsilon_used = runs, eps
            elif runs != runs_used or eps != epsilon_used:
                raise DataError(
                    f"{path}: row {row_no}: inconsistent runs_used/epsilon_used"
                )
            entries[key] = k
    if not entries:
        raise DataError(f"{path}: no entries")
    try:
        plans = {label: chunk_plan(length, size) for label, (size, length) in shapes.items()}
        return KTable(
            entries=entries, runs_used=runs_used, epsilon_used=epsilon_used, plans=plans
        )
    except ParameterError as exc:
        raise DataError(f"{path}: {exc}") from None
