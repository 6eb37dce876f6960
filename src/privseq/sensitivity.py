"""Pairwise query sensitivity over participant groups.

The sensitivity of a feature within a group of recordings is the
maximum L_w distance between any two participants' observation vectors,
after zero-padding every vector to the group's maximum length. Chunked
variants restrict the padded vectors to each chunk range first;
difference-domain variants apply the within-chunk difference transform
before measuring distances. Groups holding a NaN or infinite value are
rejected: NaN never compares greater than a running maximum, so it
would silently lower the result.

Each distance is math.fsum of its IEEE-rounded terms |x_i - y_i|^w, the
correctly rounded value of their exact real sum, so results are
bit-for-bit reproducible and independent of accumulation order. fsum
runs only on the pairs that can hold a chunk's maximum:

  - numpy forms the same terms for every pair (b - a rounds to exactly
    -(a - b)) and sums each chunk in its own order;
  - for L non-negative terms any float sum A lies within
    gamma = (L-1)u / (1 - (L-1)u), u = 2**-53, of the exact sum S:
    |A - S| <= gamma * S (Higham, Accuracy and Stability of Numerical
    Algorithms, section 4.2);
  - so the exact maximum S* has A >= S*(1 - gamma) and no A exceeds
    S*(1 + gamma): its pair is among those with A >= max A (1-gamma)/(1+gamma).

The cut multiplies max A by 1 - 2 gamma, with gamma taken for L + 1
terms instead of L - 1: that lies below (1-gamma)/(1+gamma) by more
than the rounding of the cut itself. fsum of those candidates gives the
exhaustive result. A chunk whose largest A is 0 has only zero terms and
returns 0.0; one whose largest A overflowed falls back to every pair.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from privseq.core import (
    ChunkPlan,
    Corpus,
    DataError,
    InsufficientGroupError,
    ParameterError,
    RealSeq,
    _csv_rows,
    chunk_plan,
)
from privseq.transform import diff_transform

__all__ = [
    "lw_distance",
    "chunk_sensitivities",
    "SensitivityTable",
    "build_group_table",
    "write_sensitivity_tables",
    "load_sensitivity_tables",
    "RAW",
    "DIFFERENCE",
]

RAW = "raw"
DIFFERENCE = "difference"

_CSV_HEADER = ("feature", "chunk", "domain", "norm", "value", "group", "chunk_size", "length")


def lw_distance(x: RealSeq, y: RealSeq, w: int) -> float:
    """(sum_i |x_i - y_i|^w)^(1/w) for w in {1, 2}."""
    if w not in (1, 2):
        raise ParameterError(f"norm order must be 1 or 2, got {w}")
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(y, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1:
        raise ParameterError("lw_distance expects 1-D sequences")
    if a.shape != b.shape:
        raise ParameterError(f"length mismatch: {a.size} vs {b.size}")
    d = np.abs(a - b)
    if w == 1:
        return math.fsum(d)
    return math.sqrt(math.fsum(d * d))


def _padded_group(group: Sequence[RealSeq]) -> np.ndarray:
    vecs = [np.asarray(v, dtype=np.float64) for v in group]
    if len(vecs) < 2:
        raise InsufficientGroupError(
            f"sensitivity needs at least 2 vectors, got {len(vecs)}"
        )
    for i, v in enumerate(vecs):
        if v.ndim != 1 or v.size < 1:
            raise ParameterError("group vectors must be non-empty and 1-D")
        if not np.isfinite(v).all():
            raise ParameterError(f"group vector {i} holds a non-finite value")
    n = max(v.size for v in vecs)
    padded = np.zeros((len(vecs), n), dtype=np.float64)
    for i, v in enumerate(vecs):
        padded[i, : v.size] = v
    return padded


def _gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u), u = 2**-53 (Higham, section 3.1)."""
    nu = n * 2.0**-53
    return nu / (1.0 - nu)


def _pairwise_maxima(rows: np.ndarray, starts: Sequence[int], w: int) -> list[float]:
    """Max lw_distance over row pairs, per chunk [starts[c], starts[c + 1]).

    A numpy pass sums the pairs of one row at a time approximately, per
    chunk, and keeps a running maximum per chunk. Pairs that reach the
    cut below that maximum are collected; the collection is pruned
    against the grown maximum whenever it has more than doubled, so
    memory holds the rows, one row's sums and the pairs near a maximum,
    not every (pair, chunk) sum. lw_distance then runs only on the pairs
    whose approximate sum can still be the exact maximum, which keeps
    the result bitwise equal to the exhaustive loop.
    """
    m, n = rows.shape
    ends = [*starts[1:], n]
    keep = 1.0 - 2.0 * _gamma(max(e - s for s, e in zip(starts, ends)) + 1)
    buf = np.empty((m - 1, n), dtype=np.float64)
    approx = np.empty((m - 1, len(starts)), dtype=np.float64)
    index = np.asarray(starts, dtype=np.intp)
    top = np.zeros(len(starts), dtype=np.float64)
    # (row i, row j, chunk) columns and approximate sums; zero sums never win
    found, found_sums = [np.empty((3, 0), dtype=np.intp)], [np.empty(0)]
    stored = kept = 0
    for i in range(m - 1):
        terms, sums = buf[: m - 1 - i], approx[: m - 1 - i]
        np.subtract(rows[i + 1 :], rows[i], out=terms)
        if w == 1:
            np.abs(terms, out=terms)
        else:
            np.multiply(terms, terms, out=terms)
        np.add.reduceat(terms, index, axis=1, out=sums)
        np.maximum(top, sums.max(axis=0), out=top)
        cut = np.maximum(top * keep, np.finfo(np.float64).smallest_subnormal)
        j, c = np.nonzero(sums >= cut)
        found.append(np.stack((np.full(j.size, i), j + i + 1, c)))
        found_sums.append(sums[j, c])
        stored += j.size
        if stored > 2 * kept + m or i == m - 2:
            cand, cand_sums = np.concatenate(found, axis=1), np.concatenate(found_sums)
            held = cand_sums >= cut[cand[2]]
            found, found_sums = [cand[:, held]], [cand_sums[held]]
            stored = kept = found_sums[0].size
    (first, second, chunk), = found
    out: list[float] = []
    for c, (s, e) in enumerate(zip(starts, ends)):
        if top[c] == 0.0:
            out.append(0.0)
            continue
        if math.isfinite(top[c]):
            pairs = zip(first[chunk == c], second[chunk == c])
        else:  # an approximate sum overflowed: no bound applies
            pairs = zip(*np.triu_indices(m, 1))
        out.append(max(lw_distance(rows[a, s:e], rows[b, s:e], w) for a, b in pairs))
    return out


def chunk_sensitivities(
    group: Sequence[RealSeq], plan: ChunkPlan, w: int, domain: str = RAW
) -> list[float]:
    """Per-chunk sensitivity of the group under the given plan.

    Each padded vector is restricted to the chunk range; in the
    difference domain the within-chunk difference transform (first
    element preserved) is applied before measuring distances.
    """
    if w not in (1, 2):
        raise ParameterError(f"norm order must be 1 or 2, got {w}")
    if domain not in (RAW, DIFFERENCE):
        raise ParameterError(f"domain must be {RAW!r} or {DIFFERENCE!r}, got {domain!r}")
    padded = _padded_group(group)
    if plan.total_length != padded.shape[1]:
        raise ParameterError(
            f"plan covers {plan.total_length} samples but the padded group "
            f"has {padded.shape[1]}"
        )
    starts = [s for s, _ in plan.boundaries]
    if domain == DIFFERENCE:
        diffs = diff_transform(padded)
        diffs[:, starts] = padded[:, starts]
        padded = diffs
    return _pairwise_maxima(padded, starts, w)


@dataclass(frozen=True, slots=True)
class SensitivityTable:
    """Flat sensitivity lookup for one participant group.

    Keys are (feature_name, chunk_index, domain, norm_order); values are
    the group sensitivities. The chunk indices are only meaningful against
    the chunking plan the table was built for, which plan records; a
    table without a plan cannot be written or supplied to perturbation.
    """

    entries: Mapping[tuple[str, int, str, int], float]
    group_label: str = ""
    plan: ChunkPlan | None = None

    def __post_init__(self) -> None:
        checked: dict[tuple[str, int, str, int], float] = {}
        for key, value in dict(self.entries).items():
            feature, chunk, domain, norm = key
            if chunk < 0:
                raise ParameterError(f"negative chunk index in key {key}")
            if self.plan is not None and chunk >= len(self.plan):
                raise ParameterError(
                    f"chunk index in key {key} is outside the {len(self.plan)}-chunk plan"
                )
            if domain not in (RAW, DIFFERENCE):
                raise ParameterError(f"unknown domain in key {key}")
            if norm not in (1, 2):
                raise ParameterError(f"unknown norm order in key {key}")
            v = float(value)
            if not (v >= 0.0 and math.isfinite(v)):
                raise ParameterError(f"sensitivity for {key} must be finite and >= 0, got {v}")
            checked[(str(feature), int(chunk), domain, int(norm))] = v
        object.__setattr__(self, "entries", checked)

    def value(self, feature: str, chunk: int, domain: str, norm: int) -> float:
        key = (feature, chunk, domain, norm)
        if key not in self.entries:
            raise ParameterError(f"no sensitivity entry for {key} (group {self.group_label!r})")
        return self.entries[key]


def build_group_table(
    corpus: Corpus,
    label_kind: str,
    label_value: str,
    plan: ChunkPlan,
    norms: Iterable[int] = (1, 2),
    domains: Iterable[str] = (RAW, DIFFERENCE),
) -> SensitivityTable:
    """Sensitivity table for one (label value) participant group.

    Groups are formed per (label value, feature): for each feature the
    group consists of that feature's signal from every recording with
    the label. Excluded features get explicit zero entries so lookups
    stay total while mechanisms skip them.
    """
    matrices = corpus.group(label_kind, label_value)
    if len(matrices) < 2:
        raise InsufficientGroupError(
            f"label {label_value!r} has {len(matrices)} recordings; need >= 2"
        )
    entries: dict[tuple[str, int, str, int], float] = {}
    n_chunks = len(plan)
    for feature in corpus.schema:
        excluded = feature in corpus.excluded_features
        group = None if excluded else [m.column(feature) for m in matrices]
        for norm in norms:
            for domain in domains:
                if excluded:
                    values = [0.0] * n_chunks
                else:
                    values = chunk_sensitivities(group, plan, norm, domain)
                for ci, v in enumerate(values):
                    entries[(feature, ci, domain, norm)] = v
    return SensitivityTable(entries=entries, group_label=label_value, plan=plan)


def write_sensitivity_tables(tables: Mapping[str, SensitivityTable], path) -> None:
    """All groups of a corpus in one CSV (feature, chunk, domain, norm,
    value, group, chunk_size, length), rows sorted by group then key."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for label in sorted(tables):
            plan = tables[label].plan
            if plan is None:
                raise ParameterError(f"sensitivity table for group {label!r} records no chunk plan")
            entries = tables[label].entries
            for key in sorted(entries):
                writer.writerow(
                    [*key, repr(entries[key]), label, plan.chunk_size, plan.total_length]
                )


def load_sensitivity_tables(path) -> dict[str, SensitivityTable]:
    """Group-keyed inverse of write_sensitivity_tables, validating every
    cell; all rows of a group must name one chunk plan."""
    entries: dict[str, dict[tuple[str, int, str, int], float]] = {}
    shapes: dict[str, tuple[int, int]] = {}
    for row_no, row in _csv_rows(path, _CSV_HEADER):
        feature, chunk_s, domain, norm_s, value_s, group, size_s, length_s = row
        try:
            key = (feature, int(chunk_s), domain, int(norm_s))
            value = float(value_s)
            shape = (int(size_s), int(length_s))
        except ValueError as exc:
            raise DataError(f"{path}: row {row_no}: {exc}") from None
        if shapes.setdefault(group, shape) != shape:
            raise DataError(
                f"{path}: group {group!r} rows name chunk plans {shapes[group]} and {shape} "
                "(chunk_size, length)"
            )
        entries.setdefault(group, {})[key] = value
    if not entries:
        raise DataError(f"{path}: no entries")
    try:
        return {
            label: SensitivityTable(
                entries=table,
                group_label=label,
                plan=chunk_plan(shapes[label][1], shapes[label][0]),
            )
            for label, table in entries.items()
        }
    except ParameterError as exc:
        raise DataError(f"{path}: {exc}") from None
