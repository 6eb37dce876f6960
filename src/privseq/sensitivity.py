"""Pairwise query sensitivity over participant groups.

The sensitivity of a feature within a group of recordings is the
maximum L_w distance between any two participants' observation vectors,
after zero-padding every vector to the group's maximum length. Chunked
variants restrict the padded vectors to each chunk range first;
difference-domain variants apply the within-chunk difference transform
before measuring distances. Groups holding a NaN or infinite value are
rejected: NaN never compares greater than a running maximum, so it
would silently lower the result.

Each distance is math.fsum of its IEEE-rounded terms, the correctly
rounded value of their exact real sum S, so results are bit-for-bit
reproducible and independent of accumulation order. The L1 terms are
|x_t - y_t|; the L2 terms are the squares of d_t 2**-e, d_t =
fl(x_t - y_t) and e the exponent of max |d_t|, and S is their sum times
2**2e. Powers of two commute with rounding in the normal range, so the
root of the fsum, scaled back by 2**e, is a rounding of the rounded
root of the rounded S whatever e is, and equals sqrt(fsum(fl(d_t**2)))
where none of those squares under- or overflows. fsum runs only on
candidate pairs: a filter must keep, per chunk of length L, a pair
whose S is the chunk's maximum S*; fsum of the candidates then gives
the exhaustive result. Below, u = 2**-53, eta = 2**-1074 (the
smallest subnormal) and gamma_n = n u / (1 - n u) (Higham, Accuracy and
Stability of Numerical Algorithms, section 3.1).

L1: a row loop.

  - numpy forms the same terms for every pair (b - a rounds to exactly
    -(a - b)) and sums each chunk in its own order;
  - for L non-negative terms any float sum A lies within
    gamma_(L-1) S of the exact sum S (Higham, section 4.2);
  - so the exact maximum S* has A >= S*(1 - gamma) and no A exceeds
    S*(1 + gamma): its pair is among those with A >= max A (1-gamma)/(1+gamma).

The cut multiplies max A by 1 - 2 gamma, with gamma taken for L + 1
terms instead of L - 1: that lies below (1-gamma)/(1+gamma) by more
than the rounding of the cut itself. A chunk whose largest A is 0 has
only zero terms and no candidates; one whose largest A overflowed
falls back to every pair.

L2: Gram products. Every operation is an IEEE double operation with
gradual underflow: it returns z(1 + d) + e with |d| <= u, |e| <= eta/2,
and e = 0 for a sum or difference of two doubles (a subnormal result is
exact). A dot product of length K evaluated in any order (blocked,
threaded, vectorised, with or without fused multiply-adds, as any BLAS
does) passes each product through at most K roundings and makes at most
2K - 1 underflow errors, so it lies within gamma_K sum |a_t b_t| + 2 K eta
of the exact value (Higham, section 3.1, plus the underflow term). So
the result cannot depend on the BLAS build or its thread count.

  - Centering: y_i = fl(x_i - r) for any float vector r (the column
    mean). Let Q_i = ||y_i||^2 exactly and R = Q_i + Q_j.
  - q_i is y_i . y_i computed in some order, |q_i - Q_i| <= gamma_L Q_i
    + 2 L eta. A_ij is one dot product of length L + 2, (y_i, q_i, 1) .
    (-2 y_j, 1, q_j), exactly q_i + q_j - 2 y_i . y_j; its terms sum in
    magnitude to at most R + q_i + q_j (Cauchy-Schwarz), so A_ij lies
    within gamma_(3L+4) R + 10 L eta of ||y_i - y_j||^2.
  - Rounding in the centering: (y_i - y_j) - (x_i - x_j) has norm at
    most gamma_1 (sqrt Q_i + sqrt Q_j) <= gamma_1 sqrt(2R), so
    ||y_i - y_j||^2 and T = ||x_i - x_j||^2 differ by at most
    2 gamma_2 R <= gamma_4 R.
  - fsum's terms: S_ij = 2**2e sum_t fl(fl(d_t 2**-e)^2). Scaled, each
    term is (x_it - x_jt)^2 (1 + d)^2 (1 + d') 2**-2e plus underflow
    errors of at most 2 eta, as |d_t 2**-e| < 1; as 2**2e <= 4 (1 + u)^2 T,
    S_ij lies within gamma_3 T + 9 L eta T <= gamma_4 T of T, and with
    T <= 2 (1 + gamma_2) R within gamma_10 R.

So |A_ij - S_ij| <= gamma_(3L+18) R + 10 L eta. With q_max the chunk's
largest q, R <= (1 + gamma_(2L)) (2 q_max + 4 L eta) turns this into one
bound for the whole chunk, E_true = gamma_(5L+18) 2 q_max + 11 L eta,
which holds for i = j and for i > j too. The code takes
E = gamma_(5L+24) 2 q_max + 16 L eta in floats. Its excess over E_true,
more than 5.9 u 2 q_max + 4 L eta, exceeds the rounding of each step of
the cut (max A - E) - E, as |A| <= 4.1 q_max + 20 L eta. So max A - E,
rounded, lies below the S of the pair holding max A, hence below S*,
and the cut lies below S* - E_true, which A of the maximal pair reaches.
Keeping the pairs i < j whose A reaches the cut, that is whose upper
bound A + E reaches the largest lower bound max A - E, keeps that pair.
The bounds assume L < 2**40. A chunk where some A or E is not finite
(an overflow; inf and NaN absorb every later operation) falls back to
every pair, and a chunk whose rows are all equal has maximum 0 and no
candidates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from privseq.core import (
    ChunkPlan,
    Corpus,
    ParameterError,
    RealSeq,
)
from privseq.transform import diff_transform

__all__ = [
    "chunk_sensitivities",
    "SensitivityTable",
    "build_group_table",
    "RAW",
    "DIFFERENCE",
]

RAW = "raw"
DIFFERENCE = "difference"


def _padded_group(group: Sequence[RealSeq]) -> np.ndarray:
    vecs = [np.asarray(v, dtype=np.float64) for v in group]
    if len(vecs) < 2:
        raise ParameterError(
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


# _l2_candidates' working set. A batch of chunks holds about
# _GRAM_VALUES values in its (chunks, m, m) stack, or one chunk's m x m,
# and one matrix product takes at most _PRODUCT_TERMS multiply-adds: a
# chunk too long for that goes in column slabs, a group too large in row
# tiles. OpenBLAS runs a product of up to 2**19 terms on the calling
# thread; a larger one wakes worker threads, which then spin beside the
# interpreter (1.9 CPU seconds per wall second on 2 cores) or, on a busy
# host, stall the product (3.4 ms against 25 us, seen at 525,600 terms).
_GRAM_VALUES = 1 << 16
_PRODUCT_TERMS = 1 << 18
# _pairwise_maxima's batch of pair differences; .tolist() boxes each value
# in a Python float of 24 bytes, so batches stay small.
_PAIR_VALUES = 1 << 12


def _gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u), u = 2**-53 (Higham, section 3.1)."""
    nu = n * 2.0**-53
    return nu / (1.0 - nu)


def _pairwise_maxima(rows: np.ndarray, starts: Sequence[int], w: int) -> list[float]:
    """Max L_w distance over row pairs, per chunk [starts[c], starts[c + 1]).

    Distances are taken only for the candidate pairs of each chunk,
    those whose exact sum can still be the chunk's maximum, which keeps
    the result bitwise equal to the exhaustive loop; a chunk without
    candidates has only zero distances. The candidates of all chunks of
    one length go through numpy together, in batches of about
    _PAIR_VALUES differences, leaving one math.fsum per pair.
    """
    n = rows.shape[1]
    bounds = np.asarray([*starts, n])
    candidates = _l2_candidates(rows, starts) if w == 2 else _l1_candidates(rows, starts)
    chunk = np.concatenate([np.full(len(a), c) for c, (a, _) in enumerate(candidates)])
    first = np.concatenate([a for a, _ in candidates])
    second = np.concatenate([b for _, b in candidates])
    lengths = np.diff(bounds)
    length = lengths[chunk]
    best = np.zeros(len(starts))
    for size in set(lengths.tolist()):
        pairs = np.flatnonzero(length == size)
        step = max(1, _PAIR_VALUES // size)
        for lo in range(0, pairs.size, step):
            p = pairs[lo : lo + step]
            cols = bounds[chunk[p], None] + np.arange(size)
            d = np.abs(rows[first[p, None], cols] - rows[second[p, None], cols])
            np.maximum.at(best, chunk[p], _distances(d, w))
    return best.tolist()


def _distances(d: np.ndarray, w: int) -> np.ndarray:
    """The L_w norm of each row of d = |x - y|, each one math.fsum of its
    terms; for w = 2 a row is scaled by 2**-e, e the exponent of its
    largest term, before squaring, so no square hides a difference by
    underflowing (see the module docstring)."""
    if w == 1:
        return np.array([math.fsum(terms) for terms in d.tolist()])
    e = np.frexp(d.max(axis=1))[1]
    d = np.ldexp(d, -e[:, None])
    return np.ldexp([math.sqrt(math.fsum(terms)) for terms in (d * d).tolist()], e)


def _l1_candidates(rows: np.ndarray, starts: Sequence[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per chunk, the (first, second) row pairs that can hold its L1 maximum.

    A numpy pass sums the pairs of one row at a time approximately, per
    chunk, and keeps a running maximum per chunk. Pairs that reach the
    cut below that maximum are collected; the collection is pruned
    against the grown maximum whenever it has more than doubled, so
    memory holds the rows, one row's sums and the pairs near a maximum,
    not every (pair, chunk) sum.
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
        np.abs(terms, out=terms)
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
    every = np.triu_indices(m, 1)
    # an approximate sum that overflowed bounds nothing
    return [
        (first[chunk == c], second[chunk == c]) if math.isfinite(t) else every
        for c, t in enumerate(top)
    ]


def _l2_candidates(rows: np.ndarray, starts: Sequence[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per chunk, the (first, second) row pairs that can hold its L2 maximum.

    Runs of equal-length chunks go through in batches of whole chunks,
    centered on the column mean; one batched matmul of the rows
    (y_i, q_i, 1) and (-2 y_j, 1, q_j) gives every A of the batch (see
    the module docstring). A chunk too long for one product goes in
    column slabs whose products are summed, the last slab carrying the
    q columns, and a large group in tiles of rows of A.
    """
    m, n = rows.shape
    bounds = [*starts, n]
    lengths = np.diff(bounds)
    varies = np.logical_or.reduceat(rows.max(axis=0) != rows.min(axis=0), starts)
    out: list[tuple[np.ndarray, np.ndarray]] = []
    with np.errstate(over="ignore", invalid="ignore"):
        ref = rows.mean(axis=0)
        c = 0
        while c < len(starts):
            length = int(lengths[c])
            width = min(length, max(1, _PRODUCT_TERMS // m - 2))
            tile = min(m, max(1, _PRODUCT_TERMS // (m * (width + 2))))
            per_batch = max(1, _GRAM_VALUES // (m * max(m, width + 2)))
            count = 1
            while count < per_batch and c + count < len(starts) and lengths[c + count] == length:
                count += 1
            x = rows[:, bounds[c] : bounds[c + count]].reshape(m, count, length)
            r = ref[bounds[c] : bounds[c + count]].reshape(count, length)
            left = np.empty((count, m, width + 2))
            right = np.empty((count, m, width + 2))
            approx = np.empty((count, m, m))
            q = 0.0
            for lo in range(0, length, width):
                w = min(width, length - lo)
                y = left[:, :, :w]
                np.subtract(x[:, :, lo : lo + w], r[:, lo : lo + w], out=y.transpose(1, 0, 2))
                np.multiply(y, -2.0, out=right[:, :, :w])
                q = q + np.einsum("bij,bij->bi", y, y)
                if lo + w == length:  # the last slab also carries q_i + q_j
                    left[:, :, w], left[:, :, w + 1] = q, 1.0
                    right[:, :, w], right[:, :, w + 1] = 1.0, q
                    w += 2
                rt = right[:, :, :w].transpose(0, 2, 1)
                for i in range(0, m, tile):
                    if lo == 0:
                        np.matmul(left[:, i : i + tile, :w], rt, out=approx[:, i : i + tile])
                    else:
                        approx[:, i : i + tile] += np.matmul(left[:, i : i + tile, :w], rt)
            bound = _gamma(5 * length + 24) * (2.0 * q.max(axis=1)) + length * 2.0**-1070
            cut = (approx.max(axis=(1, 2)) - bound) - bound
            finite = np.isfinite(cut) & np.isfinite(approx.min(axis=(1, 2)))
            held, first, second = np.unravel_index(
                np.flatnonzero(approx >= cut[:, None, None]), approx.shape
            )
            upper = first < second
            held, first, second = held[upper], first[upper], second[upper]
            split = np.searchsorted(held, np.arange(count + 1))
            for b in range(count):
                if not varies[c + b]:  # all rows equal: the maximum is 0
                    pairs = (first[:0], second[:0])
                elif not finite[b]:  # the Gram form overflowed: no bound applies
                    pairs = np.triu_indices(m, 1)
                else:
                    pairs = (first[split[b] : split[b + 1]], second[split[b] : split[b + 1]])
                out.append(pairs)
            c += count
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
    table without a plan cannot be supplied to perturbation.
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
    the label. A feature that is zero throughout the group gets
    sensitivity 0.0 in every chunk, so lookups of excluded features stay
    total while mechanisms skip them.
    """
    matrices = corpus.group(label_kind, label_value)
    if len(matrices) < 2:
        raise ParameterError(
            f"label {label_value!r} has {len(matrices)} recordings; need >= 2"
        )
    entries: dict[tuple[str, int, str, int], float] = {}
    for feature in corpus.schema:
        group = [m.column(feature) for m in matrices]
        for norm in norms:
            for domain in domains:
                for ci, v in enumerate(chunk_sensitivities(group, plan, norm, domain)):
                    entries[(feature, ci, domain, norm)] = v
    return SensitivityTable(entries=entries, group_label=label_value, plan=plan)

