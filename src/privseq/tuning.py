"""Retention tuning: pick how many spectral coefficients to keep.

Keeping more coefficients lowers truncation error but spreads the
privacy budget over more noisy values; the best cut depends on the
budget and on how compressible the signals are. tune_corpus evaluates
every candidate retention count against reconstruction error on each
label group and keeps the winner per (group, feature, chunk), with ties
resolved toward the smaller (cheaper) count; tune_k is its one-group,
one-feature case. Nothing in the package calls tune_k: it stays public
because the benchmark's tracer (perfbench/tracer.py) binds it by name,
and goes when that binding does.

Tuning consumes the release driver of perturb_corpus and the sweep
(mechanisms._release_blocks): its groups, zero-padded row blocks, unit
draws and per-unit decision (_feature_units), whose sensitivities give
the scale of every (k, chunk) at once (_candidate_scales). The driver
runs at src.derive(TUNING_STREAM), so run t of recording r, feature f
reads stream src.derive(TUNING_STREAM, r, f, t), which no release under
src reads; bin j's noise N_j sits at a fixed place in it
(mechanisms.FpaLayout), whatever k is.

Scores come from the chunk spectrum X, with no inverse transform. The
release at k keeps the real part of the inverse of Z_j = X_j + lam N_j
for j < k (0 elsewhere), so its error e has the spectrum E_j = (Z_j +
conj Z_{c-j}) / 2 - X_j: E_0 = lam Re N_0 and, for j >= 1, one of four
bin classes:

    only     1 <= j <= min(k-1, c-k)   E_j = (lam N_j - X_j) / 2
             its mirror c - j          E_{c-j} = conj E_j
    both     c-k+1 <= j <= k-1         E_j = lam (N_j + conj N_{c-j}) / 2
    neither  k <= j <= c-k             E_j = -X_j

The transform is orthogonal, so sum_t e_t^2 = sum_j |E_j|^2 / c
(Parseval) and the release mean is mean(x) + lam Re N_0 / c. For dcfpa,
X and N belong to the differenced chunk and the error is the running sum
y of e. With w = e^{2 pi i / c}, a = E_0 / c, kappa = -(1/c) sum_{j>=1}
E_j / (w^j - 1), h = sum_{j>=1} E_j w^j / (w^j - 1)^2 and Q = sum_{j>=1}
|E_j|^2 / |w^j - 1|^2:

    sum_t y_t^2 = a^2 c(c+1)(2c+1)/6 + a kappa c(c+1) + c kappa^2
                  + 2 a h + Q / c,       mean(y) = a (c+1)/2 + kappa.

Each quantity sums per-bin terms, times 1, lam or lam^2, over the
classes, and each class is an interval of bins that moves by one bin
per k; so one forward transform per row block scores every k in O(c)
work and memory per (recording, run, chunk). The scores equal those of
the mechanisms' own releases up to rounding, and the comparison is not
dominated by draw luck.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from privseq.core import (
    MECHANISMS,
    ChunkPlan,
    Corpus,
    DataError,
    FeatureMatrix,
    ParameterError,
    RealSeq,
    _csv_rows,
    _write_csv,
    chunk_plan,
)
from privseq.mechanisms import (
    MechanismConfig,
    _fpa_scales,
    _noise_pairs,
    _release_blocks,
    _uniform_blocks,
    fpa_spectra,
)
from privseq.metrics import _nmse_ratio
from privseq.noise import NoiseSource
from privseq.sensitivity import DIFFERENCE
from privseq.sensitivity import chunk_sensitivities  # noqa: F401 (perfbench traces it here)

__all__ = [
    "tune_k",
    "tune_corpus",
    "KTable",
    "write_k_csv",
    "load_k_csv",
    "TUNABLE",
]

_K_HEADER = (
    "group_label", "feature", "chunk_index", "k", "runs_used", "epsilon_used", "chunk_size", "length",
    "mechanism",
)
TUNABLE = tuple(m for m in MECHANISMS if m != "lpa")  # those that keep coefficients

# The child of its source that tuning runs the release driver at: its
# streams are four coordinates deep, a release's three.
TUNING_STREAM = 0


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
    contain at least two signals. This is tune_corpus of the one-label,
    one-feature corpus of the signals on the plan's chunk size: tuning
    reads only the plan and whether chunks are differenced, so fpa on a
    plan tunes as cfpa on it. Run t of signal m reads stream
    src.derive(TUNING_STREAM, m, 0, t).
    """
    rows = [np.asarray(s, dtype=np.float64) for s in signals]
    n = plan.total_length
    if len(rows) < 2 or any(row.shape != (n,) for row in rows):
        raise ParameterError(f"tuning needs a group of >= 2 signals, each 1-D of length {n}")
    group = [FeatureMatrix(f"m{m}", f"m{m}", {"group": "g"}, ("x",), row[:, np.newaxis])
             for m, row in enumerate(rows)]
    mechanism = {"fpa": "cfpa"}.get(mechanism, mechanism)
    table = tune_corpus(
        Corpus(tuple(group), ("x",)), "group", plan.chunk_size, mechanism, epsilon, runs, src
    )
    return tuple(table.entries[("g", "x", ci)] for ci in range(len(plan)))


def _candidate_scales(plan: ChunkPlan, deltas: Sequence[float], epsilon: float) -> np.ndarray:
    """lams[k - 1, i]: chunk i's noise scale at candidate k (capped at
    the chunk's length), for k up to the longest chunk; fpa_lambda's
    rule over the whole grid at once."""
    lengths = np.asarray(plan.chunk_lengths())
    ks = np.minimum(np.arange(1, lengths.max() + 1)[:, np.newaxis], lengths)
    return _fpa_scales(lengths, ks, deltas, epsilon)


def _block_scores(
    block: np.ndarray, draws: np.ndarray, config: MechanismConfig, units: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """(sum of valid NMSE cells, valid count) of every (k, chunk) over
    the rows and runs of a row block, (longest chunk, chunks) each, 0
    where k exceeds a chunk: the (rows, n) block, its draws (runs rows
    per block row), config and decided units as the release driver hands
    them over, scored at the _candidate_scales of the units' plan and
    sensitivities and config's budget. One forward transform per run of
    equal-length chunks."""
    (layout, deltas, _), difference = units, config.domain == DIFFERENCE
    plan, (rows, n) = layout.plan, block.shape
    lams = _candidate_scales(plan, deltas, config.epsilon)
    pairs = _noise_pairs(draws, n).reshape(rows, -1, n)
    totals = np.zeros(lams.shape)
    counts = np.zeros(lams.shape, dtype=np.int64)
    spectra = fpa_spectra(block, plan, difference)
    for spec, (first, count, c, start) in zip(spectra, _uniform_blocks(plan)):
        span = slice(start, start + count * c)
        x = block[:, span].reshape(rows, count, c)
        unit = pairs[:, :, span].reshape(rows, -1, count, c)
        chunks = slice(first, first + count)
        totals[:c, chunks], counts[:c, chunks] = _spectral_scores(
            x, spec, unit, lams[:c, chunks], difference
        )
    return totals, counts


def _spectral_scores(
    x: np.ndarray, spec: np.ndarray, unit: np.ndarray, lams: np.ndarray, difference: bool
) -> tuple[np.ndarray, np.ndarray]:
    """(sum of valid NMSE cells, valid count) over members and runs of
    every candidate k = 1..c of a run of equal-length chunks x (members,
    count, c), (c, count) each, by the closed form of the module
    docstring: spec holds X (of the differenced chunks for dcfpa), unit
    N (members, runs, count, c) and lams each chunk's scale at every k,
    (c, count). O(c) work and memory per (member, run, chunk)."""
    c = x.shape[-1]
    half = c // 2 + 1  # bins 0..c/2; bin j also stands for its mirror c - j
    lam = lams.T
    theta = math.pi * np.arange(1, half) / c
    spec, noise = spec[:, np.newaxis, :, :half], unit[..., :half]
    mirror = np.zeros_like(noise)  # (N_j + conj N_{c-j}) / 2
    mirror[..., 1:] = (noise[..., 1:] + unit[..., : c - half : -1].conj()) / 2
    # The weight of |E_j|^2 in Q: 1, or 1 / |w^j - 1|^2 for dcfpa.
    q = np.concatenate([[0.0], 0.25 / np.sin(theta) ** 2]) if difference else np.ones(half)
    power = lambda z: q * (z.real**2 + z.imag**2)
    with np.errstate(over="ignore", invalid="ignore"):  # _nmse_ratio rejects the result
        energy = (
            _class_sums(c, only=power(spec) / 2, neither=power(spec))
            - lam * _class_sums(c, only=q * (spec.real * noise.real + spec.imag * noise.imag))
            + lam * lam * _class_sums(c, only=power(noise) / 2, both=power(mirror))
        )
        a = lam * unit[..., :1].real / c  # E_0 / c
        if difference:
            cot = np.concatenate([[0.0], 1 / np.tan(theta)])
            rho = lambda z: z.real - z.imag * cot  # Re(-2 z_j / (w^j - 1))
            kappa = lam * _class_sums(c, only=rho(noise), both=rho(mirror))
            kappa = (kappa - _class_sums(c, only=rho(spec), neither=rho(spec))) / (2 * c)
            h = _class_sums(c, only=q * spec.real, neither=q * spec.real)
            h = h - lam * _class_sums(c, only=q * noise.real, both=q * mirror.real)
            cubic, square = c * (c + 1) * (2 * c + 1) / 6, c * (c + 1)
            sum_sq = a * (a * cubic + kappa * square + 2 * h) + c * kappa * kappa + energy / c
            shift = a * (c + 1) / 2 + kappa
        else:
            sum_sq, shift = c * a * a + energy / c, a
        x_mean = x.mean(axis=-1)[:, np.newaxis, :, np.newaxis]
        den = x_mean * (x_mean + shift)
    values, ok = _nmse_ratio(sum_sq / c, den)
    return np.sum(values, axis=(0, 1), where=ok).T, np.count_nonzero(ok, axis=(0, 1)).T


def _class_sums(c: int, only=None, both=None, neither=None) -> np.ndarray:
    """Per-bin terms of bins 0..c/2 summed over the classes of every k =
    1..c, along the last axis: only over [1, min(k-1, c-k)] by a forward
    cumsum; both over [c-k+1, k-1] and neither over [k, c-k], centred
    intervals summed from the centre out, so that no interval is the
    difference of two large prefix sums."""
    total = 0.0
    if only is not None:
        head = only[..., : (c + 1) // 2].copy()
        head[..., 0] = 0.0
        k = np.arange(1, c + 1)
        total = np.cumsum(head, axis=-1)[..., np.minimum(k - 1, c - k)]
    if both is not None:
        total = total + _centred(both, c)[..., :0:-1]
    if neither is not None:
        total = total + _centred(neither, c)[..., 1:]
    return total


def _centred(f: np.ndarray, c: int) -> np.ndarray:
    """s[..., a] = the sum over bins j in [a, c - a] of f (given for j
    <= c/2 and equal at j and c - j), for a in 0..c (0 if empty)."""
    twice = 2 * f[..., 1:]
    if c % 2 == 0:
        twice[..., -1] = f[..., -1]  # bin c/2 is its own mirror
    s = np.zeros(f.shape[:-1] + (c + 1,))
    s[..., 1 : c // 2 + 1] = np.cumsum(twice[..., ::-1], axis=-1)[..., ::-1]
    return s


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
        if self.mechanism not in TUNABLE:
            raise ParameterError(
                f"k table mechanism must be one of {', '.join(TUNABLE)}, got {self.mechanism!r}"
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
    with, as MechanismConfig decides it (fpa's whole signal, whatever
    chunk_size says; cfpa and dcfpa need a chunk_size). The table
    records the mechanism. The release driver, at
    src.derive(TUNING_STREAM), hands over each zero-padded row block,
    which _block_scores scores; the scores are summed per (group,
    feature) in block order, and the first argmin of the mean
    NMSE wins (infinite where every cell is flagged or k exceeds the
    chunk)."""
    if mechanism not in TUNABLE:
        raise ParameterError(
            f"retention tuning applies to fpa, cfpa or dcfpa, got {mechanism!r}"
        )
    config = MechanismConfig(mechanism, epsilon, chunk_size)
    groups, blocks = _release_blocks(
        corpus, label_kind, [config], epsilon, src.derive(TUNING_STREAM), runs, 1,
        lambda col, rows, block, draws, config, units: _block_scores(block, draws, config, units),
    )
    sums: dict[tuple[str, int], tuple] = {}
    for label, col, _, ((totals, counts),) in blocks:
        total, count = sums.get((label, col), (0.0, 0))
        sums[(label, col)] = (total + totals, count + counts)
    entries: dict[tuple[str, str, int], int] = {}
    for (label, col), (total, count) in sums.items():
        scores = np.divide(total, count, out=np.full_like(total, math.inf), where=count > 0)
        for ci, k in enumerate(np.argmin(scores, axis=0)):
            entries[(label, corpus.schema[col], ci)] = int(k) + 1
    return KTable(
        entries=entries, runs_used=runs, epsilon_used=float(epsilon),
        plans={label: config.plan_for(groups[label][0]) for label, _ in sums},
        mechanism=mechanism,
    )


def write_k_csv(table: KTable, path) -> None:
    """Serialize to the flat CSV shape (group_label, feature, chunk_index,
    k, runs_used, epsilon_used, chunk_size, length, mechanism)."""
    _write_csv(path, _K_HEADER, (
        [label, feature, ci, k, table.runs_used, repr(table.epsilon_used),
         table.plans[label].chunk_size, table.plans[label].total_length, table.mechanism]
        for (label, feature, ci), k in sorted(table.entries.items())
    ))


def load_k_csv(path) -> KTable:
    """Inverse of write_k_csv, validating every cell; all rows of a group
    must name one chunk plan, and all rows one mechanism."""
    entries: dict[tuple[str, str, int], int] = {}
    shapes: dict[str, tuple[int, int]] = {}
    runs_used: int | None = None
    epsilon_used: float | None = None
    mechanism: str | None = None
    for row_no, row in _csv_rows(path, _K_HEADER):
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
