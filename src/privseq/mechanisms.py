"""The four privatization mechanisms, released over whole corpora, and
the report of their units.

LPA adds i.i.d. Laplace noise to every sample (L1 sensitivity). FPA
transforms the whole signal, keeps the first k Fourier coefficients,
noises them, and inverts. CFPA applies FPA per disjoint chunk. DCFPA
differences each chunk first, applies FPA in the difference domain, and
reconstructs by running sum.

Complex-coefficient noising draws independent Laplace noise for the
real part and the imaginary part of each retained coefficient (2k real
draws per chunk, one (real, imaginary) pair per bin). fpa_lambda scales it by the exact
L1 sensitivity of those 2k values, sqrt(n) sqrt(g(n, k)) times the L2
sensitivity; g = k until the retained bins include mirror pairs.

Every release is S + lam * N, with one noise scale lam per unit. LPA
has one unit, the whole signal: S is the signal and N its first n unit
draws. The Fourier mechanisms have one unit per chunk and are linear in
the retained coefficients: S inverts the truncated clean coefficients
and N the unit-scale Laplace coefficient noise (fpa_spectra, fpa_parts),
one transform call per distinct chunk length. One mask per run of
equal-length chunks picks the bins each chunk keeps (bins j < k, and
with symmetric completion their conjugate mirrors); the mask,
differencing and the running sum act on S and N alike. A unit whose lam
is 0 releases S exactly.

One place decides each unit's k, sensitivity and lam: _feature_units
gives a feature's layout (None for LPA, which keeps no coefficients and
ignores any k), sensitivities and scales (_unit_scales); the report and
every release read it. A report holds the units with a positive scale,
and MechanismReport derives every epsilon figure from them.
perturb_corpus, the sweep and retention tuning share one driver,
_release_blocks: it decides each group once and hands each row block of
a (group, feature), its unit draws and units to a consumer. perturb and
the sweep release through _released; perturb_corpus is the sweep's run
0 at one budget, so a sweep cell scores exactly what perturb releases.
Tuning scores the raw block.

Noise streams: each (recording, feature, run) reads one vector of 2n
unit-Laplace draws from the origin of its NoiseSource. LPA adds the
first n, which are the draws an n-draw call on the same stream gives.
Bin j of the chunk starting at sample s reads the pair at draws
2(s + j) and 2(s + j) + 1 as its real and imaginary part (FpaLayout),
whether or not the bin is retained or its noise scale is zero. A bin's
noise thus depends on neither k nor the budget: CFPA on a single
full-length chunk is bit-identical to FPA on the same stream, the noise
of k retained bins is a prefix of the noise of k + 1 (which retention
tuning scores in one pass), and one unit draw serves a whole epsilon
grid.
"""
from __future__ import annotations

import concurrent.futures
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from privseq import transform
from privseq.core import (
    MECHANISMS,
    ChunkPlan,
    ConfigurationError,
    Corpus,
    FeatureMatrix,
    MechanismReport,
    ParameterError,
    RealSeq,
    ReportUnit,
    chunk_plan,
)
from privseq.noise import NoiseSource, unit_laplace
from privseq.sensitivity import DIFFERENCE, RAW, SensitivityTable, build_group_table

if TYPE_CHECKING:
    from privseq.tuning import KTable

__all__ = [
    "MECHANISMS",
    "lpa_lambda",
    "fpa_lambda",
    "MechanismConfig",
    "perturb_corpus",
    "clamp_nonnegative",
    "fpa_spectra",
]

# The release driver cuts each (group, feature) into row blocks of
# max(1, budget // ((runs + 1) n)) rows, counting S and N rows; the
# budget is BLOCK_VALUES on one thread and twice that on a pool. A
# larger block pays its fixed cost less often but has a larger working
# set. On one thread that does not pay: at 2^15, dcfpa perturb of the
# ragged benchmark corpus (n = 1000) took 61 ms against 47 ms at 2^14,
# and the runs-2 evaluate sweep 283 ms against 254 ms, with ten times
# the page faults. On a two-thread pool each small numpy call also
# waits for the interpreter lock, and the same sweep took 247 ms at
# 2^15 against 301 ms at 2^14; 2^16 was no faster and raised
# evaluate's peak RSS by 18%. (2-core host, medians of 10 alternating
# in-process rounds.) At n = 1024 and runs >= 16 a block is one row
# either way.
BLOCK_VALUES = 1 << 14


def _noise_scale(delta, epsilon, factor=1.0):
    """factor * delta / epsilon for valid budgets, elementwise over
    broadcast arrays (a float for scalars; a (budgets, 1) epsilon column
    gives a row per budget). A scale that overflows to inf, or a positive
    delta's scale that underflows (adding almost no noise), is a
    ParameterError."""
    eps = np.asarray(epsilon, dtype=np.float64)
    if not ((eps > 0.0) & np.isfinite(eps)).all():
        raise ParameterError(f"epsilon must be positive and finite, got {epsilon}")
    delta = np.asarray(delta, dtype=np.float64)
    bad = ~((delta >= 0.0) & np.isfinite(delta))
    if bad.any():
        raise ParameterError(f"sensitivity must be finite and >= 0, got {delta[bad][0]}")
    with np.errstate(over="ignore"):
        lam = factor * delta / epsilon
    for bad, what in (
        (~np.isfinite(lam), "overflows"),
        ((delta > 0.0) & (lam < sys.float_info.min), "underflows"),
    ):
        if bad.any():
            lam, delta = np.broadcast_arrays(lam, delta)
            raise ParameterError(
                f"noise scale {float(lam[bad][0])!r} for sensitivity {float(delta[bad][0])!r} {what}"
            )
    return lam if lam.ndim else float(lam)


def lpa_lambda(delta1: float, epsilon: float) -> float:
    """LPA's per-sample noise scale delta1 / epsilon (see _noise_scale)."""
    return _noise_scale(delta1, epsilon)


def fpa_lambda(n: int, k: int, delta2: float, epsilon: float) -> float:
    """Noise scale sqrt(n) * sqrt(g(n, k)) * delta2 / epsilon.

    The core noises the 2k values (Re F_0..F_{k-1}, Im F_0..F_{k-1}) of
    a length-n chunk. For real chunks at L2 distance delta2 their L1
    distance is at most sqrt(n * g) * delta2, and the bound is attained.
    g counts 1 for each retained bin whose mirror n - j is not retained
    (or is the bin itself), and 4 for each pair of retained mirror bins,
    whose values repeat up to sign: g = k while k <= n // 2 + 1, and
    g = 3k - n - 2 + n % 2 above that (2n - 2 or 2n - 1 at k = n).

    epsilon enters through one final division, so doubling epsilon
    halves the result exactly in IEEE arithmetic; _noise_scale rejects
    overflow and underflow.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if not 1 <= k <= n:
        raise ParameterError(f"k must be in [1, {n}], got {k}")
    return _fpa_scales(n, k, delta2, epsilon)


def _fpa_scales(n, k, delta2, epsilon: float):
    """fpa_lambda's rule, g piecewise in k and then sqrt(n) sqrt(g)
    delta2 / epsilon, over broadcast arrays of chunk lengths n, counts k
    in [1, n] and sensitivities delta2; fpa_lambda is its scalar case."""
    n, k = np.asarray(n), np.asarray(k)
    g = np.where(k <= n // 2 + 1, k, 3 * k - n - 2 + n % 2)
    return _noise_scale(delta2, epsilon, np.sqrt(n) * np.sqrt(g))


def _uniform_blocks(plan: ChunkPlan) -> list[tuple[int, int, int, int]]:
    """(first chunk, chunk count, chunk length, first sample) of each run
    of equal-length chunks: the full chunks, then any remainder chunk."""
    full, rest = divmod(plan.total_length, plan.chunk_size)
    blocks = [(0, full, plan.chunk_size, 0)] if full else []
    return blocks + ([(full, 1, rest, full * plan.chunk_size)] if rest else [])


class FpaLayout:
    """Where FPA keeps coefficients and reads unit draws, for one chunk
    plan and its per-chunk retention counts.

    A row holds 2n unit draws, n the plan's total length. Chunk i,
    starting at sample start_i, retains bins 0..k_i-1; bin j reads the
    complex pair at draws 2(start_i + j) (real part) and
    2(start_i + j) + 1 (imaginary part).
    Each bin's noise thus depends on its position alone, and chunk i's
    noise on its own k_i alone. _feature_units, its one builder, gives a
    k in [1, length] for every chunk.
    """

    __slots__ = ("plan", "ks", "lengths")

    def __init__(self, plan: ChunkPlan, ks: Sequence[int]):
        self.plan = plan
        self.ks = tuple(ks)
        self.lengths = np.asarray(plan.chunk_lengths())


def fpa_spectra(block: np.ndarray, plan: ChunkPlan, difference: bool) -> list[np.ndarray]:
    """Forward transforms of every chunk of every row of a (rows, n)
    block, one (rows, count, c) array per run of count equal-length
    chunks; difference transforms each chunk first."""
    rows = block.shape[0]
    out = []
    for _, count, c, start in _uniform_blocks(plan):
        seg = block[:, start : start + count * c].reshape(rows * count, c)
        if difference:
            seg = transform.diff_transform(seg)
        out.append(transform.dft_batch(seg).reshape(rows, count, c))
    return out


def _noise_pairs(draws: np.ndarray, n: int) -> np.ndarray:
    """The (rows, n) complex view of the first 2n draws of each row:
    element s + j is the unit noise of bin j of the chunk starting at s,
    draws 2(s + j) (real part) and 2(s + j) + 1 (imaginary part)."""
    return np.ascontiguousarray(draws[:, : 2 * n]).view(np.complex128)


def fpa_parts(
    spectra: Sequence[np.ndarray],
    layout: FpaLayout,
    draws: np.ndarray,
    difference: bool,
    symmetric: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """(S, N): S (a row per spectra row) inverts the truncated clean
    coefficients, N (a row per draws row) the unit Laplace coefficient
    noise read from the first 2n draws of each draws row in layout
    order, n the plan's total length. Both are completed alike when
    symmetric is set and, when difference is, summed back. Each run of
    equal-length chunks is inverted in one transform call, with one mask
    of the bins j < k each chunk keeps; symmetric completion fills each
    bin outside it whose mirror c - j is inside with that bin's conjugate."""
    rows_s = spectra[0].shape[0]
    rows_n = draws.shape[0]
    pairs = _noise_pairs(draws, layout.plan.total_length)
    clean = np.empty((rows_s, layout.plan.total_length))
    unit = np.empty((rows_n, layout.plan.total_length))
    ks = np.asarray(layout.ks)
    for spec, (first, count, c, start) in zip(spectra, _uniform_blocks(layout.plan)):
        keep = np.arange(c) < ks[first : first + count, None]
        bins = np.zeros((rows_s + rows_n, count, c), dtype=np.complex128)
        noise = pairs[:, start : start + count * c].reshape(rows_n, count, c)
        np.copyto(bins[:rows_s], spec, where=keep)
        np.copyto(bins[rows_s:], noise, where=keep)
        if symmetric:
            mirror = -np.arange(c) % c
            i, t = np.nonzero(~keep & keep[:, mirror])
            bins[:, i, t] = bins[:, i, mirror[t]].conj()
        rec = transform.idft_batch(bins.reshape(-1, c)).real.reshape(-1, count, c)
        if difference:
            rec = transform.cumsum_reconstruct(rec)
        rec = rec.reshape(-1, count * c)
        clean[:, start : start + count * c] = rec[:rows_s]
        unit[:, start : start + count * c] = rec[rows_s:]
    return clean, unit


def _unit_scales(
    layout: FpaLayout | None, deltas: Sequence[float], epsilon: float
) -> np.ndarray:
    """The noise scale of every unit, given its sensitivity: lpa_lambda
    of LPA's one unit (layout None), fpa_lambda of each FPA chunk."""
    if layout is None:
        return lpa_lambda(deltas, epsilon)
    return _fpa_scales(layout.lengths, layout.ks, deltas, epsilon)


def _release(
    clean: np.ndarray, unit: np.ndarray, layout: FpaLayout | None, lams: np.ndarray
) -> np.ndarray:
    """S + lam * N for (rows, 1, n) clean and (rows, runs, n) unit parts,
    each unit's scale (_unit_scales) broadcast over its samples: one unit
    over the whole row when layout is None (LPA), each chunk of the
    layout otherwise. (budgets, units) scales release (budgets, rows,
    runs, n) at once, each element as in a one-budget call. A unit whose
    scale is 0 releases S exactly, signed zeros included. A release that
    overflows (a finite scale times a large draw) is a ParameterError."""
    scale = lams if layout is None else np.repeat(lams, layout.lengths, axis=-1)
    scale = scale[..., np.newaxis, np.newaxis, :]
    try:
        with np.errstate(over="raise"):
            out = scale * unit
            out += clean
    except FloatingPointError:
        raise ParameterError("the release overflows: its noise is too large to represent") from None
    if not lams.all():
        np.copyto(out, clean, where=scale == 0.0)
    return out


def _draws(streams: Sequence[NoiseSource], n: int) -> np.ndarray:
    """One row of 2n unit draws per stream, what an FPA layout of a
    length-n signal reads; LPA reads the first n, which are the draws of
    an n-draw call on the same stream."""
    return np.stack([unit_laplace(s.generator(), 2 * n) for s in streams])


def _released(
    block: np.ndarray, draws: np.ndarray, config: MechanismConfig, units: tuple
) -> np.ndarray:
    """Every row of a (rows, n) block released under config at its
    decided units (layout, sensitivities, scales; _feature_units), once
    per noise stream: draws holds runs consecutive rows per block row, a
    row per stream, and the result is (..., rows, runs, n). S is the
    block and N the first n draws for LPA (layout None), fpa_parts of
    the block's spectra for FPA."""
    (layout, _, lams), (rows, n) = units, block.shape
    if layout is None:
        clean, unit = block, draws[:, :n]
    else:
        difference = config.domain == DIFFERENCE
        spectra = fpa_spectra(block, layout.plan, difference)
        clean, unit = fpa_parts(spectra, layout, draws, difference, config.symmetric)
    return _release(clean[:, np.newaxis], unit.reshape(rows, -1, n), layout, lams)


def clamp_nonnegative(x: RealSeq) -> RealSeq:
    """Post-hoc clamp of negative noisy samples to zero (explicit opt-in)."""
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


@dataclass(frozen=True, slots=True)
class MechanismConfig:
    """One privatization configuration.

    k = None means full retention (k equal to each chunk's length).
    chunk_size is required by cfpa/dcfpa and is None for lpa/fpa, which
    release the whole signal as one unit, whatever was passed. clamp
    zeroes negative outputs after noising; symmetric retains
    conjugate-completed coefficients, so lpa, which keeps none, rejects
    it.
    """

    mechanism: str
    epsilon: float
    chunk_size: int | None = None
    k: int | None = None
    symmetric: bool = False
    clamp: bool = False

    def __post_init__(self) -> None:
        if self.mechanism not in MECHANISMS:
            raise ParameterError(
                f"mechanism must be one of {', '.join(MECHANISMS)}, got {self.mechanism!r}"
            )
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise ParameterError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.mechanism in ("lpa", "fpa"):
            object.__setattr__(self, "chunk_size", None)
        elif self.chunk_size is None or self.chunk_size < 1:
            raise ParameterError(f"{self.mechanism} requires a positive chunk_size")
        if self.k is not None and self.k < 1:
            raise ParameterError(f"k must be >= 1, got {self.k}")
        if self.symmetric and self.mechanism == "lpa":
            raise ParameterError("symmetric does not apply to lpa, which keeps no coefficients")

    @property
    def norm_order(self) -> int:
        return 1 if self.mechanism == "lpa" else 2

    @property
    def domain(self) -> str:
        return DIFFERENCE if self.mechanism == "dcfpa" else RAW

    def plan_for(self, length: int) -> ChunkPlan:
        return chunk_plan(length, self.chunk_size or length)


def _feature_units(
    config: MechanismConfig,
    plan: ChunkPlan,
    sens: SensitivityTable,
    feature: str,
    k_table: Mapping[tuple[str, int], int] | None,
    epsilon,
) -> tuple[FpaLayout | None, list[float], np.ndarray]:
    """(layout, sensitivities, scales) of one feature's units under the
    plan: None and the whole-signal L1 sensitivity for LPA, which keeps
    no coefficients and ignores any k; otherwise the layout of each
    chunk's k (from k_table, {(feature, chunk_index): k}, else config.k,
    else the chunk length) and each chunk's L2 sensitivity in the
    config's domain. A uniform config.k must fit chunk 0, the longest;
    a shorter remainder chunk keeps at most its length. The scales are
    _unit_scales at epsilon, a float or a (budgets, 1) column giving a
    row per budget. A missing sensitivity or an out-of-range k is a
    ConfigurationError, raised before any scale is computed."""
    try:
        deltas = [sens.value(feature, i, config.domain, config.norm_order) for i in range(len(plan))]
    except ParameterError as exc:
        raise ConfigurationError(str(exc)) from None
    layout = None
    if config.mechanism != "lpa":
        ks = []
        for ci, c in enumerate(plan.chunk_lengths()):
            if k_table is not None and (feature, ci) not in k_table:
                raise ConfigurationError(f"k table has no entry for feature {feature!r} chunk {ci}")
            k = int(k_table[(feature, ci)] if k_table is not None else config.k or c)
            if k_table is None and ci:
                k = min(k, c)
            if not 1 <= k <= c:
                raise ConfigurationError(
                    f"k={k} out of range [1, {c}] for feature {feature!r} chunk {ci}"
                )
            ks.append(k)
        layout = FpaLayout(plan, ks)
    return layout, deltas, _unit_scales(layout, deltas, epsilon)


def _report(
    config: MechanismConfig, length: int, decided: Sequence[tuple[str, tuple]]
) -> MechanismReport:
    """The epsilon report of one release from its decided units:
    (feature, (layout, sensitivities, scales)) pairs of one length-length
    group at config.epsilon, a ReportUnit for each unit with a positive
    scale. MechanismReport derives the chunk and sequence figures from
    them; a zero-sensitivity unit is left out and adds 0 to both."""
    units = [
        ReportUnit(feature, ci, delta, float(lam), k, config.epsilon)
        for feature, (layout, deltas, lams) in decided
        for ci, (delta, lam, k) in enumerate(
            zip(deltas, lams, [length] if layout is None else layout.ks)
        )
        if lam > 0.0
    ]
    return MechanismReport(config.mechanism, tuple(f for f, _ in decided), tuple(units))


def _check_plan(what: str, built: ChunkPlan | None, plan: ChunkPlan, mechanism: str) -> None:
    if built != plan:
        had = (
            "no recorded chunk plan"
            if built is None
            else f"chunk size {built.chunk_size} over length {built.total_length}"
        )
        raise ConfigurationError(
            f"{what} {had}; {mechanism} needs chunk size {plan.chunk_size} "
            f"over length {plan.total_length}"
        )


def _group_ks(
    k_table: KTable | None, label: str, plan: ChunkPlan, mechanism: str
) -> dict[tuple[str, int], int] | None:
    """One group's tuned counts, {(feature, chunk_index): k}, after
    checking that the group was tuned on the plan it is released with,
    and for the same mechanism; a missing group, another plan or another
    mechanism is a ConfigurationError. None without a table, and for LPA,
    which keeps no coefficients."""
    if k_table is None or mechanism == "lpa":
        return None
    if label not in k_table.plans:
        raise ConfigurationError(f"no k table entries for label {label!r}")
    _check_plan(f"k table for label {label!r} was tuned for", k_table.plans[label], plan, mechanism)
    if k_table.mechanism != mechanism:
        raise ConfigurationError(
            f"k table was tuned for {k_table.mechanism}; it does not apply to {mechanism}"
        )
    return k_table.mapping(label)


def _release_blocks(
    corpus: Corpus, label_kind: str, configs: Sequence[MechanismConfig], epsilon,
    src: NoiseSource, runs: int, jobs: int, consume: Callable,
    sens_tables: Mapping[str, SensitivityTable] | None = None, k_table: KTable | None = None,
):
    """The one driver of perturb_corpus, the sweep and retention tuning:
    every included feature of every recording, with runs noise streams,
    under each config at epsilon (a float, or a (budgets, 1) column).

    Each group is decided once, first: its length n and, per included
    column, each config's _feature_units. The sensitivity table is
    sens_tables[label], which must have been built for the config's
    plan, or else one built per (plan, domain, norm). Then each row block
    of a (group, column) is zero-padded to n, at most BLOCK_VALUES //
    ((runs + 1) n) rows (twice as many when jobs > 1; see BLOCK_VALUES),
    and run t of recording r reads the 2n unit
    draws of stream src.derive(r, col, t), runs consecutive draw rows
    per block row. Each config's units go with the block and its draws
    to consume(col, rows, block, draws, config, units); a release
    consumer calls _released. Blocks run on jobs threads when jobs > 1.
    Returns {label: (n, {col: units per config})} and, per block in a
    fixed order, (label, col, rows, consume's results per config)."""
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    if runs < 1:
        raise ParameterError(f"runs must be >= 1, got {runs}")
    groups, blocks = {}, []
    budget = BLOCK_VALUES if jobs == 1 else 2 * BLOCK_VALUES
    for value in corpus.label_values(label_kind):
        rows = [r for r, m in enumerate(corpus.matrices) if m.labels[label_kind] == value]
        n = max(corpus.matrices[r].length for r in rows)
        cells, tables = {}, {}
        for config in configs:
            plan = config.plan_for(n)
            key = (plan, config.domain, config.norm_order)
            if sens_tables is not None:
                if value not in sens_tables:
                    raise ConfigurationError(f"no sensitivity table for label {value!r}")
                tables[key] = sens_tables[value]
                _check_plan(
                    f"sensitivity table for label {value!r} was built for",
                    tables[key].plan, plan, config.mechanism,
                )
            elif key not in tables:
                tables[key] = build_group_table(
                    corpus, label_kind, value, plan, norms=(key[2],), domains=(key[1],)
                )
            ks = _group_ks(k_table, value, plan, config.mechanism)
            for col, feature in enumerate(corpus.schema):
                if feature not in corpus.excluded_features:
                    units = _feature_units(config, plan, tables[key], feature, ks, epsilon)
                    cells.setdefault(col, []).append(units)
        groups[value] = (n, cells)
        step = max(1, budget // ((runs + 1) * n))
        for col in cells:
            blocks += [(value, col, rows[lo : lo + step]) for lo in range(0, len(rows), step)]

    def one_block(value: str, col: int, rows: list[int]) -> list:
        n, cells = groups[value]
        block = np.zeros((len(rows), n))
        for row, r in enumerate(rows):
            x = corpus.matrices[r].values[:, col]
            block[row, : x.size] = x
        draws = _draws([src.derive(r, col, t) for r in rows for t in range(runs)], n)
        return [
            consume(col, rows, block, draws, config, units)
            for config, units in zip(configs, cells[col])
        ]

    if jobs == 1:
        done = [one_block(*b) for b in blocks]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(lambda b: one_block(*b), blocks))
    return groups, [(*b, out) for b, out in zip(blocks, done)]


def perturb_corpus(
    corpus: Corpus,
    label_kind: str,
    config: MechanismConfig,
    src: NoiseSource,
    jobs: int = 1,
    sens_tables: Mapping[str, SensitivityTable] | None = None,
    k_table: KTable | None = None,
) -> tuple[Corpus, dict[str, MechanismReport]]:
    """Privatize every recording; returns the noisy corpus and one
    epsilon report per label group.

    Sensitivities are computed per (label value, feature) group unless
    precomputed tables are supplied; a supplied table must have been
    built for the plan this configuration uses on the group, or the run
    fails with ConfigurationError. A supplied k table likewise must hold
    every group, tuned for the plan the group is released with; lpa
    ignores it. Recordings shorter than their group's maximum length are
    zero-padded for perturbation (matching the padded sensitivity
    definition) and trimmed back on release. This is run 0 of the
    sweep's driver (_release_blocks) at one budget: recording r's
    feature f reads the 2n unit draws of stream (r, f, 0), whatever block
    holds the row, so output is independent of block size and worker
    count, and the reports hold the units it released with.
    """
    outs = [m.values.copy() for m in corpus.matrices]

    def write(col: int, rows: list[int], block: np.ndarray, draws: np.ndarray, config, units) -> None:
        noisy = _released(block, draws, config, units)[:, 0]
        noisy = clamp_nonnegative(noisy) if config.clamp else noisy
        for row, r in enumerate(rows):
            outs[r][:, col] = noisy[row, : outs[r].shape[0]]

    groups, _ = _release_blocks(
        corpus, label_kind, [config], config.epsilon, src, 1, jobs, write, sens_tables, k_table
    )
    reports = {
        value: _report(config, n, [(corpus.schema[col], units) for col, (units,) in cells.items()])
        for value, (n, cells) in groups.items()
    }
    # FeatureMatrix keeps its own copy; popping each buffer as it is used
    # keeps a second copy of the whole corpus from being alive at once.
    matrices = tuple(
        FeatureMatrix(m.recording_id, m.participant_id, m.labels, m.feature_names, outs.pop(0))
        for m in corpus.matrices
    )
    return Corpus(matrices, corpus.schema, corpus.excluded_features), reports
