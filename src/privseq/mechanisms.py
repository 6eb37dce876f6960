"""The four privatization mechanisms and epsilon-budget accounting.

LPA adds i.i.d. Laplace noise to every sample (L1 sensitivity). FPA
transforms the whole signal, keeps the first k Fourier coefficients,
noises them, and inverts. CFPA applies FPA per disjoint chunk. DCFPA
differences each chunk first, applies FPA in the difference domain, and
reconstructs by running sum.

Complex-coefficient noising draws independent Laplace noise for the
real part and the imaginary part of each retained coefficient (2k real
draws per chunk, real block first), which is what the sqrt(n)sqrt(k)
noise scale assumes.

Noise streams: every mechanism invocation consumes its NoiseSource
sequentially from the origin, chunk by chunk in index order, drawing
2k values per chunk (or n for LPA) whether or not the chunk's noise
scale is zero. Consequently CFPA on a single full-length chunk is
bit-identical to FPA on the same source, and draw positions depend only
on the retention plan, never on epsilon or sensitivity values, so one
unit draw serves a whole epsilon grid.
"""
from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from privseq import transform
from privseq.core import (
    ChunkPlan,
    ConfigurationError,
    Corpus,
    FeatureMatrix,
    MechanismReport,
    ParameterError,
    RealSeq,
    ReportUnit,
    SEQUENTIAL,
    chunk_plan,
)
from privseq.noise import NoiseSource, unit_laplace
from privseq.sensitivity import DIFFERENCE, RAW, SensitivityTable, build_group_table

if TYPE_CHECKING:
    from privseq.tuning import KTable

__all__ = [
    "MECHANISMS",
    "lpa",
    "fpa_lambda",
    "fpa",
    "cfpa",
    "dcfpa",
    "compose_sequential",
    "compose_parallel",
    "MechanismConfig",
    "build_report",
    "perturb_corpus",
    "clamp_nonnegative",
]

MECHANISMS = ("lpa", "fpa", "cfpa", "dcfpa")


def _validated_signal(x: RealSeq) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ParameterError("mechanism input must be a non-empty 1-D sequence")
    return arr


def _check_budget(delta: float, epsilon: float) -> None:
    if not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise ParameterError(f"epsilon must be positive and finite, got {epsilon}")
    if not (delta >= 0.0 and math.isfinite(delta)):
        raise ParameterError(f"sensitivity must be finite and >= 0, got {delta}")


def lpa(x: RealSeq, delta1: float, epsilon: float, src: NoiseSource) -> RealSeq:
    """x + n i.i.d. Laplace(delta1/epsilon) draws; identity when delta1=0."""
    arr = _validated_signal(x)
    _check_budget(delta1, epsilon)
    if delta1 == 0.0:
        return arr.copy()
    lam = delta1 / epsilon
    return arr + lam * unit_laplace(src.generator(), arr.size)


def fpa_lambda(n: int, k: int, delta2: float, epsilon: float) -> float:
    """Noise scale sqrt(n) * sqrt(k) * delta2 / epsilon.

    epsilon enters through one final division, so doubling epsilon
    halves the result exactly in IEEE arithmetic.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if not 1 <= k <= n:
        raise ParameterError(f"k must be in [1, {n}], got {k}")
    _check_budget(delta2, epsilon)
    return (math.sqrt(n) * math.sqrt(k) * delta2) / epsilon


def _add_coefficient_noise(fk: np.ndarray, lam: float, draws: np.ndarray, k: int) -> np.ndarray:
    """fk + lam * (draws[:k] + i draws[k:]), via component views.

    Written over the float64 component view so the elementary operation
    sequence (multiply, then add per component) is the same one the
    batched sweep runner uses, keeping the two paths bit-identical.
    """
    noisy = fk.astype(np.complex128, copy=True)
    if lam > 0.0:
        v = noisy.view(np.float64)
        v[0::2] += lam * draws[:k]
        v[1::2] += lam * draws[k:]
    return noisy


def _fpa_core(
    x: np.ndarray,
    delta2: float,
    epsilon: float,
    k: int,
    gen: np.random.Generator,
    symmetric: bool,
) -> np.ndarray:
    """FPA on one chunk, drawing 2k values from the shared generator."""
    n = x.size
    if not 1 <= k <= n:
        raise ParameterError(f"k must be in [1, {n}], got {k}")
    lam = fpa_lambda(n, k, delta2, epsilon)
    draws = unit_laplace(gen, 2 * k)
    fk = transform.truncate_low(transform.dft(x), k)
    noisy = _add_coefficient_noise(fk, lam, draws, k)
    if symmetric:
        noisy = transform.complete_symmetric(noisy, n)
    return transform.pad_and_invert(noisy, n)


def fpa(
    x: RealSeq,
    delta2: float,
    epsilon: float,
    k: int,
    src: NoiseSource,
    symmetric: bool = False,
) -> RealSeq:
    """Whole-signal Fourier perturbation with k retained coefficients."""
    arr = _validated_signal(x)
    return _fpa_core(arr, delta2, epsilon, k, src.generator(), symmetric)


def _check_per_chunk(
    plan: ChunkPlan, per_chunk: Sequence[tuple[float, int]], n: int
) -> list[tuple[float, int]]:
    if plan.total_length != n:
        raise ParameterError(
            f"plan covers {plan.total_length} samples but the signal has {n}"
        )
    staged = [(float(d), int(k)) for d, k in per_chunk]
    if len(staged) != len(plan):
        raise ParameterError(
            f"per_chunk has {len(staged)} entries for {len(plan)} chunks"
        )
    for (d, k), length in zip(staged, plan.chunk_lengths()):
        if not (d >= 0.0 and math.isfinite(d)):
            raise ParameterError(f"chunk sensitivity must be finite and >= 0, got {d}")
        if not 1 <= k <= length:
            raise ParameterError(f"chunk k must be in [1, {length}], got {k}")
    return staged


def cfpa(
    x: RealSeq,
    plan: ChunkPlan,
    per_chunk: Sequence[tuple[float, int]],
    epsilon: float,
    src: NoiseSource,
    symmetric: bool = False,
) -> RealSeq:
    """FPA applied independently to each disjoint chunk of the plan.

    Every chunk receives the full budget epsilon: the chunks partition
    the sample index range, so parallel composition applies.
    """
    arr = _validated_signal(x)
    staged = _check_per_chunk(plan, per_chunk, arr.size)
    gen = src.generator()
    parts = [
        _fpa_core(arr[s:e], d, epsilon, k, gen, symmetric)
        for (s, e), (d, k) in zip(plan.boundaries, staged)
    ]
    return np.concatenate(parts)


def _literal_pairwise(nd: np.ndarray) -> np.ndarray:
    # Adjacent-pair aggregation: out[0] = nd[0], out[t] = nd[t] + nd[t-1].
    out = np.empty_like(nd)
    out[0] = nd[0]
    np.add(nd[1:], nd[:-1], out=out[1:])
    return out


def dcfpa(
    x: RealSeq,
    plan: ChunkPlan,
    per_chunk: Sequence[tuple[float, int]],
    epsilon: float,
    src: NoiseSource,
    symmetric: bool = False,
    literal: bool = False,
) -> RealSeq:
    """Per chunk: difference transform, FPA in the difference domain
    (per_chunk sensitivities must be difference-domain values), then the
    running-sum reconstruction.

    literal=True replaces the running sum with the adjacent-pair
    aggregation variant for comparison; it is not the inverse of the
    difference transform and is off by default.
    """
    arr = _validated_signal(x)
    staged = _check_per_chunk(plan, per_chunk, arr.size)
    gen = src.generator()
    parts = []
    for (s, e), (d, k) in zip(plan.boundaries, staged):
        nd = _fpa_core(transform.diff_transform(arr[s:e]), d, epsilon, k, gen, symmetric)
        parts.append(_literal_pairwise(nd) if literal else transform.cumsum_reconstruct(nd))
    return np.concatenate(parts)


def compose_sequential(epsilons: Sequence[float]) -> float:
    """Budget of running all mechanisms on the same data: the sum."""
    values = [float(e) for e in epsilons]
    if not values:
        raise ParameterError("compose_sequential needs at least one epsilon")
    for e in values:
        if not (e > 0.0 and math.isfinite(e)):
            raise ParameterError(f"epsilons must be positive and finite, got {e}")
    return float(sum(values))


def compose_parallel(epsilons: Sequence[float]) -> float:
    """Budget of mechanisms on disjoint data subsets: the maximum."""
    values = [float(e) for e in epsilons]
    if not values:
        raise ParameterError("compose_parallel needs at least one epsilon")
    for e in values:
        if not (e > 0.0 and math.isfinite(e)):
            raise ParameterError(f"epsilons must be positive and finite, got {e}")
    return float(max(values))


def clamp_nonnegative(x: RealSeq) -> RealSeq:
    """Post-hoc clamp of negative noisy samples to zero (explicit opt-in)."""
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


@dataclass(frozen=True, slots=True)
class MechanismConfig:
    """One privatization configuration.

    k = None means full retention (k equal to each chunk's length);
    chunk_size applies to cfpa/dcfpa only and is ignored by lpa/fpa.
    conservative switches dcfpa accounting from parallel-across-chunks
    to sum-across-chunks; literal_reconstruct switches dcfpa to the
    adjacent-pair aggregation; clamp zeroes negative outputs after
    noising; symmetric retains conjugate-completed coefficients.
    """

    mechanism: str
    epsilon: float
    chunk_size: int | None = None
    k: int | None = None
    symmetric: bool = False
    conservative: bool = False
    literal_reconstruct: bool = False
    clamp: bool = False

    def __post_init__(self) -> None:
        if self.mechanism not in MECHANISMS:
            raise ParameterError(
                f"mechanism must be one of {', '.join(MECHANISMS)}, got {self.mechanism!r}"
            )
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise ParameterError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.mechanism in ("cfpa", "dcfpa"):
            if self.chunk_size is None or self.chunk_size < 1:
                raise ParameterError(f"{self.mechanism} requires a positive chunk_size")
        if self.k is not None and self.k < 1:
            raise ParameterError(f"k must be >= 1, got {self.k}")

    @property
    def norm_order(self) -> int:
        return 1 if self.mechanism == "lpa" else 2

    @property
    def domain(self) -> str:
        return DIFFERENCE if self.mechanism == "dcfpa" else RAW

    def plan_for(self, length: int) -> ChunkPlan:
        if self.mechanism in ("lpa", "fpa"):
            return chunk_plan(length, length)
        return chunk_plan(length, self.chunk_size)


def _chunk_k(
    config: MechanismConfig,
    k_table: Mapping[tuple[str, int], int] | None,
    feature: str,
    chunk_index: int,
    chunk_length: int,
) -> int:
    if k_table is not None:
        key = (feature, chunk_index)
        if key not in k_table:
            raise ConfigurationError(f"k table has no entry for feature {feature!r} chunk {chunk_index}")
        k = int(k_table[key])
    elif config.k is not None:
        k = config.k
    else:
        k = chunk_length
    if not 1 <= k <= chunk_length:
        raise ConfigurationError(
            f"k={k} out of range [1, {chunk_length}] for feature {feature!r} chunk {chunk_index}"
        )
    return k


def build_report(
    config: MechanismConfig,
    sens: SensitivityTable,
    feature_names: Sequence[str],
    length: int,
    excluded: frozenset[str] | set[str] = frozenset(),
    k_table: Mapping[tuple[str, int], int] | None = None,
) -> MechanismReport:
    """Accounting for one release: per-unit scales and composed budgets.

    Chunks of one feature partition disjoint sample ranges, so the
    feature budget composes in parallel (maximum) unless the
    conservative flag asks for the sum; features of one recording
    describe the same individuals, so the total composes sequentially
    (sum). Zero-sensitivity units are omitted and contribute 0.
    """
    if length < 1:
        raise ParameterError(f"length must be >= 1, got {length}")
    plan = config.plan_for(length)
    domain, norm = config.domain, config.norm_order
    units: list[ReportUnit] = []
    per_feature: dict[str, float] = {}
    for feature in feature_names:
        if feature in excluded:
            continue
        unit_epsilons: list[float] = []
        for ci, (s, e) in enumerate(plan.boundaries):
            c_len = e - s
            try:
                delta = sens.value(feature, ci, domain, norm)
            except ParameterError as exc:
                raise ConfigurationError(str(exc)) from None
            if config.mechanism == "lpa":
                k = c_len
                lam = delta / config.epsilon if delta > 0 else 0.0
            else:
                k = _chunk_k(config, k_table, feature, ci, c_len)
                lam = fpa_lambda(c_len, k, delta, config.epsilon)
            if lam > 0.0:
                units.append(
                    ReportUnit(
                        feature=feature,
                        chunk_index=ci,
                        sensitivity=delta,
                        lam=lam,
                        k=k,
                        epsilon=config.epsilon,
                    )
                )
                unit_epsilons.append(config.epsilon)
        if not unit_epsilons:
            per_feature[feature] = 0.0
        elif config.conservative:
            per_feature[feature] = compose_sequential(unit_epsilons)
        else:
            per_feature[feature] = compose_parallel(unit_epsilons)
    total = float(sum(per_feature.values())) if per_feature else 0.0
    return MechanismReport(
        mechanism=config.mechanism,
        per_unit=tuple(units),
        accounting=SEQUENTIAL,
        per_feature_epsilon=per_feature,
        total_epsilon=total,
    )


def _apply_mechanism(
    x: np.ndarray,
    config: MechanismConfig,
    sens: SensitivityTable,
    feature: str,
    plan: ChunkPlan,
    src: NoiseSource,
    k_table: Mapping[tuple[str, int], int] | None,
) -> np.ndarray:
    if config.mechanism == "lpa":
        return lpa(x, sens.value(feature, 0, RAW, 1), config.epsilon, src)
    if config.mechanism == "fpa":
        k = _chunk_k(config, k_table, feature, 0, x.size)
        return fpa(x, sens.value(feature, 0, RAW, 2), config.epsilon, k, src, config.symmetric)
    per_chunk = [
        (
            sens.value(feature, ci, config.domain, 2),
            _chunk_k(config, k_table, feature, ci, e - s),
        )
        for ci, (s, e) in enumerate(plan.boundaries)
    ]
    if config.mechanism == "cfpa":
        return cfpa(x, plan, per_chunk, config.epsilon, src, config.symmetric)
    return dcfpa(
        x, plan, per_chunk, config.epsilon, src, config.symmetric, config.literal_reconstruct
    )


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
    accounting report per label group.

    Sensitivities are computed per (label value, feature) group unless
    precomputed tables are supplied; a supplied table must have been
    built for the plan this configuration uses on the group, or the run
    fails with ConfigurationError. A supplied k table likewise must hold
    every group, tuned for the plan the group is released with.
    Recordings shorter than their
    group's maximum length are zero-padded for perturbation (matching
    the padded sensitivity definition) and trimmed back on release.
    Noise streams are addressed by (recording index, feature index), so
    output is independent of worker count.
    """
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    labels = corpus.label_values(label_kind)
    group_length: dict[str, int] = {}
    plans: dict[str, ChunkPlan] = {}
    tables: dict[str, SensitivityTable] = {}
    reports: dict[str, MechanismReport] = {}
    ks: dict[str, Mapping[tuple[str, int], int] | None] = {}
    for value in labels:
        group = corpus.group(label_kind, value)
        n = max(m.length for m in group)
        group_length[value] = n
        plans[value] = config.plan_for(n)
        if sens_tables is not None:
            if value not in sens_tables:
                raise ConfigurationError(f"no sensitivity table for label {value!r}")
            table = sens_tables[value]
            if table.plan != plans[value]:
                built = (
                    "no recorded chunk plan"
                    if table.plan is None
                    else f"chunk size {table.plan.chunk_size} over length {table.plan.total_length}"
                )
                raise ConfigurationError(
                    f"sensitivity table for label {value!r} was built for {built}; "
                    f"{config.mechanism} needs chunk size {plans[value].chunk_size} "
                    f"over length {n}"
                )
            tables[value] = table
        else:
            tables[value] = build_group_table(
                corpus,
                label_kind,
                value,
                plans[value],
                norms=(config.norm_order,),
                domains=(config.domain,),
            )
        ks[value] = None
        if k_table is not None:
            if value not in k_table.plans:
                raise ConfigurationError(f"no k table entries for label {value!r}")
            tuned = k_table.plans[value]
            if tuned != plans[value]:
                raise ConfigurationError(
                    f"k table for label {value!r} was tuned for chunk size {tuned.chunk_size} "
                    f"over length {tuned.total_length}; {config.mechanism} needs chunk size "
                    f"{plans[value].chunk_size} over length {n}"
                )
            ks[value] = k_table.mapping(value)
        reports[value] = build_report(
            config,
            tables[value],
            corpus.schema,
            n,
            excluded=corpus.excluded_features,
            k_table=ks[value],
        )

    def one_recording(index_matrix: tuple[int, FeatureMatrix]) -> FeatureMatrix:
        r, m = index_matrix
        value = m.labels[label_kind]
        n_group = group_length[value]
        plan = plans[value]
        sens = tables[value]
        group_ks = ks[value]
        out = np.empty_like(m.values)
        for f, feature in enumerate(corpus.schema):
            x = m.values[:, f]
            if feature in corpus.excluded_features:
                out[:, f] = x
                continue
            padded = np.zeros(n_group, dtype=np.float64)
            padded[: x.size] = x
            noisy = _apply_mechanism(
                padded, config, sens, feature, plan, src.derive(r, f, 0), group_ks
            )
            if config.clamp:
                noisy = clamp_nonnegative(noisy)
            out[:, f] = noisy[: x.size]
        return FeatureMatrix(
            recording_id=m.recording_id,
            participant_id=m.participant_id,
            labels=dict(m.labels),
            feature_names=m.feature_names,
            values=out,
        )

    indexed = list(enumerate(corpus.matrices))
    if jobs == 1:
        matrices = [one_recording(im) for im in indexed]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            matrices = list(pool.map(one_recording, indexed))
    noisy_corpus = Corpus(
        matrices=tuple(matrices),
        schema=corpus.schema,
        excluded_features=corpus.excluded_features,
    )
    return noisy_corpus, reports
