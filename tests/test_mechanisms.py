"""Mechanism behavior: noise scales measured against a degenerate
transform, exact identities at zero sensitivity, chunk composition,
budget accounting, and whole-corpus perturbation."""
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from privseq import mechanisms, transform
from privseq.core import (
    Corpus,
    FeatureMatrix,
    ParameterError,
    chunk_plan,
)
from privseq.mechanisms import (
    MechanismConfig,
    clamp_nonnegative,
    fpa_lambda,
    lpa_lambda,
    perturb_corpus,
)
from privseq.noise import NoiseSource, unit_laplace
from privseq.dataio import SynthSpec, synth_corpus
from privseq.sensitivity import DIFFERENCE, RAW, SensitivityTable, build_group_table
from privseq.tuning import KTable
from helpers import released_row


def _src(*coords):
    return NoiseSource(seed=1234).derive(*coords)


LPA = MechanismConfig("lpa", 1.0)


def _matrix(rid, pid, label, values, names):
    return FeatureMatrix(
        recording_id=rid,
        participant_id=pid,
        labels={"category": label},
        feature_names=names,
        values=np.asarray(values, dtype=np.float64),
    )


def _corpus(lengths=(12, 12, 12, 12), excluded=()):
    """Two groups of two recordings; the columns named in excluded are
    zeroed, so the corpus excludes them."""
    rng = np.random.default_rng(42)
    names = ("f0", "f1")
    labels = ["a", "a", "b", "b"]
    mats = []
    for i in range(4):
        values = rng.standard_normal((lengths[i], 2)) + 10.0
        values[:, [names.index(f) for f in excluded]] = 0.0
        mats.append(_matrix(f"r{i}", f"p{i}", labels[i], values, names))
    return Corpus(matrices=tuple(mats), schema=names)


# --- lpa ---------------------------------------------------------------


def test_lpa_zero_sensitivity_is_exact_copy():
    # a unit whose scale is 0 releases S, here the signal, bit for bit
    x = np.array([1.0, -2.0, -0.0, 3.5])
    out = released_row(x, LPA, [(0.0, 4)], _src(0))
    assert out.tobytes() == x.tobytes()
    assert out is not x


def test_lpa_noise_scale():
    # delta1/epsilon = 3/2; mean |noise| of Laplace(lam) is lam
    # and the noise is the first n of the stream's 2n draws, which are the
    # draws of an n-draw read
    n = 200_000
    x = np.zeros(n)
    out = released_row(x, MechanismConfig("lpa", 2.0), [(3.0, n)], _src(1))
    assert abs(np.mean(np.abs(out)) / 1.5 - 1.0) < 0.02
    assert np.array_equal(out, 1.5 * unit_laplace(_src(1).generator(), n))


def test_lpa_deterministic_and_length_preserving():
    x = np.arange(17, dtype=np.float64)
    config = MechanismConfig("lpa", 0.5)
    a = released_row(x, config, [(1.0, 17)], _src(2))
    b = released_row(x, config, [(1.0, 17)], _src(2))
    assert np.array_equal(a, b)
    assert a.shape == x.shape


def test_lpa_error_shrinks_with_epsilon():
    rng = np.random.default_rng(0)
    x = 100.0 + rng.standard_normal(64)
    root = _src(3)
    mse = []
    for eps in (0.48, 4.8, 48.0):
        errs = [
            np.mean((released_row(x, MechanismConfig("lpa", eps), [(1.0, 64)], root.derive(i)) - x) ** 2)
            for i in range(100)
        ]
        mse.append(np.mean(errs))
    assert mse[0] > mse[1] > mse[2]


def test_lpa_validation():
    x = np.ones(4)
    with pytest.raises(ParameterError):
        MechanismConfig("lpa", 0.0)
    with pytest.raises(ParameterError):
        released_row(x, LPA, [(-1.0, 4)], _src(4))
    # a released signal is a column of a recording, which is never empty
    for values in (np.ones((0, 1)), np.ones(4)):
        with pytest.raises(ParameterError):
            _matrix("r0", "p0", "a", values, ("f0",))


# --- fpa_lambda ----------------------------------------------------------


def test_fpa_lambda_hand_values():
    assert abs(fpa_lambda(64, 8, 2.0, 1.0) - 32.0 * math.sqrt(2.0)) < 1e-12
    assert fpa_lambda(1, 1, 1.0, 1.0) == 1.0
    assert fpa_lambda(10, 3, 0.0, 2.0) == 0.0


def test_fpa_lambda_epsilon_halving_is_exact():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(1, 1000))
        k = int(rng.integers(1, n + 1))
        d = float(rng.uniform(0.01, 100.0))
        e = float(rng.uniform(0.01, 50.0))
        assert fpa_lambda(n, k, d, 2.0 * e) == fpa_lambda(n, k, d, e) / 2.0


def test_fpa_lambda_validation():
    with pytest.raises(ParameterError):
        fpa_lambda(0, 1, 1.0, 1.0)
    with pytest.raises(ParameterError):
        fpa_lambda(4, 0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        fpa_lambda(4, 5, 1.0, 1.0)
    with pytest.raises(ParameterError):
        fpa_lambda(4, 2, 1.0, -1.0)
    with pytest.raises(ParameterError):
        fpa_lambda(4, 2, math.inf, 1.0)


def test_underflowing_scales_are_rejected():
    # A positive sensitivity must never yield a zero or subnormal scale:
    # the release would carry (almost) no noise at a claimed epsilon.
    tiny = sys.float_info.min
    assert fpa_lambda(1, 1, 0.0, 2.0) == 0.0 and lpa_lambda(0.0, 2.0) == 0.0
    assert lpa_lambda(2.0 * tiny, 2.0) == tiny
    assert fpa_lambda(1, 1, 2.0 * tiny, 2.0) == tiny
    for scale in (lpa_lambda, lambda d, e: fpa_lambda(1, 1, d, e)):
        for delta, epsilon in ((5e-324, 2.0), (tiny, 2.0), (1e-300, 1e10)):
            with pytest.raises(ParameterError):
                scale(delta, epsilon)
    with pytest.raises(ParameterError):
        released_row(np.zeros(3), MechanismConfig("lpa", 4.0), [(5e-324, 3)], _src(0))
    with pytest.raises(ParameterError):
        lpa_lambda(-1.0, 1.0)


def test_overflowing_scales_are_rejected():
    # A scale that overflows to inf is no noise scale: a ParameterError,
    # with no RuntimeWarning on the way (warnings are errors here).
    for scale in (lpa_lambda, lambda d, e: fpa_lambda(4, 4, d, e)):
        for delta, epsilon in ((1.0, 1e-320), (1e300, 1e-10), (sys.float_info.max, 0.5)):
            with pytest.raises(ParameterError, match="noise scale inf .* overflows"):
                scale(delta, epsilon)
    assert lpa_lambda(0.0, 1e-320) == 0.0


def _g(n, k):
    return k if k <= n // 2 + 1 else 3 * k - n - 2 + n % 2


def _noised_coordinates(n, k):
    # A maps a real chunk d to the 2k values the core noises:
    # (Re F_0..F_{k-1}, Im F_0..F_{k-1}), F_j = sum_t d_t e^{-2 pi i j t / n}.
    angles = 2.0 * math.pi * np.outer(np.arange(k), np.arange(n)) / n
    return np.vstack([np.cos(angles), -np.sin(angles)])


def test_fpa_lambda_covers_the_exact_l1_sensitivity_of_the_noised_coordinates():
    # The release is eps-DP when lam >= sup ||A d||_1 * delta2 / eps over
    # ||d||_2 <= 1, and sup ||A d||_1^2 / (n ||d||_2^2) = max over sign
    # vectors s of ||A^T s||_2^2 / n. Enumerate every s (the first sign
    # fixed, as s and -s agree) as one matrix product.
    for n in range(1, 9):
        for k in range(1, n + 1):
            a = _noised_coordinates(n, k)
            bits = np.arange(2 ** (2 * k - 1))[:, np.newaxis] >> np.arange(2 * k - 1) & 1
            signs = np.hstack([np.ones((bits.shape[0], 1)), 1.0 - 2.0 * bits])
            sup = float(np.max(np.sum((signs @ a) ** 2, axis=1))) / n
            g = _g(n, k)
            assert abs(sup - g) < 1e-9 * g, (n, k, sup, g)
            assert fpa_lambda(n, k, 1.7, 0.3) == math.sqrt(n) * math.sqrt(g) * 1.7 / 0.3, (n, k)
    assert abs(fpa_lambda(64, 8, 2.0, 1.0) - 32.0 * math.sqrt(2.0)) < 1e-12


# --- fpa -----------------------------------------------------------------


def test_fpa_noise_scale_via_degenerate_transform(monkeypatch):
    # With the transform replaced by a pass-through, the output of fpa on
    # a zero signal is exactly lam times the real-part draws, so the mean
    # absolute output measures the noise scale directly.
    monkeypatch.setattr(transform, "dft_batch", lambda x: np.asarray(x, dtype=np.complex128))
    monkeypatch.setattr(transform, "idft_batch", lambda f: np.asarray(f, dtype=np.complex128))
    n = 400_000
    lam = fpa_lambda(n, n, 2.0, 5.0)
    out = released_row(np.zeros(n), MechanismConfig("fpa", 5.0), [(2.0, n)], _src(5))
    assert abs(np.mean(np.abs(out)) / lam - 1.0) < 0.02


def test_cfpa_draw_layout_via_degenerate_transform(monkeypatch):
    # With pass-through transforms the real part of the inverse shows each
    # chunk's real-part draws and, rotated by -i, its imaginary-part draws:
    # bin j of chunk i reads the pair at 2*(start_i + j) of a 2n-value row,
    # real parts at even offsets from 2*start_i, imaginary parts at odd ones.
    config = MechanismConfig("cfpa", 1.0, chunk_size=4)
    plan = config.plan_for(10)
    per_chunk = [(1.0, 2), (2.0, 4), (3.0, 1)]
    draws = unit_laplace(_src(21).generator(), 20)
    lams = [fpa_lambda(c, k, d, 1.0) for c, (d, k) in zip(plan.chunk_lengths(), per_chunk)]
    monkeypatch.setattr(transform, "dft_batch", lambda x: np.asarray(x, dtype=np.complex128))
    for rotate, first in ((1.0, 0), (-1j, 1)):
        monkeypatch.setattr(transform, "idft_batch", lambda f, r=rotate: r * np.asarray(f))
        out = released_row(np.zeros(10), config, per_chunk, _src(21))
        expected = np.zeros(10)
        for (s, e), (_, k), lam in zip(plan.boundaries, per_chunk, lams):
            expected[s : s + k] = lam * draws[2 * s + first : 2 * (s + k) : 2]
        assert np.array_equal(out, expected), rotate


def test_fpa_zero_sensitivity_full_retention_is_roundtrip():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(128) * 50.0
    out = released_row(x, MechanismConfig("fpa", 1.0), [(0.0, 128)], _src(6))
    assert np.max(np.abs(out - x)) < 1e-10 * max(1.0, np.max(np.abs(x)))


def test_fpa_constant_signal_k1_stays_constant():
    x = np.full(64, 7.25)
    out = released_row(x, MechanismConfig("fpa", 1.0), [(1.0, 1)], _src(7))
    assert out.shape == x.shape
    assert np.max(out) - np.min(out) < 1e-9 * max(1.0, np.max(np.abs(out)))


def test_fpa_preserves_odd_lengths_and_is_deterministic():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(37)
    config = MechanismConfig("fpa", 2.0)
    a = released_row(x, config, [(1.0, 5)], _src(8))
    b = released_row(x, config, [(1.0, 5)], _src(8))
    assert a.shape == (37,)
    assert np.array_equal(a, b)


def test_fpa_k_out_of_range():
    # k < 1 is MechanismConfig's (test_mechanism_config_validation)
    with pytest.raises(ParameterError, match="k=9 out of range"):
        perturb_corpus(
            _corpus(lengths=(8,) * 4), "category", MechanismConfig("fpa", 1.0, k=9), NoiseSource(9)
        )


# --- cfpa ----------------------------------------------------------------


def test_cfpa_single_chunk_matches_fpa_bitwise():
    # one full-length chunk is the whole signal: the same plan, sensitivity,
    # scale and stream, so the same bits
    corpus = _corpus(lengths=(64,) * 4)
    for k in (64, 7):
        via_cfpa, cfpa_reports = perturb_corpus(
            corpus, "category", MechanismConfig("cfpa", 2.4, chunk_size=64, k=k), NoiseSource(10)
        )
        via_fpa, fpa_reports = perturb_corpus(
            corpus, "category", MechanismConfig("fpa", 2.4, k=k), NoiseSource(10)
        )
        for a, b in zip(via_cfpa.matrices, via_fpa.matrices):
            assert a.values.tobytes() == b.values.tobytes(), k
        for value, report in cfpa_reports.items():
            assert report.per_unit == fpa_reports[value].per_unit and report.per_unit


def test_cfpa_leading_chunks_do_not_depend_on_later_ones():
    # noise draws advance chunk by chunk, so the first chunk's output is
    # the same whether or not more chunks follow
    rng = np.random.default_rng(4)
    x = rng.standard_normal(96)
    config = MechanismConfig("cfpa", 1.0, chunk_size=32)
    whole = released_row(x, config, [(1.0, 32)] * 3, _src(11))
    first = released_row(x[:32], config, [(1.0, 32)], _src(11))
    assert np.array_equal(whole[:32], first)


def test_cfpa_zero_sensitivity_full_retention_is_roundtrip():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(100)
    config = MechanismConfig("cfpa", 1.0, chunk_size=32)
    per_chunk = [(0.0, c) for c in config.plan_for(100).chunk_lengths()]
    out = released_row(x, config, per_chunk, _src(12))
    assert np.max(np.abs(out - x)) < 1e-10


def test_cfpa_symmetric_zero_noise_matches_transform_completion():
    # with no noise, each chunk is the inverse of its conjugate-completed
    # truncated spectrum, mirror overlaps and full retention included
    rng = np.random.default_rng(9)
    x = rng.standard_normal(23) * 5.0
    config = MechanismConfig("cfpa", 1.0, chunk_size=8, symmetric=True)
    plan = config.plan_for(23)
    for ks in ((1, 1, 1), (3, 5, 7), (8, 8, 7), (5, 2, 4)):
        out = released_row(x, config, [(0.0, k) for k in ks], _src(20))
        for (s, e), k in zip(plan.boundaries, ks):
            f = np.fft.fft(x[s:e])
            mirrored = np.zeros(e - s, dtype=np.complex128)
            mirrored[:k] = f[:k]
            for j in range(1, k):
                if e - s - j >= k:
                    mirrored[e - s - j] = np.conj(f[j])
            assert np.array_equal(out[s:e], np.fft.ifft(mirrored).real), (ks, s)


@pytest.mark.parametrize("mechanism", ["cfpa", "dcfpa"])
def test_symmetric_noise_matches_a_direct_completion_of_the_noise_bins(mechanism):
    # N inverts each chunk's retained unit-noise bins, completed with the
    # conjugates of their mirrors, and dcfpa sums it back: mirror
    # overlaps, k = 1, full retention and a remainder chunk
    plan = chunk_plan(23, 8)
    difference = mechanism == "dcfpa"
    draws = np.stack([unit_laplace(_src(30, r).generator(), 46) for r in range(3)])
    pairs = np.empty((3, 23), dtype=np.complex128)
    pairs.real, pairs.imag = draws[:, 0::2], draws[:, 1::2]
    spectra = mechanisms.fpa_spectra(np.zeros((1, 23)), plan, difference)
    for ks in ((1, 1, 1), (3, 5, 7), (8, 8, 7), (5, 2, 4), (6, 8, 1)):
        _, unit = mechanisms.fpa_parts(spectra, plan, ks, draws, difference, symmetric=True)
        for (s, e), k in zip(plan.boundaries, ks):
            bins = np.zeros((3, e - s), dtype=np.complex128)
            bins[:, :k] = pairs[:, s : s + k]
            for j in range(1, k):
                if e - s - j >= k:
                    bins[:, e - s - j] = np.conj(pairs[:, s + j])
            want = np.fft.ifft(bins, axis=1).real
            want = np.cumsum(want, axis=1) if difference else want
            assert np.array_equal(unit[:, s:e], want), (ks, s)


def test_cfpa_validation():
    # each k within its chunk and each sensitivity finite and >= 0; a
    # table for another plan is
    # test_perturb_corpus_rejects_tables_built_for_another_plan
    config = MechanismConfig("cfpa", 1.0, chunk_size=4)
    # the table meets a negative sensitivity first; _noise_scale rejects
    # any that reaches it
    bad = r"sensitivity for \('x', 0, 'raw', 2\) must be finite and >= 0, got -1.0"
    with pytest.raises(ParameterError, match=bad):
        released_row(np.ones(8), config, [(-1.0, 4), (1.0, 4)], _src(13))
    for delta in (-1.0, math.nan, math.inf):
        with pytest.raises(ParameterError, match=f"sensitivity must be finite and >= 0, got {delta}"):
            fpa_lambda(4, 4, delta, 1.0)
    with pytest.raises(ParameterError, match=r"k=5 out of range \[1, 4\]"):
        perturb_corpus(
            _corpus(lengths=(8,) * 4), "category",
            MechanismConfig("cfpa", 1.0, chunk_size=4, k=5), NoiseSource(13),
        )


# --- dcfpa ---------------------------------------------------------------


def test_dcfpa_zero_noise_full_retention_is_roundtrip():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(96).cumsum() + 100.0
    out = released_row(x, MechanismConfig("dcfpa", 1.0, chunk_size=32), [(0.0, 32)] * 3, _src(14))
    assert np.max(np.abs(out - x)) < 1e-9 * max(1.0, np.max(np.abs(x)))


def test_dcfpa_deterministic_and_length_preserving():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(50)
    config = MechanismConfig("dcfpa", 2.0, chunk_size=16)
    per_chunk = [(0.5, min(8, c)) for c in config.plan_for(50).chunk_lengths()]
    a = released_row(x, config, per_chunk, _src(16))
    b = released_row(x, config, per_chunk, _src(16))
    assert a.shape == (50,)
    assert np.array_equal(a, b)


def test_clamp_nonnegative():
    out = clamp_nonnegative(np.array([-1.5, 0.0, 2.0]))
    assert np.array_equal(out, [0.0, 0.0, 2.0])


# --- MechanismConfig -------------------------------------------------------


def test_mechanism_config_validation():
    with pytest.raises(ParameterError):
        MechanismConfig(mechanism="dft", epsilon=1.0)
    with pytest.raises(ParameterError):
        MechanismConfig(mechanism="lpa", epsilon=0.0)
    with pytest.raises(ParameterError):
        MechanismConfig(mechanism="cfpa", epsilon=1.0)
    with pytest.raises(ParameterError):
        MechanismConfig(mechanism="dcfpa", epsilon=1.0, chunk_size=0)
    with pytest.raises(ParameterError):
        MechanismConfig(mechanism="fpa", epsilon=1.0, k=0)
    # a variant flag that would change nothing is rejected, not ignored
    with pytest.raises(ParameterError, match="symmetric does not apply to lpa"):
        MechanismConfig(mechanism="lpa", epsilon=1.0, symmetric=True)
    with pytest.raises(ParameterError, match="k does not apply to lpa"):
        MechanismConfig("lpa", 1.0, k=3)
    MechanismConfig("dcfpa", 1.0, 4, symmetric=True)


def test_mechanism_config_counts_are_integers():
    # a float k was truncated and a bool was a count; numpy's integers
    # are integers, and lpa and fpa ignore any chunk_size
    for field, bad in itertools.product(("chunk_size", "k"), (2.5, 16.0, True, "16")):
        with pytest.raises(ParameterError, match=f"{field} must be an integer, got {bad!r}"):
            MechanismConfig("cfpa", 1.0, **{"chunk_size": 16, field: bad})
    config = MechanismConfig("dcfpa", 1.0, np.int64(16), np.int32(3))
    assert (config.chunk_size, config.k) == (16, 3)
    assert type(config.chunk_size) is type(config.k) is int
    assert MechanismConfig("fpa", 1.0, chunk_size=16.0).chunk_size is None


def test_mechanism_config_derived_properties():
    lpa_cfg = MechanismConfig(mechanism="lpa", epsilon=1.0)
    assert lpa_cfg.norm_order == 1 and lpa_cfg.domain == RAW
    assert lpa_cfg.plan_for(10).boundaries == ((0, 10),)

    d_cfg = MechanismConfig(mechanism="dcfpa", epsilon=1.0, chunk_size=4)
    assert d_cfg.norm_order == 2 and d_cfg.domain == DIFFERENCE
    assert d_cfg.plan_for(10).boundaries == ((0, 4), (4, 8), (8, 10))


# --- the report of a release ----------------------------------------------------


def _table(feature_values, plan, domain, norm, group="g"):
    entries = {}
    for feature, v in feature_values.items():
        for ci in range(len(plan)):
            entries[(feature, ci, domain, norm)] = v
    return SensitivityTable(entries=entries, group_label=group, plan=plan)


def _group(names, length, excluded=()):
    """Group "g" of two recordings of ones, zeros in the excluded columns:
    perturb_corpus reads each sensitivity from the table it is given, so
    the data add nothing but which features are excluded."""
    values = np.ones((length, len(names)))
    values[:, [names.index(f) for f in excluded]] = 0.0
    mats = tuple(_matrix(f"r{i}", f"p{i}", "g", values, tuple(names)) for i in range(2))
    return Corpus(matrices=mats, schema=tuple(names))


def test_report_parallel_across_chunks():
    config = MechanismConfig(mechanism="cfpa", epsilon=2.4, chunk_size=4)
    sens = _table({"f0": 1.0}, chunk_plan(12, 4), RAW, 2)
    _, reports = perturb_corpus(_group(["f0"], 12), "category", config, NoiseSource(0),
                                sens_tables={"g": sens})
    report = reports["g"]
    assert len(report.per_unit) == 3
    assert report.per_feature_epsilon == {"f0": 2.4}
    assert report.total_epsilon == 2.4


def test_report_sequence_figures_sum_each_features_units():
    # Swapping a recording changes every chunk, so the sequence figure
    # sums a feature's units, where the chunk figure keeps their max. A
    # unit left out for zero sensitivity adds nothing to either.
    config = MechanismConfig(mechanism="dcfpa", epsilon=2.4, chunk_size=4)
    deltas = {"f0": (1.0, 1.0, 1.0), "f1": (0.0, 1.0, 0.0), "f2": (0.0, 0.0, 0.0)}
    sens = SensitivityTable(
        entries={(f, ci, DIFFERENCE, 2): d for f, ds in deltas.items() for ci, d in enumerate(ds)},
        group_label="g",
        plan=chunk_plan(12, 4),
    )
    _, reports = perturb_corpus(_group(list(deltas), 12), "category", config, NoiseSource(0),
                                sens_tables={"g": sens})
    report = reports["g"]
    assert report.per_feature_epsilon == {"f0": 2.4, "f1": 2.4, "f2": 0.0}
    assert report.total_epsilon == 4.8
    seq = report.sequence_per_feature_epsilon
    assert seq == {"f0": math.fsum([2.4] * 3), "f1": 2.4, "f2": 0.0}
    assert math.isclose(seq["f0"], 7.2, rel_tol=1e-12)
    assert report.sequence_total_epsilon == math.fsum(seq.values())
    assert math.isclose(report.sequence_total_epsilon, 9.6, rel_tol=1e-12)
    payload = report.payload()
    assert (payload["chunk_total_epsilon"], payload["sequence_total_epsilon"]) == (
        report.total_epsilon, report.sequence_total_epsilon
    )
    assert payload["chunk_per_feature_epsilon"] == report.per_feature_epsilon
    assert payload["sequence_per_feature_epsilon"] == seq
    # one whole-signal unit per feature: the two figures agree
    for mechanism, norm in (("lpa", 1), ("fpa", 2)):
        config = MechanismConfig(mechanism=mechanism, epsilon=2.4)
        sens = _table({"f0": 1.0, "f1": 2.0}, chunk_plan(12, 12), RAW, norm)
        _, reports = perturb_corpus(_group(["f0", "f1"], 12), "category", config, NoiseSource(0),
                                    sens_tables={"g": sens})
        report = reports["g"]
        assert report.sequence_per_feature_epsilon == report.per_feature_epsilon
        assert report.sequence_total_epsilon == report.total_epsilon == 4.8


def test_report_sums_across_features():
    config = MechanismConfig(mechanism="lpa", epsilon=0.05)
    names = [f"f{i:02d}" for i in range(48)]
    sens = _table({name: 1.0 for name in names}, chunk_plan(4, 4), RAW, 1)
    _, reports = perturb_corpus(_group(names, 4), "category", config, NoiseSource(0),
                                sens_tables={"g": sens})
    report = reports["g"]
    assert math.isclose(report.total_epsilon, 2.4, rel_tol=1e-12)
    assert all(report.per_feature_epsilon[n] == 0.05 for n in names)


def test_report_zero_sensitivity_feature_contributes_nothing():
    config = MechanismConfig(mechanism="fpa", epsilon=1.0)
    sens = SensitivityTable(
        entries={("f0", 0, RAW, 2): 0.0, ("f1", 0, RAW, 2): 2.0}, group_label="g",
        plan=chunk_plan(8, 8),
    )
    _, reports = perturb_corpus(_group(["f0", "f1"], 8), "category", config, NoiseSource(0),
                                sens_tables={"g": sens})
    report = reports["g"]
    assert report.per_feature_epsilon == {"f0": 0.0, "f1": 1.0}
    assert report.total_epsilon == 1.0
    assert [u.feature for u in report.per_unit] == ["f1"]


def test_report_skips_excluded_features():
    config = MechanismConfig(mechanism="lpa", epsilon=1.0)
    sens = _table({"f0": 1.0, "f1": 1.0}, chunk_plan(4, 4), RAW, 1)
    _, reports = perturb_corpus(_group(["f0", "f1"], 4, excluded={"f1"}), "category", config,
                                NoiseSource(0), sens_tables={"g": sens})
    report = reports["g"]
    assert "f1" not in report.per_feature_epsilon
    assert report.total_epsilon == 1.0


def test_report_missing_sensitivity_is_configuration_error():
    config = MechanismConfig(mechanism="fpa", epsilon=1.0)
    sens = _table({"f0": 1.0}, chunk_plan(8, 8), RAW, 2)
    with pytest.raises(ParameterError, match=r"no sensitivity entry for \('f1', 0"):
        perturb_corpus(_group(["f0", "f1"], 8), "category", config, NoiseSource(0),
                       sens_tables={"g": sens})


def test_report_doubling_epsilon_halves_every_scale():
    sens = _table({"f0": 1.3, "f1": 0.7}, chunk_plan(12, 4), RAW, 2)
    r1, r2 = (
        perturb_corpus(_group(["f0", "f1"], 12), "category",
                       MechanismConfig(mechanism="cfpa", epsilon=eps, chunk_size=4),
                       NoiseSource(0), sens_tables={"g": sens})[1]["g"]
        for eps in (1.2, 2.4)
    )
    assert len(r1.per_unit) == len(r2.per_unit) == 6
    for u1, u2 in zip(r1.per_unit, r2.per_unit):
        assert u2.lam == u1.lam / 2.0
    assert r2.total_epsilon == 2.0 * r1.total_epsilon


def test_report_k_table_entries():
    config = MechanismConfig(mechanism="cfpa", epsilon=1.0, chunk_size=4)
    plan = chunk_plan(8, 4)
    sens = _table({"f0": 1.0}, plan, RAW, 2)

    def release(ks):
        table = KTable(entries={("g", "f0", ci): k for ci, k in ks.items()}, runs_used=1,
                       epsilon_used=1.0, plans={"g": plan}, mechanism="cfpa")
        return perturb_corpus(_group(["f0"], 8), "category", config, NoiseSource(0),
                              sens_tables={"g": sens}, k_table=table)[1]["g"]

    assert [u.k for u in release({0: 2, 1: 3}).per_unit] == [2, 3]
    with pytest.raises(ParameterError, match="no entry for feature 'f0' chunk 1"):
        release({0: 2})
    with pytest.raises(ParameterError, match="k=9 out of range"):
        release({0: 9, 1: 1})


# --- perturb_corpus ----------------------------------------------------------


def test_perturb_corpus_basic_shape_and_reports():
    corpus = _corpus()
    config = MechanismConfig(mechanism="cfpa", epsilon=2.4, chunk_size=4)
    noisy, reports = perturb_corpus(corpus, "category", config, NoiseSource(seed=7))
    assert noisy.schema == corpus.schema
    assert len(noisy.matrices) == 4
    for before, after in zip(corpus.matrices, noisy.matrices):
        assert after.values.shape == before.values.shape
        assert after.recording_id == before.recording_id
        assert not np.array_equal(after.values, before.values)
    assert set(reports) == {"a", "b"}
    for report in reports.values():
        assert report.mechanism == "cfpa"
        assert math.isclose(
            report.total_epsilon, sum(report.per_feature_epsilon.values()), rel_tol=1e-12
        )


def test_perturb_corpus_releases_a_zero_feature_as_its_zeros():
    corpus = _corpus(excluded=("f1",))
    assert corpus.excluded_features == frozenset({"f1"})
    config = MechanismConfig(mechanism="lpa", epsilon=1.0)
    noisy, reports = perturb_corpus(corpus, "category", config, NoiseSource(seed=7))
    assert noisy.excluded_features == frozenset({"f1"})
    for before, after in zip(corpus.matrices, noisy.matrices):
        assert after.values[:, 1].tobytes() == before.values[:, 1].tobytes()
        assert not np.array_equal(after.values[:, 0], before.values[:, 0])
    for report in reports.values():
        assert "f1" not in report.per_feature_epsilon


@st.composite
def _zero_column_corpora(draw):
    """1-4 recordings of lengths 1-8 in groups a and b, over 1-3
    features; each recording's column is zeros, -0.0s or random values."""
    features = draw(st.integers(1, 3))
    names = tuple(f"f{j}" for j in range(features))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = []
    for i in range(draw(st.integers(1, 4))):
        length = draw(st.integers(1, 8))
        kinds = draw(st.lists(st.sampled_from((0.0, -0.0, None)), min_size=features,
                              max_size=features))
        values = np.column_stack([
            rng.standard_normal(length) if z is None else np.full(length, z) for z in kinds
        ])
        mats.append(_matrix(f"r{i}", f"p{i}", draw(st.sampled_from("ab")), values, names))
    return mats, names


@given(case=_zero_column_corpora())
@settings(max_examples=60, deadline=None)
def test_excluded_features_are_the_all_zero_columns(case):
    mats, names = case
    corpus = Corpus(matrices=tuple(mats), schema=names)
    zero = {f for j, f in enumerate(names) if not any(np.any(m.values[:, j]) for m in mats)}
    assert corpus.excluded_features == zero
    assert Corpus(matrices=(), schema=names).excluded_features == frozenset()
    # release the recordings of every group of two or more
    labels = [m.labels["category"] for m in mats]
    kept = Corpus(tuple(m for m in mats if labels.count(m.labels["category"]) >= 2), names)
    if not kept.matrices:
        return
    for mechanism in mechanisms.MECHANISMS:
        chunk = None if mechanism in ("lpa", "fpa") else 2
        config = MechanismConfig(mechanism=mechanism, epsilon=1.0, chunk_size=chunk)
        noisy, reports = perturb_corpus(kept, "category", config, NoiseSource(3))
        assert all(r.features == kept.included_features for r in reports.values())
        for before, after in zip(kept.matrices, noisy.matrices):
            for j, f in enumerate(names):
                if f in kept.excluded_features:
                    assert after.values[:, j].tobytes() == before.values[:, j].tobytes()


def test_perturb_corpus_jobs_invariant():
    corpus = _corpus()
    config = MechanismConfig(mechanism="dcfpa", epsilon=1.2, chunk_size=4)
    one, _ = perturb_corpus(corpus, "category", config, NoiseSource(seed=9), jobs=1)
    many, _ = perturb_corpus(corpus, "category", config, NoiseSource(seed=9), jobs=3)
    for m1, m3 in zip(one.matrices, many.matrices):
        assert np.array_equal(m1.values, m3.values)


def test_perturb_corpus_pads_and_trims_mixed_lengths():
    corpus = _corpus(lengths=(12, 9, 12, 7))
    config = MechanismConfig(mechanism="fpa", epsilon=4.8)
    noisy, _ = perturb_corpus(corpus, "category", config, NoiseSource(seed=11))
    for before, after in zip(corpus.matrices, noisy.matrices):
        assert after.values.shape == before.values.shape


def test_perturb_corpus_precomputed_tables_match_inline():
    from privseq.sensitivity import build_group_table

    corpus = _corpus()
    config = MechanismConfig(mechanism="cfpa", epsilon=2.4, chunk_size=4)
    plan = chunk_plan(12, 4)
    tables = {
        value: build_group_table(
            corpus, "category", value, plan, norms=(2,), domains=(RAW,)
        )
        for value in ("a", "b")
    }
    inline, _ = perturb_corpus(corpus, "category", config, NoiseSource(seed=13))
    pre, _ = perturb_corpus(
        corpus, "category", config, NoiseSource(seed=13), sens_tables=tables
    )
    for m1, m2 in zip(inline.matrices, pre.matrices):
        assert np.array_equal(m1.values, m2.values)
    with pytest.raises(ParameterError, match="no sensitivity table for label 'b'"):
        perturb_corpus(
            corpus, "category", config, NoiseSource(seed=13), sens_tables={"a": tables["a"]}
        )


def test_perturb_corpus_rejects_tables_built_for_another_plan():
    # A table's chunk indices only mean something against the plan it was
    # built for; read against another plan it gives too little noise while
    # the report still claims the full budget.
    from privseq.sensitivity import SensitivityTable, build_group_table

    corpus = _corpus()
    tables = {
        value: build_group_table(corpus, "category", value, chunk_plan(12, 4))
        for value in ("a", "b")
    }
    config = MechanismConfig(mechanism="cfpa", epsilon=2.4, chunk_size=6)
    with pytest.raises(ParameterError, match="chunk size 4 over length 12"):
        perturb_corpus(corpus, "category", config, NoiseSource(seed=13), sens_tables=tables)
    matching = MechanismConfig(mechanism="cfpa", epsilon=2.4, chunk_size=4)
    planless = {v: SensitivityTable(t.entries, v) for v, t in tables.items()}
    with pytest.raises(ParameterError, match="no recorded chunk plan"):
        perturb_corpus(corpus, "category", matching, NoiseSource(seed=13), sens_tables=planless)
    pre, _ = perturb_corpus(corpus, "category", matching, NoiseSource(seed=13), sens_tables=tables)
    inline, _ = perturb_corpus(corpus, "category", matching, NoiseSource(seed=13))
    for m1, m2 in zip(inline.matrices, pre.matrices):
        assert np.array_equal(m1.values, m2.values)


def _k_table(values=("a", "b"), plan=chunk_plan(12, 4), k=2):
    return KTable(
        entries={(v, f, ci): k for v in values for f in ("f0", "f1") for ci in range(len(plan))},
        runs_used=1,
        epsilon_used=2.4,
        plans={v: plan for v in values},
        mechanism="cfpa",
    )


def test_perturb_corpus_k_tables_change_retention():
    corpus = _corpus()
    config = MechanismConfig(mechanism="cfpa", epsilon=2.4, chunk_size=4)
    full, _ = perturb_corpus(corpus, "category", config, NoiseSource(seed=15))
    partial, reports = perturb_corpus(
        corpus, "category", config, NoiseSource(seed=15), k_table=_k_table()
    )
    assert not np.array_equal(full.matrices[0].values, partial.matrices[0].values)
    for report in reports.values():
        assert all(u.k == 2 for u in report.per_unit)


def test_perturb_corpus_rejects_k_tables_for_another_plan_or_group():
    corpus = _corpus()
    config = MechanismConfig(mechanism="cfpa", epsilon=2.4, chunk_size=4)
    for table, message in (
        (_k_table(plan=chunk_plan(12, 6)), "tuned for chunk size 6 over length 12"),
        (_k_table(plan=chunk_plan(8, 4)), "tuned for chunk size 4 over length 8"),
        (_k_table(values=("a",)), "no k table entries for label 'b'"),
    ):
        with pytest.raises(ParameterError, match=message):
            perturb_corpus(corpus, "category", config, NoiseSource(seed=16), k_table=table)
    fpa = MechanismConfig(mechanism="fpa", epsilon=2.4)
    with pytest.raises(ParameterError, match="fpa needs chunk size 12 over length 12"):
        perturb_corpus(corpus, "category", fpa, NoiseSource(seed=16), k_table=_k_table())


def test_perturb_corpus_matches_per_recording_calls_bitwise():
    # One block per (group, feature) through the core must give exactly
    # what the release step gives each zero-padded recording alone on
    # stream (r, f, 0) at its group's sensitivities and tuned counts:
    # remainder chunk, symmetric completion and clamping included. lpa
    # reads the first n of the block's 2n draws per stream
    # (test_lpa_noise_scale: the draws of an n-draw read).
    from privseq.sensitivity import build_group_table

    corpus = _corpus(lengths=(13, 10, 13, 11))
    names = corpus.schema
    for config in (
        MechanismConfig(mechanism="lpa", epsilon=0.7, clamp=True),
        MechanismConfig(mechanism="fpa", epsilon=2.4, symmetric=True),
        MechanismConfig(mechanism="cfpa", epsilon=2.4, chunk_size=4, symmetric=True),
        MechanismConfig(mechanism="cfpa", epsilon=0.5, chunk_size=5, clamp=True),
        MechanismConfig(mechanism="dcfpa", epsilon=2.4, chunk_size=4),
        MechanismConfig(mechanism="dcfpa", epsilon=4.8, chunk_size=5, symmetric=True, clamp=True),
    ):
        plans, tables, entries = {}, {}, {}
        for value in ("a", "b"):
            n = max(m.length for m in corpus.group("category", value))
            plans[value] = config.plan_for(n)
            tables[value] = build_group_table(
                corpus, "category", value, plans[value], norms=(config.norm_order,),
                domains=(config.domain,),
            )
            for f, feature in enumerate(names):
                for ci, length in enumerate(plans[value].chunk_lengths()):
                    entries[(value, feature, ci)] = 1 + (ci + f) % length
        k_table = None
        if config.mechanism != "lpa":
            k_table = KTable(
                entries=entries, runs_used=1, epsilon_used=1.0, plans=plans,
                mechanism=config.mechanism,
            )
        src = NoiseSource(seed=17)
        noisy, _ = perturb_corpus(
            corpus, "category", config, src, sens_tables=tables, k_table=k_table
        )
        for r, (m, out) in enumerate(zip(corpus.matrices, noisy.matrices)):
            value = m.labels["category"]
            plan = plans[value]
            for f, feature in enumerate(names):
                padded = np.zeros(plan.total_length)
                padded[: m.length] = m.values[:, f]
                per_chunk = [
                    (tables[value].value(feature, ci, config.domain, config.norm_order),
                     entries[(value, feature, ci)])
                    for ci in range(len(plan))
                ]
                direct = released_row(padded, config, per_chunk, src.derive(r, f, 0))
                if config.clamp:
                    direct = clamp_nonnegative(direct)
                assert np.array_equal(out.values[:, f], direct[: m.length]), (config, r, f)


def test_perturb_corpus_lpa_zero_sensitivity_group_is_bitwise_identity():
    # A group whose members agree on a feature has sensitivity 0 there, so
    # lpa releases that feature unchanged, as the release step does for
    # one recording at sensitivity 0: every bit, the sign of -0.0 included.
    names = ("f0", "f1")
    same = np.array([-0.0, 0.0, -0.0, 2.5, -0.0, -1.25, 0.0, -0.0])
    mats = tuple(
        _matrix(f"r{i}", f"p{i}", "a", np.column_stack([same, same + i]), names) for i in range(3)
    )
    corpus = Corpus(matrices=mats, schema=names)
    src = NoiseSource(seed=23)
    noisy, reports = perturb_corpus(
        corpus, "category", MechanismConfig(mechanism="lpa", epsilon=1.0), src
    )
    assert [u.feature for u in reports["a"].per_unit] == ["f1"]
    for r, (m, out) in enumerate(zip(corpus.matrices, noisy.matrices)):
        got = out.values[:, 0]
        assert got.tobytes() == same.tobytes()
        assert got.tobytes() == released_row(same, LPA, [(0.0, 8)], src.derive(r, 0, 0)).tobytes()
        assert not np.array_equal(out.values[:, 1], m.values[:, 1])


def test_perturb_corpus_noises_a_difference_whose_square_underflows():
    # 1e-170 squares to 0, yet the two recordings differ: every Fourier
    # mechanism must see a positive sensitivity and add noise
    zeros = np.zeros((4, 1))
    tiny = zeros.copy()
    tiny[0, 0] = 1e-170
    mats = (_matrix("r0", "p0", "a", tiny, ("f0",)), _matrix("r1", "p1", "a", zeros, ("f0",)))
    corpus = Corpus(matrices=mats, schema=("f0",))
    for mechanism in ("fpa", "cfpa", "dcfpa"):
        config = MechanismConfig(mechanism=mechanism, epsilon=1.0, chunk_size=4)
        noisy, reports = perturb_corpus(corpus, "category", config, NoiseSource(seed=5))
        (unit,) = reports["a"].per_unit
        assert unit.sensitivity >= 1e-170 and unit.lam > 0.0, mechanism
        assert not np.array_equal(noisy.matrices[1].values, zeros), mechanism


def test_chunk_noise_depends_only_on_its_own_k():
    # Each chunk reads its draws at a fixed offset, so changing chunk 0's
    # k leaves every later chunk (the remainder included) bit-identical.
    x = np.random.default_rng(11).standard_normal(10)
    for mech in ("cfpa", "dcfpa"):
        config = MechanismConfig(mech, 1.0, chunk_size=4)
        a, b = (released_row(x, config, [(1.0, k0), (2.0, 3), (0.5, 1)], _src(22)) for k0 in (1, 4))
        assert np.array_equal(a[4:], b[4:]), mech
        assert not np.array_equal(a[:4], b[:4]), mech


@st.composite
def _report_cases(draw):
    """(lengths, mechanism, epsilon, chunk size, uniform k, sensitivities,
    tuned counts) for a two-feature group; the last two list one value
    per (feature, chunk), and k and the tuned counts may be None."""
    lengths = draw(st.lists(st.integers(1, 20), min_size=2, max_size=3))
    mechanism = draw(st.sampled_from(("lpa", "fpa", "cfpa", "dcfpa")))
    epsilon = draw(st.floats(0.01, 50.0))
    # lpa keeps no coefficients, so MechanismConfig rejects a k for it
    kinds = ("full", "table") if mechanism == "lpa" else ("full", "uniform", "table")
    retention = draw(st.sampled_from(kinds))
    n = max(lengths)
    chunk = draw(st.integers(1, n + 2)) if mechanism in ("cfpa", "dcfpa") else None
    chunks = chunk_plan(n, chunk or n).chunk_lengths() * 2
    k = draw(st.integers(1, n)) if retention == "uniform" else None
    deltas = [draw(st.floats(0.0, 100.0)) for _ in chunks]
    tuned = [draw(st.integers(1, c)) for c in chunks] if retention == "table" else None
    return lengths, mechanism, epsilon, chunk, k, deltas, tuned


@given(case=_report_cases())
# A positive sensitivity whose scale underflows to 0: the 1-sample
# remainder chunk at 5e-324 and epsilon 2.
@example(case=([1, 13], "cfpa", 2.0, 4, None, [1.0, 1.0, 1.0, 5e-324] + [1.0] * 4, None))
# Chunk 0 underflows and k = 5 exceeds the 4-sample full chunks: the
# feature's k is checked before its scales.
@example(case=([13, 2], "cfpa", 2.0, 4, 5, [5e-324] + [1.0] * 7, None))
# A uniform k = 4 keeps the 1-sample remainder chunk whole.
@example(case=([13, 2], "cfpa", 2.0, 4, 4, [1.0] * 8, None))
# k = 6 exceeds the one 5-sample chunk of a plan of 8-sample chunks.
@example(case=([5, 3], "dcfpa", 2.0, 8, 6, [1.0] * 2, None))
# lpa's whole-signal scale underflows.
@example(case=([3, 4], "lpa", 4.0, None, None, [1.0, 5e-324], None))
@settings(max_examples=80, deadline=None)
def test_report_lambdas_are_fpa_lambda_of_the_true_chunk(case):
    # Every accounted scale is fpa_lambda of the chunk's own length, its k
    # (above floor(c/2) + 1 included) and its sensitivity (lpa_lambda of
    # the whole signal for lpa, which ignores k and k tables), and is bit
    # for bit the scale the release step multiplies that unit's noise by.
    # A uniform k must fit chunk 0, the longest, and a shorter remainder
    # keeps at most its length. Features are decided in order, each in
    # full before its scales: a k beyond one of its chunks fails the
    # release, and otherwise so does a positive sensitivity whose scale
    # would underflow.
    lengths, mechanism, epsilon, chunk, k, deltas, tuned = case
    names = ("f0", "f1")
    rng = np.random.default_rng(len(lengths))
    corpus = Corpus(
        matrices=tuple(
            _matrix(f"r{i}", f"p{i}", "a", rng.standard_normal((n, 2)), names)
            for i, n in enumerate(lengths)
        ),
        schema=names,
    )
    config = MechanismConfig(mechanism=mechanism, epsilon=epsilon, chunk_size=chunk, k=k)
    plan = config.plan_for(max(lengths))
    keys = [(f, ci) for f in names for ci in range(len(plan))]
    sens = SensitivityTable(
        entries={(f, ci, config.domain, config.norm_order): d for (f, ci), d in zip(keys, deltas)},
        group_label="a",
        plan=plan,
    )
    k_table = None
    if tuned is not None:
        k_table = KTable(
            entries={("a", f, ci): kt for (f, ci), kt in zip(keys, tuned)},
            runs_used=1,
            epsilon_used=1.0,
            plans={"a": plan},
            mechanism="fpa" if mechanism == "lpa" else mechanism,  # lpa ignores it
        )
    lengths_of = plan.chunk_lengths()
    if mechanism == "lpa":
        want_k = {key: lengths_of[0] for key in keys}
    else:
        uniform = [k or lengths_of[0]] + [min(k or c, c) for c in lengths_of[1:]]
        want_k = dict(zip(keys, tuned or uniform * 2))

    def want_lam(c, kc, d):
        return lpa_lambda(d, epsilon) if mechanism == "lpa" else fpa_lambda(c, kc, d, epsilon)

    def underflows(c, kc, d):
        factor = 1.0 if mechanism == "lpa" else math.sqrt(c) * math.sqrt(_g(c, kc))
        return d > 0.0 and factor * d / epsilon < sys.float_info.min

    delta_of = dict(zip(keys, deltas))
    for f in names:
        units = [(c, want_k[(f, ci)], delta_of[(f, ci)]) for ci, c in enumerate(lengths_of)]
        if any(kc > c for c, kc, _ in units):
            message = "out of range"
        elif any(underflows(*unit) for unit in units):
            message = "underflows"
        else:
            continue
        with pytest.raises(ParameterError, match=message):
            perturb_corpus(
                corpus, "category", config, NoiseSource(3), sens_tables={"a": sens}, k_table=k_table
            )
        return

    core_scales = []
    real_release = mechanisms._release

    def recording_release(clean, unit, units):
        core_scales.append((units.ks, units.lams))
        return real_release(clean, unit, units)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mechanisms, "_release", recording_release)
        _, reports = perturb_corpus(
            corpus, "category", config, NoiseSource(3), sens_tables={"a": sens}, k_table=k_table
        )
    assert len(core_scales) == len(names)
    units = {(u.feature, u.chunk_index): u for u in reports["a"].per_unit}
    for f, (ks, lams) in zip(names, core_scales):
        assert len(lams) == len(plan)
        for ci, c in enumerate(lengths_of):
            delta = delta_of[(f, ci)]
            assert ks[ci] == want_k[(f, ci)]
            if delta == 0.0:
                assert (f, ci) not in units and lams[ci] == 0.0
                continue
            u = units[(f, ci)]
            assert (u.k, u.sensitivity) == (want_k[(f, ci)], delta)
            assert u.lam == want_lam(c, want_k[(f, ci)], delta)
            assert u.lam.hex() == float(lams[ci]).hex()


def test_perturb_corpus_rejects_bad_jobs():
    with pytest.raises(ParameterError):
        perturb_corpus(_corpus(), "category", MechanismConfig(mechanism="lpa", epsilon=1.0),
                       NoiseSource(seed=1), jobs=0)


# --- realised privacy loss of a swap -----------------------------------------


def _pair_losses(corpus, value, config, report, features):
    """The privacy loss that swapping two recordings of group value
    realises, per pair: the sum over features and chunks of
    ||A_k d||_1 / lam, d the pair's zero-padded chunk difference in the
    config's domain and ||A_k d||_1 the L1 norm of the real and imaginary
    parts of d's first k DFT bins (||d||_1 for lpa), with k and lam the
    report's. A unit the report leaves out has zero sensitivity, so no
    pair may differ there."""
    group = corpus.group("category", value)
    n = max(m.length for m in group)
    plan = config.plan_for(n)
    units = {(u.feature, u.chunk_index): u for u in report.per_unit}
    padded = np.zeros((len(group), len(corpus.schema), n))
    for i, m in enumerate(group):
        padded[i, :, : m.length] = m.values.T
    losses = []
    for a, b in itertools.combinations(padded, 2):
        loss = 0.0
        for f, feature in enumerate(corpus.schema):
            if feature not in features:
                continue
            for ci, (s, e) in enumerate(plan.boundaries):
                pa, pb = a[f, s:e], b[f, s:e]
                if config.domain == DIFFERENCE:
                    pa, pb = np.diff(pa, prepend=0.0), np.diff(pb, prepend=0.0)
                d = pa - pb
                u = units.get((feature, ci))
                if u is None:
                    assert not d.any(), (feature, ci)
                elif config.mechanism == "lpa":
                    loss += np.abs(d).sum() / u.lam
                else:
                    bins = np.fft.fft(d)[: u.k]
                    loss += (np.abs(bins.real).sum() + np.abs(bins.imag).sum()) / u.lam
        losses.append(loss)
    return losses


@st.composite
def _swap_cases(draw):
    """(config, recording lengths, feature count, per-(feature, chunk) k
    and zeroed flags, data seed) for one group. cfpa and dcfpa plans end
    in a remainder chunk; a zeroed chunk is zero in every recording, so
    its sensitivity is 0."""
    mechanism = draw(st.sampled_from(mechanisms.MECHANISMS))
    lengths = draw(st.lists(st.integers(3, 24), min_size=2, max_size=4))
    n = max(lengths)
    chunk = None
    if mechanism in ("cfpa", "dcfpa"):
        chunk = draw(st.sampled_from([c for c in range(2, n) if n % c]))
    config = MechanismConfig(
        mechanism=mechanism,
        epsilon=draw(st.floats(0.01, 100.0)),
        chunk_size=chunk,
        symmetric=mechanism != "lpa" and draw(st.booleans()),
    )
    features = draw(st.integers(1, 2))
    cells = [
        (draw(st.integers(1, c)), draw(st.booleans()))
        for _ in range(features)
        for c in config.plan_for(n).chunk_lengths()
    ]
    return config, lengths, features, cells, draw(st.integers(0, 2**32 - 1))


@given(case=_swap_cases())
@settings(max_examples=80, deadline=None)
def test_sequence_epsilon_bounds_the_loss_of_every_swap(case):
    # Whatever the plan, k table, completion or domain, no swap of two
    # recordings realises more loss than the report's sequence figure.
    config, lengths, features, cells, seed = case
    names = tuple(f"f{i}" for i in range(features))
    n = max(lengths)
    plan = config.plan_for(n)
    rng = np.random.default_rng(seed)
    values = [rng.standard_normal((length, features)).cumsum(axis=0) for length in lengths]
    keys = [(f, ci) for f in range(features) for ci in range(len(plan))]
    for (f, ci), (_, zeroed) in zip(keys, cells):
        if zeroed:
            s, e = plan.boundaries[ci]
            for x in values:
                x[s:e, f] = 0.0
    corpus = Corpus(
        matrices=tuple(
            _matrix(f"r{i}", f"p{i}", "a", x, names) for i, x in enumerate(values)
        ),
        schema=names,
    )
    k_table = None
    if config.mechanism != "lpa":
        k_table = KTable(
            entries={("a", names[f], ci): k for (f, ci), (k, _) in zip(keys, cells)},
            runs_used=1, epsilon_used=1.0, plans={"a": plan}, mechanism=config.mechanism,
        )
    _, reports = perturb_corpus(corpus, "category", config, NoiseSource(5), k_table=k_table)
    report = reports["a"]
    sens = build_group_table(
        corpus, "category", "a", plan, norms=(config.norm_order,), domains=(config.domain,)
    )
    deltas = [sens.value(names[f], ci, config.domain, config.norm_order) for f, ci in keys]
    assert all(d == 0.0 for d, (_, zeroed) in zip(deltas, cells) if zeroed)
    assert [(u.feature, u.chunk_index) for u in report.per_unit] == [
        (names[f], ci) for (f, ci), d in zip(keys, deltas) if d > 0.0
    ]
    assert math.isclose(
        report.sequence_total_epsilon, config.epsilon * len(report.per_unit), rel_tol=1e-12
    )
    for loss in _pair_losses(corpus, "a", config, report, names):
        assert loss <= report.sequence_total_epsilon * (1.0 + 1e-12)


def test_cfpa_swap_on_the_pinned_corpus_exceeds_the_chunk_figure():
    # Group l0, feature f00 of the seed-29 corpus, cfpa on 32-sample chunks
    # at epsilon 1: the worst swap loses 7.855, far above the chunk figure
    # 1.0 and within the sequence figure, 32 chunks x 1.0.
    spec = SynthSpec(
        participants=20, recordings_per_label=1, labels=("l0", "l1", "l2"), length=1024,
        features=4, ar_coefficient=0.95, offsets=(2700.0, 3000.0, 3300.0), noise_sd=1.0,
        seed=29,
    )
    full = synth_corpus(spec)
    corpus = Corpus(
        tuple(_matrix(m.recording_id, m.participant_id, m.labels["category"], m.values[:, :1],
                      ("f00",)) for m in full.matrices),
        ("f00",),
    )
    config = MechanismConfig(mechanism="cfpa", epsilon=1.0, chunk_size=32)
    _, reports = perturb_corpus(corpus, "category", config, NoiseSource(0))
    report = reports["l0"]
    worst = max(_pair_losses(corpus, "l0", config, report, ("f00",)))
    assert report.total_epsilon == 1.0
    assert report.sequence_total_epsilon == 32.0
    assert round(worst, 3) == 7.855
    assert report.total_epsilon < worst <= report.sequence_total_epsilon
