"""Acceptance gate: ten numbered checks, each printing one verdict line.

Run `pytest -s tests/test_acceptance.py` to see every line as it is
produced; under default capture the lines still appear in the report of
any failing check. Check 6 runs a 100-run utility sweep on a pinned
synthetic corpus and is split into its four orderings (6a-6d) so each
gets its own verdict. 6c asserts an ordering the pinned corpus does not
produce (the differenced mechanism does not beat plain chunking at the
lowest budget here); it is expected to stay red and its failure message
carries the measured utilities.
"""
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from privseq.classify import ClassifierConfig, decimate, lopo_cv, zscore_fit
from privseq.cli import main
from privseq.core import Corpus, FeatureMatrix, chunk_plan
from privseq.dataio import SynthSpec, synth_corpus
from privseq.mechanisms import MechanismConfig, fpa_lambda, perturb_corpus
from privseq.metrics import corr_curve, run_sweep
from privseq.noise import NoiseSource, unit_laplace
from privseq.sensitivity import (
    DIFFERENCE,
    RAW,
    SensitivityTable,
    chunk_sensitivities,
)
from privseq.transform import cumsum_reconstruct, dft_batch, diff_transform
from privseq.tuning import tune_k
from sensitivity_oracle import oracle_chunks, oracle_feature

EPSILON_GRID = (0.48, 2.4, 4.8, 24.0, 48.0)
CHUNK_GRID = (32, 64, 128)


def _group(features, *values):
    """Label group "g" of one recording per (time x feature) array."""
    return Corpus(
        tuple(FeatureMatrix(f"r{i}", f"p{i}", {"category": "g"}, features, v)
              for i, v in enumerate(values)),
        features,
    )


def _report(config, sens, features, length):
    """The report perturb_corpus gives a group of two all-zero recordings
    when sens, built for config's plan, supplies the sensitivities."""
    zeros = np.zeros((length, len(features)))
    corpus = _group(features, zeros, zeros)
    return perturb_corpus(corpus, "category", config, NoiseSource(0), sens_tables={"g": sens})[1]["g"]


def _verdict(num: str, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"acceptance {num} {name}: {status}{suffix}", flush=True)
    return ok


# --- 1: noise quality --------------------------------------------------------


def test_acceptance_01_laplace_noise_quality():
    lam = 2.0
    t0 = time.perf_counter()
    draws = lam * unit_laplace(NoiseSource(4242).generator(), 1_000_000)
    elapsed = time.perf_counter() - t0

    var = float(draws.var())
    mean = float(draws.mean())
    xs = np.sort(draws)
    n = xs.size
    cdf = np.where(xs < 0, 0.5 * np.exp(xs / lam), 1.0 - 0.5 * np.exp(-xs / lam))
    steps = np.arange(1, n + 1)
    ks = float(max(np.max(cdf - (steps - 1) / n), np.max(steps / n - cdf)))

    ok = (
        abs(var - 2.0 * lam * lam) <= 0.05 * 2.0 * lam * lam
        and abs(mean) <= 0.01
        and ks < 0.002
        and elapsed < 5.0
    )
    assert _verdict(
        "1",
        "laplace draws match the analytic law",
        ok,
        f"var={var:.4f} mean={mean:+.5f} ks={ks:.5f} t={elapsed:.2f}s",
    )


# --- 2: transform fidelity ----------------------------------------------------


def test_acceptance_02_transform_fidelity():
    rng = np.random.default_rng(7)

    worst_dft = 0.0
    for n in range(1, 257):
        x = rng.standard_normal(n)
        j = np.arange(n)
        direct = np.exp(-2j * np.pi * np.outer(j, j) / n) @ x.astype(np.complex128)
        worst_dft = max(worst_dft, float(np.max(np.abs(dft_batch(x[np.newaxis, :])[0] - direct))))

    # two identical recordings have sensitivity 0, so fpa releases the
    # inverse of each full spectrum with no noise
    worst_identity = 0.0
    for n in (255, 256):
        x = rng.standard_normal(n)
        same = _group(("f0",), x[:, np.newaxis], x[:, np.newaxis])
        noisy, _ = perturb_corpus(same, "category", MechanismConfig("fpa", 1.0), NoiseSource(1))
        for m in noisy.matrices:
            worst_identity = max(worst_identity, float(np.max(np.abs(m.values[:, 0] - x))))

    worst_drift = 0.0
    for n in (10, 1_000, 10_000):
        for x in (rng.standard_normal(n), 3000.0 + rng.standard_normal(n)):
            rt = np.asarray(cumsum_reconstruct(diff_transform(x)))
            worst_drift = max(worst_drift, float(np.max(np.abs(rt - x))))

    ok = worst_dft <= 1e-10 and worst_identity <= 1e-10 and worst_drift <= 1e-12
    assert _verdict(
        "2",
        "transforms match direct summation and invert cleanly",
        ok,
        f"dft={worst_dft:.2e} identity={worst_identity:.2e} drift={worst_drift:.2e}",
    )


# --- 3: noise-scale law --------------------------------------------------------


def test_acceptance_03_scale_law_and_exact_halving():
    value = fpa_lambda(64, 8, 2.0, 1.0)
    law_err = abs(value - 32.0 * math.sqrt(2.0))

    rng = np.random.default_rng(31)
    entries = {}
    for f in ("f0", "f1"):
        for ci in range(3):
            for domain in (RAW, DIFFERENCE):
                for w in (1, 2):
                    entries[(f, ci, domain, w)] = float(rng.uniform(0.1, 9.0))

    configs = [
        MechanismConfig(mechanism="lpa", epsilon=0.8),
        MechanismConfig(mechanism="fpa", epsilon=0.8, k=7),
        MechanismConfig(mechanism="cfpa", epsilon=0.8, chunk_size=32, k=5),
        MechanismConfig(mechanism="dcfpa", epsilon=0.8, chunk_size=32),
    ]
    halving_exact = True
    pairs = 0
    for config in configs:
        doubled = MechanismConfig(
            mechanism=config.mechanism,
            epsilon=config.epsilon * 2.0,
            chunk_size=config.chunk_size,
            k=config.k,
        )
        plan = config.plan_for(96)
        sens = SensitivityTable(
            entries={key: v for key, v in entries.items() if key[1] < len(plan)},
            group_label="g",
            plan=plan,
        )
        r1 = _report(config, sens, ("f0", "f1"), 96)
        r2 = _report(doubled, sens, ("f0", "f1"), 96)
        if len(r1.per_unit) != len(r2.per_unit):
            halving_exact = False
            continue
        for u1, u2 in zip(r1.per_unit, r2.per_unit):
            pairs += 1
            if u1.lam != 2.0 * u2.lam:
                halving_exact = False

    ok = law_err <= 1e-12 and halving_exact and pairs > 0
    assert _verdict(
        "3",
        "noise scale follows the law and halves exactly when epsilon doubles",
        ok,
        f"law_err={law_err:.2e} unit_pairs={pairs} halving_exact={halving_exact}",
    )


# --- 4: sensitivity against an exhaustive oracle -------------------------------


# L2 distances that underflow, or lose bits, unless each difference is
# scaled by 2**-e before it is squared
_FIXED_GROUPS = (
    [np.array([1e-170, 0.0, 0.0, 0.0]), np.zeros(4)],
    [np.array([1e-160, 1e-160, 0.0, 0.0]), np.zeros(4)],
)


def _mismatches(group, chunk_size):
    n = max(len(v) for v in group)
    mismatches = 0
    for w in (1, 2):
        if chunk_sensitivities(group, chunk_plan(n, n), w)[0] != oracle_feature(group, w):
            mismatches += 1
    plan = chunk_plan(n, chunk_size)
    for domain in (RAW, DIFFERENCE):
        for w in (1, 2):
            got = list(chunk_sensitivities(group, plan, w, domain))
            if got != oracle_chunks(group, plan, w, domain):
                mismatches += 1
    return mismatches


def test_acceptance_04_sensitivity_bitwise_vs_oracle():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        count = int(rng.integers(2, 7))
        base = int(rng.integers(1, 21))
        group = []
        for _ in range(count):
            n = max(1, base + int(rng.integers(-2, 3)))
            scale = 10.0 ** rng.integers(-3, 4)
            group.append(scale * rng.standard_normal(n))
        n = max(len(v) for v in group)
        mismatches += _mismatches(group, int(rng.integers(1, n + 1)))
    fixed = sum(_mismatches(group, 2) for group in _FIXED_GROUPS)
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and fixed == 0 and elapsed < 10.0
    assert _verdict(
        "4",
        "1000 random groups and 2 tiny-scale groups agree with the exhaustive oracle bit for bit",
        ok,
        f"mismatches={mismatches} fixed_mismatches={fixed} t={elapsed:.2f}s",
    )


# --- 5: composition rules -------------------------------------------------------


def test_acceptance_05_composition_rules():
    entries = {}
    for f in ("f0", "f1"):
        for ci in range(3):
            entries[(f, ci, RAW, 2)] = 1.0 + ci
    sens = SensitivityTable(entries=entries, group_label="g", plan=chunk_plan(96, 32))
    config = MechanismConfig(mechanism="cfpa", epsilon=0.8, chunk_size=32)
    report = _report(config, sens, ("f0", "f1"), 96)
    # three chunks per feature at 0.8 each: parallel keeps 0.8, never 2.4
    per_feature_ok = report.per_feature_epsilon == {"f0": 0.8, "f1": 0.8}
    total_ok = report.total_epsilon == 1.6
    # a swap of one recording changes all three chunks: their sum bounds it
    seq_features = report.sequence_per_feature_epsilon
    sequence_ok = (
        all(math.isclose(e, 2.4, rel_tol=1e-12) for e in seq_features.values())
        and math.isclose(report.sequence_total_epsilon, 4.8, rel_tol=1e-12)
    )

    ok = per_feature_ok and total_ok and sequence_ok
    assert _verdict(
        "5",
        "parallel across chunks, sequential across features",
        ok,
        f"per_feature={sorted(report.per_feature_epsilon.values())} "
        f"total={report.total_epsilon} "
        f"sequence_per_feature={sorted(seq_features.values())} "
        f"sequence_total={report.sequence_total_epsilon}",
    )


# --- 6: utility trends on the pinned synthetic corpus ----------------------------


@pytest.fixture(scope="module")
def trend_sweep():
    spec = SynthSpec(
        participants=20,
        recordings_per_label=1,
        labels=("l0", "l1", "l2"),
        length=1024,
        features=4,
        ar_coefficient=0.95,
        offsets=(2700.0, 3000.0, 3300.0),
        noise_sd=1.0,
        seed=29,
    )
    corpus = synth_corpus(spec)
    t0 = time.perf_counter()
    sweep = run_sweep(
        corpus,
        "category",
        NoiseSource(29),
        epsilons=EPSILON_GRID,
        chunk_sizes=CHUNK_GRID,
        runs=100,
        jobs=os.cpu_count() or 1,
    )
    return sweep, time.perf_counter() - t0


def _utilities(sweep, mechanism, chunk_size):
    return [sweep.row(mechanism, chunk_size, e).mean_utility for e in EPSILON_GRID]


def test_acceptance_06a_utility_rises_with_epsilon(trend_sweep):
    sweep, elapsed = trend_sweep
    combos = [("lpa", None), ("fpa", None)]
    combos += [(m, c) for m in ("cfpa", "dcfpa") for c in CHUNK_GRID]
    failures = []
    for mechanism, chunk_size in combos:
        us = _utilities(sweep, mechanism, chunk_size)
        if not all(a < b for a, b in zip(us, us[1:])):
            failures.append((mechanism, chunk_size, us))
    ok = not failures and elapsed < 600.0
    assert _verdict(
        "6a",
        "mean utility strictly increases along the epsilon grid",
        ok,
        f"combos={len(combos)} violations={len(failures)} sweep_t={elapsed:.0f}s",
    ), failures


def test_acceptance_06b_chunking_beats_whole_signal(trend_sweep):
    sweep, _ = trend_sweep
    ratios = []
    for e in EPSILON_GRID:
        base = sweep.row("fpa", None, e).mean_utility
        for c in CHUNK_GRID:
            ratios.append(sweep.row("cfpa", c, e).mean_utility / base)
    ok = all(r > 1.0 for r in ratios)
    assert _verdict(
        "6b",
        "chunked release beats whole-signal release at every epsilon",
        ok,
        f"min_ratio={min(ratios):.1f}",
    )


def test_acceptance_06c_differencing_beats_chunking_at_low_budget(trend_sweep):
    sweep, _ = trend_sweep
    eps = EPSILON_GRID[0]
    best_dc = max(sweep.row("dcfpa", c, eps).mean_utility for c in CHUNK_GRID)
    best_cf = max(sweep.row("cfpa", c, eps).mean_utility for c in CHUNK_GRID)
    ok = best_dc > best_cf
    assert _verdict(
        "6c",
        "differenced release beats plain chunking at the lowest budget",
        ok,
        f"dcfpa={best_dc:.1f} cfpa={best_cf:.1f} ratio={best_dc / best_cf:.3f}",
    ), (
        "on the pinned corpus (lag-1 coefficient 0.95) the differenced release "
        f"reaches {best_dc:.1f} mean utility at epsilon {eps} while plain chunking "
        f"reaches {best_cf:.1f}; the cumulative-sum reconstruction amplifies "
        "coefficient noise faster than differencing shrinks the sensitivity at "
        "this correlation level, so the asserted ordering does not hold"
    )


def test_acceptance_06d_differencing_prefers_short_chunks(trend_sweep):
    sweep, _ = trend_sweep
    violations = []
    for e in EPSILON_GRID:
        us = [sweep.row("dcfpa", c, e).mean_utility for c in CHUNK_GRID]
        if not (us[0] >= us[1] >= us[2]):
            violations.append((e, us))
    ok = not violations
    assert _verdict(
        "6d",
        "differenced utility is ordered by chunk size 32 >= 64 >= 128",
        ok,
        f"violations={len(violations)}",
    ), violations


# --- 7: differencing removes serial correlation ----------------------------------


def test_acceptance_07_correlation_reduction():
    spec = SynthSpec(
        participants=200,
        recordings_per_label=1,
        labels=("a",),
        length=64,
        features=1,
        ar_coefficient=0.95,
        offsets=(3000.0,),
        noise_sd=1.0,
        seed=13,
    )
    corpus = synth_corpus(spec)
    signals = [np.asarray(m.values[:, 0]) for m in corpus.matrices]
    orig = corr_curve(signals)
    diffd = corr_curve([np.asarray(diff_transform(s)) for s in signals])

    r_orig, r_diff = dict(orig.points), dict(diffd.points)
    r1_orig, r1_diff = r_orig[1], r_diff[1]
    worst_dev = max(abs(r_orig[d] - 0.95 ** d) for d in range(0, 11))

    ok = abs(r1_diff) < 0.5 * abs(r1_orig) and worst_dev <= 0.1
    assert _verdict(
        "7",
        "differencing collapses the lag-1 correlation",
        ok,
        f"r1_orig={r1_orig:.3f} r1_diff={r1_diff:.3f} curve_dev={worst_dev:.3f}",
    )


# --- 8: retention tuning limits ---------------------------------------------------


def test_acceptance_08_tuning_limits():
    rng = np.random.default_rng(99)
    a, b = rng.standard_normal(64), rng.standard_normal(64)
    plan = chunk_plan(64, 32)

    ks_noisy = tune_k([a, b], plan, "cfpa", 1e-3, 100, NoiseSource(5))
    ks_clean = tune_k([a, a.copy()], plan, "cfpa", 1.0, 100, NoiseSource(5))

    ok = ks_noisy == (1, 1) and ks_clean == (32, 32)
    assert _verdict(
        "8",
        "tuning keeps one coefficient under heavy noise, all under none",
        ok,
        f"noisy={ks_noisy} clean={ks_clean}",
    )


# --- 9: classification harness -----------------------------------------------------


def _labeled_matrix(rid, pid, label, values):
    return FeatureMatrix(
        recording_id=rid,
        participant_id=pid,
        labels={"category": label},
        feature_names=("f0", "f1"),
        values=np.asarray(values, dtype=np.float64),
    )


def _separable_three_class(seed=3):
    rng = np.random.default_rng(seed)
    offsets = {"l0": 0.0, "l1": 60.0, "l2": 120.0}
    mats = []
    for p in range(5):
        for label, offset in offsets.items():
            values = offset + 0.5 * rng.standard_normal((40, 2))
            mats.append(_labeled_matrix(f"r_p{p}_{label}", f"p{p}", label, values))
    return Corpus(matrices=tuple(mats), schema=("f0", "f1"), excluded_features=frozenset())


def _shuffled_three_class(seed=23):
    # identical generating process for every recording; labels shuffled
    # within each participant so every training fold stays balanced
    rng = np.random.default_rng(seed)
    mats = []
    for p in range(12):
        labels = ["l0", "l1", "l2"]
        rng.shuffle(labels)
        for r, label in enumerate(labels):
            mats.append(
                _labeled_matrix(
                    f"r_p{p:02d}_{r}", f"p{p:02d}", label, rng.standard_normal((80, 2))
                )
            )
    return Corpus(matrices=tuple(mats), schema=("f0", "f1"), excluded_features=frozenset())


def _leak_free(corpus, folds, window):
    for fold in folds:
        train_rows = np.concatenate(
            [
                decimate(m, window).values
                for m in corpus.matrices
                if m.participant_id != fold.held_out_participant
            ]
        )
        means, sds = zscore_fit(train_rows)
        if tuple(float(v) for v in means) != fold.norm_means:
            return False
        if tuple(float(v) for v in sds) != fold.norm_sds:
            return False
    return True


def test_acceptance_09_classification_harness():
    config = ClassifierConfig(window=10, neighbors=3)
    separable = _separable_three_class()
    folds_sep, summary_sep = lopo_cv(
        separable, "category", config, majority=True, src=NoiseSource(4)
    )
    separable_perfect = (
        summary_sep.instance_accuracy == 1.0
        and summary_sep.instance_accuracy_pooled == 1.0
        and summary_sep.voted_accuracy == 1.0
    )

    chance_config = ClassifierConfig(window=10, neighbors=11)
    shuffled = _shuffled_three_class()
    folds_sh, summary_sh = lopo_cv(shuffled, "category", chance_config, src=NoiseSource(8))
    chance = summary_sh.instance_accuracy_pooled
    chance_ok = abs(chance - 1.0 / 3.0) <= 0.1

    leak_ok = _leak_free(separable, folds_sep, config.window) and _leak_free(
        shuffled, folds_sh, chance_config.window
    )

    ok = separable_perfect and chance_ok and leak_ok
    assert _verdict(
        "9",
        "perfect on separable data, chance on shuffled labels, no leakage",
        ok,
        f"separable={summary_sep.instance_accuracy_pooled:.2f} "
        f"shuffled={chance:.3f} leak_free={leak_ok}",
    )


# --- 10: end-to-end determinism ------------------------------------------------------


def _run_cli(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def _dir_bytes(path):
    return {
        p.relative_to(path): p.read_bytes()
        for p in sorted(Path(path).rglob("*"))
        if p.is_file()
    }


def test_acceptance_10_end_to_end_determinism(tmp_path):
    corpus_dir = tmp_path / "corpus"
    result = _run_cli(
        "synth", "--participants", 3, "--labels", 2, "--length", 48,
        "--features", 2, "--seed", 7, "--out", corpus_dir,
    )
    assert result.exit_code == 0, result.output
    manifest = corpus_dir / "manifest.json"

    sweep_base = (
        "sweep", "--manifest", manifest, "--mechanisms", "lpa,fpa,cfpa,dcfpa",
        "--epsilons", "0.48,4.8", "--chunk-sizes", "8,16", "--runs", 3, "--seed", 11,
    )
    assert _run_cli(*sweep_base, "--jobs", 1, "--out", tmp_path / "a.csv").exit_code == 0
    assert _run_cli(*sweep_base, "--jobs", 1, "--out", tmp_path / "b.csv").exit_code == 0
    assert _run_cli(*sweep_base, "--jobs", 3, "--out", tmp_path / "c.csv").exit_code == 0
    a, b, c = ((tmp_path / f).read_bytes() for f in ("a.csv", "b.csv", "c.csv"))
    sweep_ok = a == b == c

    perturb_base = (
        "perturb", "--manifest", manifest, "--mechanism", "dcfpa",
        "--epsilon", 2.4, "--chunk-size", 8, "--seed", 9,
    )
    assert _run_cli(*perturb_base, "--out", tmp_path / "pa").exit_code == 0
    assert _run_cli(*perturb_base, "--out", tmp_path / "pb").exit_code == 0
    pa, pb = (_dir_bytes(tmp_path / d) for d in ("pa", "pb"))
    perturb_ok = pa == pb and len(pa) > 0

    ok = sweep_ok and perturb_ok
    assert _verdict(
        "10",
        "repeated runs and parallel runs produce identical bytes",
        ok,
        f"sweep_identical={sweep_ok} perturb_identical={perturb_ok}",
    )
