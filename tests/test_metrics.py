"""Error metrics and the utility sweep: hand values, aggregation
semantics, correlation curves, CSV formats, and a bit-for-bit
recomputation of sweep rows through the release step, one recording at a
time."""
import csv
import math

import numpy as np
import pytest

from privseq.core import (
    ConfigurationError,
    Corpus,
    FeatureMatrix,
    InternalInvariantError,
    ParameterError,
    chunk_plan,
)
from privseq import mechanisms
from privseq.mechanisms import MechanismConfig, perturb_corpus
from privseq.metrics import (
    CorrelationCurve,
    SweepRow,
    UtilitySweep,
    _nmse_ratio,
    corr_curve,
    run_sweep,
    write_correlation_csv,
    write_sweep_csv,
)
from privseq.noise import NoiseSource
from privseq.sensitivity import build_group_table
from privseq.tuning import KTable, tune_corpus
from helpers import read_sweep_csv, released_row


# --- the NMSE rule -------------------------------------------------------------


def _cell(x, xt):
    # (value, counted) of the NMSE cell of release xt of x.
    x = np.asarray(x, dtype=np.float64)
    xt = np.asarray(xt, dtype=np.float64)
    d = x - xt
    value, ok = _nmse_ratio(np.mean(d * d), np.mean(x) * np.mean(xt))
    return float(value), bool(ok)


def test_nmse_hand_value():
    assert _cell([2.0, 2.0], [1.0, 1.0]) == (0.5, True)
    assert _cell([2.0, 2.0], [1.0, 3.0]) == (0.25, True)


def test_nmse_exact_reconstruction_is_zero():
    x = [1.0, 2.0, 3.0]
    assert _cell(x, x) == (0.0, True)


def test_nmse_zero_mean_is_undefined():
    value, ok = _cell([1.0, -1.0], [2.0, 0.0])
    assert math.isnan(value) and not ok


def test_nmse_can_be_negative():
    value, ok = _cell([1.0, 1.0], [-3.0, -3.0])
    assert value < 0.0 and not ok


def test_nmse_ratio_is_elementwise_with_a_denominator_floor():
    values, ok = _nmse_ratio([1.0, 1.0, 1.0, 2.0, 0.0], [1e-12, -1e-12, 9.9e-13, -4.0, 0.0])
    assert values[0] == 1e12 and values[1] == -1e12 and values[3] == -0.5
    assert math.isnan(values[2]) and math.isnan(values[4])
    assert ok.tolist() == [True, False, False, False, False]


# --- correlation curves ------------------------------------------------------


def _ar1_group(members, length, rho, seed):
    rng = np.random.default_rng(seed)
    rows = np.empty((members, length))
    rows[:, 0] = rng.standard_normal(members)
    scale = math.sqrt(1.0 - rho * rho)
    for t in range(1, length):
        rows[:, t] = rho * rows[:, t - 1] + scale * rng.standard_normal(members)
    return list(rows)


def test_corr_curve_tracks_autoregressive_decay():
    rho = 0.8
    curve = corr_curve(_ar1_group(400, 16, rho, 21), feature="f0", group_label="a")
    assert curve.reference_index == 5
    r = dict(curve.points)
    assert sorted(r) == list(range(11)) and r[0] == 1.0
    for dt in range(1, 11):
        assert abs(r[dt] - rho**dt) < 0.1


def test_corr_curve_group_and_length_requirements():
    group = _ar1_group(2, 16, 0.5, 1)
    with pytest.raises(ParameterError):
        corr_curve(group)
    short = _ar1_group(5, 10, 0.5, 2)
    with pytest.raises(ParameterError):
        corr_curve(short, reference_index=5, max_lag=10)
    with pytest.raises(ParameterError):
        corr_curve(_ar1_group(5, 16, 0.5, 3), reference_index=-1)


def test_corr_curve_zero_variance_is_an_error():
    group = [np.ones(16) * 3.0 for _ in range(4)]
    with pytest.raises(ParameterError, match="zero variance"):
        corr_curve(group)


def test_correlation_curve_validation_and_lookup():
    curve = CorrelationCurve(
        feature="f0", group_label="a", reference_index=5, points=[(0, 1), (1.0, 0.5)]
    )
    assert curve.points == ((0, 1.0), (1, 0.5))
    assert [type(v) for point in curve.points for v in point] == [int, float, int, float]
    with pytest.raises(ParameterError):
        CorrelationCurve(feature="f", group_label="a", reference_index=0, points=((-1, 0.0),))
    with pytest.raises(ParameterError):
        CorrelationCurve(feature="f", group_label="a", reference_index=0, points=((0, 1.5),))


def test_correlation_csv(tmp_path):
    curve = corr_curve(_ar1_group(50, 16, 0.6, 4), feature="f0", group_label="a")
    path = tmp_path / "corr.csv"
    write_correlation_csv(curve, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["delta_t", "r"]
    assert len(rows) == 12
    for (d, r), row in zip(curve.points, rows[1:]):
        assert int(row[0]) == d
        assert float(row[1]) == r


# --- SweepRow / UtilitySweep --------------------------------------------------


def test_sweep_row_reciprocal_invariant():
    SweepRow(
        mechanism="lpa", chunk_size=None, epsilon=1.0,
        mean_utility=2.0, mean_nmse=0.5, runs=1, flagged_rows=0,
    )
    with pytest.raises(InternalInvariantError):
        SweepRow(
            mechanism="lpa", chunk_size=None, epsilon=1.0,
            mean_utility=2.1, mean_nmse=0.5, runs=1, flagged_rows=0,
        )


def test_sweep_row_degenerate_values_allowed():
    SweepRow(
        mechanism="fpa", chunk_size=None, epsilon=1.0,
        mean_utility=math.inf, mean_nmse=0.0, runs=1, flagged_rows=0,
    )
    SweepRow(
        mechanism="fpa", chunk_size=None, epsilon=1.0,
        mean_utility=0.0, mean_nmse=math.inf, runs=1, flagged_rows=0,
    )


def test_sweep_row_validation():
    with pytest.raises(ParameterError):
        SweepRow(mechanism="dct", chunk_size=None, epsilon=1.0,
                 mean_utility=2.0, mean_nmse=0.5, runs=1, flagged_rows=0)
    with pytest.raises(ParameterError):
        SweepRow(mechanism="cfpa", chunk_size=0, epsilon=1.0,
                 mean_utility=2.0, mean_nmse=0.5, runs=1, flagged_rows=0)
    with pytest.raises(ParameterError):
        SweepRow(mechanism="lpa", chunk_size=None, epsilon=1.0,
                 mean_utility=2.0, mean_nmse=-0.5, runs=1, flagged_rows=0)


def test_utility_sweep_lookup():
    row = SweepRow(mechanism="cfpa", chunk_size=32, epsilon=2.4,
                   mean_utility=2.0, mean_nmse=0.5, runs=5, flagged_rows=1)
    sweep = UtilitySweep(rows=(row,))
    assert sweep.row("cfpa", 32, 2.4) is row
    with pytest.raises(ParameterError):
        sweep.row("cfpa", 64, 2.4)


def test_sweep_csv_round_trip(tmp_path):
    rows = (
        SweepRow(mechanism="lpa", chunk_size=None, epsilon=0.48,
                 mean_utility=1.0 / 0.3, mean_nmse=0.3, runs=7, flagged_rows=2),
        SweepRow(mechanism="dcfpa", chunk_size=64, epsilon=4.8,
                 mean_utility=math.inf, mean_nmse=0.0, runs=7, flagged_rows=0),
    )
    sweep = UtilitySweep(rows=rows)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(sweep, path)
    loaded = read_sweep_csv(path)
    assert loaded.rows == rows

    path2 = tmp_path / "sweep2.csv"
    write_sweep_csv(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


# --- run_sweep ----------------------------------------------------------------


def _sweep_corpus():
    rng = np.random.default_rng(31)
    names = ("f0", "f1")
    lengths = {"r0": 24, "r1": 20, "r2": 24, "r3": 24}
    labels = {"r0": "a", "r1": "a", "r2": "b", "r3": "b"}
    mats = []
    for rid in ("r0", "r1", "r2", "r3"):
        values = rng.standard_normal((lengths[rid], 2)) + 30.0
        mats.append(
            FeatureMatrix(
                recording_id=rid,
                participant_id=f"p_{rid}",
                labels={"category": labels[rid]},
                feature_names=names,
                values=values,
            )
        )
    return Corpus(matrices=tuple(mats), schema=names, excluded_features=frozenset())


def _direct_rows(corpus, src, epsilons, chunk_size, runs):
    """Recompute every sweep row one recording at a time through the
    release step (released_row), with the same stream addressing and
    aggregation order."""
    label_kind = "category"
    features = corpus.schema
    configs = [("lpa", None), ("fpa", None), ("cfpa", chunk_size), ("dcfpa", chunk_size)]
    labels = corpus.label_values(label_kind)
    group_len = {v: max(m.length for m in corpus.group(label_kind, v)) for v in labels}

    tables = {}
    for value in labels:
        for mech, c in configs:
            config = MechanismConfig(mech, 1.0, chunk_size=c)
            tables[(value, mech, c)] = build_group_table(
                corpus, label_kind, value, config.plan_for(group_len[value]),
                norms=(config.norm_order,), domains=(config.domain,),
            )

    rows = []
    for mech, c in configs:
        for eps in epsilons:
            config = MechanismConfig(mech, eps, chunk_size=c)
            acc = {f: [0.0, 0, 0] for f in features}
            for r, m in enumerate(corpus.matrices):
                value = m.labels[label_kind]
                table = tables[(value, mech, c)]
                n = group_len[value]
                for col, feature in enumerate(features):
                    x = m.values[:, col]
                    padded = np.zeros(n)
                    padded[: x.size] = x
                    per = [
                        (table.value(feature, ci, config.domain, config.norm_order), length)
                        for ci, length in enumerate(config.plan_for(n).chunk_lengths())
                    ]
                    cells = []
                    for t in range(runs):
                        xt = released_row(padded, config, per, src.derive(r, col, t))
                        cells.append(_cell(x, xt[: x.size]))
                    vals = np.array([v for v, ok in cells if ok])
                    acc[feature][0] += float(np.sum(vals))
                    acc[feature][1] += vals.size
                    acc[feature][2] += runs - vals.size
            feature_means = [
                total / valid for total, valid, _ in acc.values() if valid > 0
            ]
            mean_nmse = math.fsum(feature_means) / len(feature_means)
            rows.append(
                (
                    mech,
                    c,
                    eps,
                    math.inf if mean_nmse == 0.0 else 1.0 / mean_nmse,
                    mean_nmse,
                    sum(skipped for _, _, skipped in acc.values()),
                )
            )
    return rows


def test_run_sweep_matches_direct_mechanism_calls_bitwise():
    corpus = _sweep_corpus()
    epsilons = (0.48, 4.8)
    runs = 3
    sweep = run_sweep(
        corpus, "category", NoiseSource(seed=77),
        epsilons=epsilons, chunk_sizes=(8,), runs=runs,
    )
    direct = _direct_rows(corpus, NoiseSource(seed=77), epsilons, 8, runs)
    assert len(sweep.rows) == len(direct) == 8
    for row, (mech, c, eps, util, mnmse, flagged) in zip(sweep.rows, direct):
        assert row.mechanism == mech
        assert row.chunk_size == c
        assert row.epsilon == eps
        assert row.mean_nmse == mnmse
        assert row.mean_utility == util
        assert row.flagged_rows == flagged
        assert row.runs == runs


def test_run_sweep_jobs_and_rerun_invariance():
    corpus = _sweep_corpus()
    kwargs = dict(epsilons=(2.4,), chunk_sizes=(8,), runs=2)
    a = run_sweep(corpus, "category", NoiseSource(seed=5), **kwargs)
    b = run_sweep(corpus, "category", NoiseSource(seed=5), jobs=4, **kwargs)
    c = run_sweep(corpus, "category", NoiseSource(seed=5), **kwargs)
    assert a.rows == b.rows == c.rows


def _block_corpus():
    # Two groups of 5 and 3 recordings, each with rows shorter than its
    # longest, so blocks hold zero-padded rows.
    rng = np.random.default_rng(37)
    lengths = {"a": (24, 20, 24, 22, 24), "b": (24, 24, 18)}
    mats = [
        FeatureMatrix(
            f"{label}{i}", f"p{label}{i}", {"category": label}, ("f0", "f1"),
            rng.standard_normal((n, 2)) + 30.0,
        )
        for label, ns in lengths.items() for i, n in enumerate(ns)
    ]
    return Corpus(matrices=tuple(mats), schema=("f0", "f1"), excluded_features=frozenset())


def test_perturb_and_sweep_are_independent_of_block_size():
    # perturb_corpus, run_sweep and tune_corpus share one release driver,
    # whose row blocks of a group hold at most mechanisms.BLOCK_VALUES //
    # ((runs + 1) n) rows, twice that on a pool. The default budget gives
    # one block per (group, feature); 192 values at n = 24 gives blocks
    # of 4 + 1 rows for perturb (runs 1) and the pooled sweep (runs 3),
    # and 2 + 2 + 1 for the one-thread sweep and tuning (runs 2 and 3);
    # 40 values gives one-row blocks. All three must give the same bytes
    # and the same tuned tables.
    corpus = _block_corpus()
    block_sizes = {mechanisms.BLOCK_VALUES: {5, 3}, 192: {4, 3, 2, 1}, 40: {1}}
    draws = mechanisms._draws
    outputs = []
    for block_values, sizes in block_sizes.items():
        seen = set()

        def recorded(streams, n):
            # streams are (recording, feature, run) children of the source
            seen.add(len({s._seq.spawn_key[-3] for s in streams}))
            return draws(streams, n)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mechanisms, "BLOCK_VALUES", block_values)
            mp.setattr(mechanisms, "_draws", recorded)
            released = [
                perturb_corpus(
                    corpus, "category", MechanismConfig(mechanism=m, epsilon=2.4, chunk_size=8),
                    NoiseSource(seed=3),
                )[0]
                for m in mechanisms.MECHANISMS
            ]
            sweeps = [
                run_sweep(
                    corpus, "category", NoiseSource(seed=3), epsilons=(0.48, 4.8),
                    chunk_sizes=(8,), runs=runs, jobs=jobs,
                ).rows
                for runs, jobs in ((2, 1), (3, 2))
            ]
            tables = [
                tune_corpus(corpus, "category", 8, m, eps, 3, NoiseSource(seed=3))
                for m in ("fpa", "cfpa", "dcfpa") for eps in (2.4, 240.0)
            ]
        assert seen == sizes, block_values
        outputs.append(
            ([m.values.tobytes() for c in released for m in c.matrices], sweeps, tables)
        )
    assert outputs[0] == outputs[1] == outputs[2]
    # the tables are not all one k, so the comparison sees the scores
    assert len({k for table in outputs[0][2] for k in table.entries.values()}) > 2


def test_run_sweep_utility_grows_with_epsilon():
    corpus = _sweep_corpus()
    sweep = run_sweep(
        corpus, "category", NoiseSource(seed=6),
        mechanisms=("cfpa",), epsilons=(0.48, 48.0), chunk_sizes=(8,), runs=5,
    )
    assert sweep.row("cfpa", 8, 48.0).mean_utility > sweep.row("cfpa", 8, 0.48).mean_utility


def test_run_sweep_k_tables_change_results():
    corpus = _sweep_corpus()
    plans = {
        value: chunk_plan(max(m.length for m in corpus.group("category", value)), 8)
        for value in ("a", "b")
    }
    ks = KTable(
        entries={
            (value, f, ci): 2
            for value, plan in plans.items()
            for f in corpus.schema
            for ci in range(len(plan))
        },
        runs_used=1,
        epsilon_used=2.4,
        plans=plans,
        mechanism="cfpa",
    )
    kwargs = dict(mechanisms=("cfpa",), epsilons=(2.4,), chunk_sizes=(8,), runs=2)
    full = run_sweep(corpus, "category", NoiseSource(seed=7), **kwargs)
    partial = run_sweep(corpus, "category", NoiseSource(seed=7), k_table=ks, **kwargs)
    assert full.rows != partial.rows

    bad = KTable(
        entries={(value, "f0", 0): 2 for value in ("a", "b")},
        runs_used=1,
        epsilon_used=2.4,
        plans=plans,
        mechanism="cfpa",
    )
    with pytest.raises(ConfigurationError):
        run_sweep(corpus, "category", NoiseSource(seed=7), k_table=bad, **kwargs)


def test_run_sweep_rejects_k_tables_for_another_plan_or_group():
    # A chunk-8 table must not be read as counts for chunk-16 cfpa or for
    # fpa's single whole-signal chunk; lpa keeps no coefficients.
    corpus = _sweep_corpus()
    plans = {"a": chunk_plan(24, 8), "b": chunk_plan(24, 8)}
    table = KTable(
        entries={(v, f, ci): 2 for v in plans for f in corpus.schema for ci in range(3)},
        runs_used=1,
        epsilon_used=2.4,
        plans=plans,
        mechanism="cfpa",
    )
    kwargs = dict(epsilons=(2.4,), runs=1, k_table=table)
    for mechanisms, sizes, message in (
        (("cfpa",), (16,), "tuned for chunk size 8 over length 24; cfpa needs chunk size 16"),
        (("fpa",), (8,), "fpa needs chunk size 24 over length 24"),
    ):
        with pytest.raises(ConfigurationError, match=message):
            run_sweep(corpus, "category", NoiseSource(seed=7),
                      mechanisms=mechanisms, chunk_sizes=sizes, **kwargs)
    only_a = KTable(
        entries={k: v for k, v in table.entries.items() if k[0] == "a"},
        runs_used=1,
        epsilon_used=2.4,
        plans={"a": plans["a"]},
        mechanism="dcfpa",
    )
    with pytest.raises(ConfigurationError, match="no k table entries for label 'b'"):
        run_sweep(corpus, "category", NoiseSource(seed=7), mechanisms=("dcfpa",),
                  chunk_sizes=(8,), epsilons=(2.4,), runs=1, k_table=only_a)
    sweep = run_sweep(corpus, "category", NoiseSource(seed=7), mechanisms=("lpa", "cfpa"),
                      chunk_sizes=(8,), **kwargs)
    assert len(sweep.rows) == 2


def test_run_sweep_validation():
    corpus = _sweep_corpus()
    src = NoiseSource(seed=1)
    with pytest.raises(ParameterError):
        run_sweep(corpus, "category", src, runs=0)
    with pytest.raises(ParameterError):
        run_sweep(corpus, "category", src, jobs=0)
    with pytest.raises(ParameterError):
        run_sweep(corpus, "category", src, epsilons=())
    with pytest.raises(ParameterError):
        run_sweep(corpus, "category", src, epsilons=(-1.0,))
    with pytest.raises(ParameterError):
        run_sweep(corpus, "category", src, mechanisms=("dct",))
    with pytest.raises(ParameterError):
        run_sweep(corpus, "category", src, mechanisms=("cfpa",), chunk_sizes=())
    # a repeated grid value would release its cells again as duplicate rows
    with pytest.raises(ParameterError, match="repeated mechanism 'cfpa'"):
        run_sweep(corpus, "category", src, mechanisms=("cfpa", "lpa", "cfpa"), runs=1)
    with pytest.raises(ParameterError, match="repeated chunk size 8"):
        run_sweep(corpus, "category", src, chunk_sizes=(8, 4, 8), runs=1)
    with pytest.raises(ParameterError, match="repeated epsilon 1.0"):
        run_sweep(corpus, "category", src, epsilons=(1, 2.4, 1.0), runs=1)
