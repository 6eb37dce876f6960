"""Tests of the benchmark's own code: counters, generators, output checks.

Run from the checkout root:  python3 -m pytest -q perfbench
"""
from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from privseq import classify, dataio, mechanisms, metrics, tuning  # noqa: E402
from privseq.core import chunk_plan  # noqa: E402
from privseq.mechanisms import MechanismConfig  # noqa: E402
from privseq.noise import NoiseSource  # noqa: E402

LABEL = wl.LABEL


@pytest.fixture(scope="module")
def tiny():
    """3 participants x 2 labels x 2 features x 16 samples: groups of 3."""
    spec = dataio.SynthSpec(
        participants=3, recordings_per_label=1, labels=("a", "b"), length=16, features=2,
        ar_coefficient=0.9, offsets=(10.0, 20.0), noise_sd=1.0, seed=5,
    )
    return dataio.synth_corpus(spec)


def traced(fn):
    with tr.Tracer().installed() as t:
        t.call("pass", "bench", fn)
    return t.layer_metrics()


def test_perturb_counters_equal_hand_counts(tiny):
    # chunk 6 on 16 samples: chunks of 6, 6 and 4; two of them take the
    # direct (non-power-of-2) transform path.
    config = MechanismConfig("cfpa", 1.0, chunk_size=6)
    m = traced(lambda: mechanisms.perturb_corpus(
        tiny, LABEL, config, NoiseSource(1), sens_tables=wl._tables(tiny, config)))
    signals = 6 * 2
    assert m["sensitivity.calls"] == 2 * 2  # (label, feature) groups
    assert m["sensitivity.pairs"] == 4 * 3 * 3  # groups x chunks x C(3, 2)
    assert m["mechanisms.units"] == signals * 3
    assert m["transform.calls"] == signals * 3 * 2  # one forward, one inverse per chunk
    assert m["transform.rows"] == signals * 3 * 2
    assert m["transform.rows_per_call"] == 1.0
    assert m["transform.direct_rows"] == signals * 2 * 2
    assert m["noise.calls"] == signals * 3
    assert m["noise.draws"] == signals * 2 * (6 + 6 + 4)  # 2k per chunk at full k
    assert m["mechanisms.s"] >= m["mechanisms.self_s"] > 0
    assert m["trace.unaccounted_s"] >= 0


def test_tune_counters_equal_hand_counts(tiny):
    m = traced(lambda: tuning.tune_corpus(tiny, LABEL, 8, "cfpa", 1.0, 2, NoiseSource(2)))
    groups, members, runs, chunks, c = 4, 3, 2, 2, 8
    assert m["tuning.candidates"] == groups * 16
    assert m["sensitivity.pairs"] == groups * chunks * 3
    assert m["noise.calls"] == groups * members * runs * chunks
    assert m["noise.draws"] == groups * members * runs * chunks * 2 * c
    # per chunk: one forward batch of the members, one inverse batch of
    # members x runs rows per candidate k
    assert m["transform.calls"] == groups * chunks * (1 + c)
    assert m["transform.rows"] == groups * chunks * (members + c * members * runs)


def test_sweep_counters_equal_hand_counts_with_pool_threads(tiny):
    sweep = []
    m = traced(lambda: sweep.append(metrics.run_sweep(
        tiny, LABEL, NoiseSource(3), mechanisms=("fpa", "cfpa"), epsilons=(1.0, 2.0),
        chunk_sizes=(8,), runs=3, jobs=2)))
    units, runs = 6 * 2, 3
    assert m["metrics.nmse_cells"] == units * 2 * 2 * runs
    assert m["metrics.flagged_cells"] == sum(r.flagged_rows for r in sweep[0].rows)
    # fpa: 1 forward row, then per epsilon one inverse of runs rows;
    # cfpa/8: 2 forward rows, then per epsilon one inverse of 2 x runs rows
    assert m["transform.calls"] == units * (1 + 2 + 2 + 2)
    assert m["transform.rows"] == units * (1 + 2 + 2 * runs + 2 * 2 * runs)
    assert m["noise.calls"] == units * runs
    assert m["noise.draws"] == units * runs * 2 * 16
    assert m["sensitivity.pairs"] == 2 * 2 * (1 + 2) * 3
    assert m["metrics.self_s"] > 0


def test_io_and_classify_counters(tiny, tmp_path):
    def run():
        dataio.write_corpus(tiny, tmp_path / "c")
        dataio.load_corpus(tmp_path / "c" / dataio.MANIFEST_NAME)
        classify.lopo_cv(tiny, LABEL, classify.ClassifierConfig(window=2, neighbors=3))

    m = traced(run)
    on_disk = sum(f.stat().st_size for f in (tmp_path / "c").iterdir())
    assert m["dataio.bytes_written"] == on_disk
    assert m["dataio.bytes_read"] == on_disk
    assert m["classify.queries"] == 6 * 8


def test_tracer_restores_every_binding():
    before = (mechanisms.unit_laplace, tuning.chunk_sensitivities, metrics.build_group_table,
              NoiseSource.generator)
    t = tr.Tracer()
    with t.installed():
        assert mechanisms.unit_laplace is not before[0]
        assert metrics.build_group_table is not before[2]
    after = (mechanisms.unit_laplace, tuning.chunk_sensitivities, metrics.build_group_table,
             NoiseSource.generator)
    assert after == before


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_generators_are_deterministic_in_the_seed(name, tmp_path):
    cls = wl.WORKLOADS[name]
    made = []
    for seed, sub in ((7, "a"), (7, "b"), (8, "c")):
        w = cls(seed, tmp_path / sub, participants=3, features=1)
        w.setup()
        made.append(w)
    a, b, c = made
    assert not wl.same_corpus_problems(a.corpus, b.corpus)
    assert wl.same_corpus_problems(a.corpus, c.corpus)
    if hasattr(a, "manifest"):
        assert a.manifest.read_bytes() == b.manifest.read_bytes()


def test_ragged_trims_give_the_documented_plan(tmp_path):
    w = wl.Ragged(31, tmp_path)
    w.setup()
    lengths = [m.length for m in w.corpus.matrices]
    assert len(lengths) == 120
    assert min(lengths) >= wl.RAGGED_MIN_LENGTH and max(lengths) == 1000
    for label in w.corpus.label_values(LABEL):
        n = max(m.length for m in w.corpus.group(LABEL, label))
        assert chunk_plan(n, 48).chunk_lengths() == (48,) * 20 + (40,)
    assert len(set(lengths)) > 10


def _replace_unit(reports, factor):
    label = sorted(reports)[0]
    r = reports[label]
    first = dataclasses.replace(r.per_unit[0], lam=r.per_unit[0].lam * factor)
    return {**reports, label: dataclasses.replace(r, per_unit=(first,) + r.per_unit[1:])}


def _corrupt_lambda(out):
    config, tables, noisy, reports = out["releases"][2]
    out["releases"][2] = (config, tables, noisy, _replace_unit(reports, 1.0 + 1e-9))


def _corrupt_length(out):
    config, tables, noisy, reports = out["releases"][0]
    m = noisy.matrices[0]
    short = dataclasses.replace(m, values=m.values[:-1])
    noisy = dataclasses.replace(noisy, matrices=(short,) + noisy.matrices[1:])
    out["releases"][0] = (config, tables, noisy, reports)


def _corrupt_written_file(out):
    directory = out["written"]["fpa"].parent
    csv_path = sorted(directory.glob("*.csv"))[0]
    lines = csv_path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[0] = repr(float(cells[0]) + 1e-6)
    lines[1] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def release_pass(tmp_path_factory):
    w = wl.Release(3, tmp_path_factory.mktemp("release"), participants=3, features=2)
    w.setup()
    return w


@pytest.mark.parametrize("corrupt", [None, _corrupt_lambda, _corrupt_length, _corrupt_written_file])
def test_corrupted_release_raises_fail_ratio(release_pass, corrupt):
    w = release_pass
    out = w.run_pass()
    out["releases"] = list(out["releases"])
    if corrupt is not None:
        corrupt(out)
    outcome = wl.Outcome()
    w.check(out, outcome)
    assert outcome.attempted == 10
    if corrupt is None:
        assert outcome.fail_ratio == 0.0, outcome.problems
    else:
        assert outcome.fail_ratio > 0.0


@pytest.fixture(scope="module")
def evaluate_output(tmp_path_factory):
    w = wl.Evaluate(3, tmp_path_factory.mktemp("evaluate"), participants=2, features=1)
    w.setup()
    return w, w.run_pass()


def _swap_cfpa_utilities(sweep):
    rows = list(sweep.rows)
    idx = [i for i, r in enumerate(rows) if r.mechanism == "cfpa" and r.chunk_size == 32]
    lo, hi = idx[0], idx[-1]
    rows[lo], rows[hi] = (
        dataclasses.replace(rows[lo], mean_nmse=rows[hi].mean_nmse, mean_utility=rows[hi].mean_utility),
        dataclasses.replace(rows[hi], mean_nmse=rows[lo].mean_nmse, mean_utility=rows[lo].mean_utility),
    )
    return dataclasses.replace(sweep, rows=tuple(rows))


@pytest.mark.parametrize("corrupt", [
    None,
    lambda out: {**out, "sweep": dataclasses.replace(out["sweep"], rows=out["sweep"].rows[:-1])},
    lambda out: {**out, "sweep": _swap_cfpa_utilities(out["sweep"])},
    lambda out: {**out, "tune": dataclasses.replace(
        out["tune"], entries=dict(list(out["tune"].entries.items())[1:]))},
    lambda out: {**out, "tune": dataclasses.replace(
        out["tune"], entries={k: 33 for k in out["tune"].entries})},
])
def test_corrupted_evaluation_raises_fail_ratio(evaluate_output, corrupt):
    w, out = evaluate_output
    outcome = wl.Outcome()
    w.check(out if corrupt is None else corrupt(out), outcome)
    assert outcome.attempted == 2
    assert (outcome.fail_ratio > 0.0) == (corrupt is not None), outcome.problems


def test_ragged_release_passes_its_checks(tmp_path):
    w = wl.Ragged(5, tmp_path, participants=3, features=1)
    w.setup()
    out = w.run_pass()
    outcome = wl.Outcome()
    w.check(out, outcome)
    assert outcome.attempted == 1 + len(w.configs)
    assert outcome.fail_ratio == 0.0, outcome.problems
    assert [m.length for m in out["releases"][1][2].matrices] == [m.length for m in w.corpus.matrices]
    assert w.digest(out) == w.digest(w.run_pass())
