"""Retention tuning: budget-limit behavior, determinism, corpus-wide
tables, and the tuned-count CSV format."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from privseq import mechanisms, transform, tuning
from privseq.core import Corpus, DataError, FeatureMatrix, ParameterError, chunk_plan
from privseq.mechanisms import MechanismConfig, fpa_lambda, perturb_corpus
from privseq.metrics import _nmse_ratio, run_sweep
from privseq.noise import NoiseSource
from privseq.sensitivity import DIFFERENCE, RAW, chunk_sensitivities
from privseq.tuning import KTable, load_k_csv, tune_corpus, tune_k, write_k_csv
from helpers import released_row


def _smooth_pair(n=32, seed=0):
    rng = np.random.default_rng(seed)
    base = np.cumsum(rng.standard_normal(n)) + 50.0
    other = base + 0.5 * rng.standard_normal(n)
    return [base, other]


def test_tight_budget_drives_k_to_one():
    # at epsilon -> 0 noise dwarfs truncation error, so keep one bin
    signals = _smooth_pair()
    plan = chunk_plan(32, 16)
    ks = tune_k(signals, plan, "cfpa", 1e-3, 8, NoiseSource(seed=1))
    assert ks == (1, 1)


def test_zero_sensitivity_drives_k_to_chunk_length():
    # identical signals mean zero sensitivity, zero noise: full retention
    x = np.cumsum(np.ones(24)) + 3.0
    plan = chunk_plan(24, 12)
    ks = tune_k([x, x.copy()], plan, "cfpa", 1.0, 4, NoiseSource(seed=2))
    assert ks == (12, 12)


def test_generous_budget_drives_k_to_chunk_length():
    signals = _smooth_pair(seed=3)
    plan = chunk_plan(32, 16)
    ks = tune_k(signals, plan, "fpa", 1e9, 4, NoiseSource(seed=3))
    assert ks == (16, 16)


def test_tuning_covers_dcfpa():
    signals = _smooth_pair(seed=4)
    plan = chunk_plan(32, 32)
    ks = tune_k(signals, plan, "dcfpa", 1e-3, 8, NoiseSource(seed=4))
    assert ks == (1,)


def test_tuning_is_reproducible():
    signals = _smooth_pair(seed=5)
    plan = chunk_plan(32, 8)
    a = tune_k(signals, plan, "cfpa", 2.4, 6, NoiseSource(seed=6))
    b = tune_k(signals, plan, "cfpa", 2.4, 6, NoiseSource(seed=6))
    assert a == b
    assert len(a) == 4
    assert all(1 <= k <= 8 for k in a)


def _reference_totals(signals, plan, mechanism, epsilon, runs, stream_of, deltas=None):
    # (sum, count) of the valid NMSE cells of every (k, chunk) over the
    # mechanisms' own releases of member m on stream stream_of(m, t)
    # (released_row, one member at a time), each chunk at min(k, its
    # length) and at the group's sensitivities unless deltas are given;
    # 0 where k exceeds the chunk. fpa's plan is the whole signal.
    config = MechanismConfig(mechanism, epsilon, plan.chunk_size)
    if deltas is None:
        domain = DIFFERENCE if mechanism == "dcfpa" else RAW
        deltas = chunk_sensitivities(signals, plan, 2, domain=domain)
    lengths = plan.chunk_lengths()
    totals = np.zeros((max(lengths), len(plan)))
    counts = np.zeros((max(lengths), len(plan)), dtype=np.int64)
    for k in range(1, max(lengths) + 1):
        per_chunk = [(d, min(k, c)) for d, c in zip(deltas, lengths)]
        for m, x in enumerate(signals):
            for t in range(runs):
                out = released_row(x, config, per_chunk, stream_of(m, t))
                for ci, (s, e) in enumerate(plan.boundaries):
                    err = x[s:e] - out[s:e]
                    v, ok = _nmse_ratio(np.mean(err * err), np.mean(x[s:e]) * np.mean(out[s:e]))
                    if k <= lengths[ci] and ok:
                        totals[k - 1, ci] += v
                        counts[k - 1, ci] += 1
    return totals, counts


def _reference_scores(signals, plan, mechanism, epsilon, runs, src):
    # Mean NMSE of every (k, chunk) over the mechanisms' own releases
    # (_reference_totals) on the streams tune_k reads under src, run t of
    # member m at src.derive(TUNING_STREAM, m, 0, t); inf where k exceeds
    # the chunk or every cell is flagged.
    stream_of = lambda m, t: src.derive(tuning.TUNING_STREAM, m, 0, t)
    totals, counts = _reference_totals(signals, plan, mechanism, epsilon, runs, stream_of)
    return np.divide(totals, counts, out=np.full_like(totals, np.inf), where=counts > 0)


def test_candidates_are_the_mechanisms_own_releases():
    # tune_k scores every k from prefix sums over bins. Its pick must be
    # as good as the best k scored on the mechanisms' own releases (up to
    # rounding), and be that k wherever the runner-up is clearly worse.
    # The pick must not depend on how the driver blocks the 5 members
    # (runs 2, n 22): one block by default, blocks of 2 + 2 + 1 members
    # at 132 values, one-member blocks at 40.
    rng = np.random.default_rng(7)
    signals = [np.cumsum(rng.standard_normal(22)) + 4.0 for _ in range(5)]
    src = NoiseSource(seed=8).derive(1, 2)
    block_sizes = {mechanisms.BLOCK_VALUES: [5], 132: [2, 2, 1], 40: [1] * 5}
    draws = mechanisms._draws
    checked = 0
    for mechanism, plan in (
        ("cfpa", chunk_plan(22, 8)),
        ("dcfpa", chunk_plan(22, 8)),
        ("fpa", chunk_plan(22, 22)),
    ):
        for epsilon in (0.5, 4.0, 60.0):
            ref = _reference_scores(signals, plan, mechanism, epsilon, 2, src)
            picks = set()
            for block_values, sizes in block_sizes.items():
                seen = []

                def recorded(streams, n):
                    seen.append(len(streams) // 2)  # 2 runs per member
                    return draws(streams, n)

                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(mechanisms, "BLOCK_VALUES", block_values)
                    mp.setattr(mechanisms, "_draws", recorded)
                    ks = tune_k(signals, plan, mechanism, epsilon, 2, src)
                assert seen == sizes, block_values
                picks.add(ks)
                assert len(ks) == len(plan)
                for ci, k in enumerate(ks):
                    best, runner_up = np.sort(ref[:, ci])[:2]
                    assert ref[k - 1, ci] <= best * (1 + 1e-8), (mechanism, epsilon, ci)
                    if runner_up > best * (1 + 1e-8):
                        assert k == int(np.argmin(ref[:, ci])) + 1, (mechanism, epsilon, ci)
                        checked += 1
            assert len(picks) == 1, (mechanism, epsilon)
    assert checked >= 30


def test_tune_k_makes_no_inverse_transform(monkeypatch):
    # Prefix scoring replaces every per-candidate release: tuning takes
    # forward transforms only.
    def no_inverse(rows):
        raise AssertionError("tune_k called idft_batch")

    forward = []
    real_dft = transform.dft_batch
    monkeypatch.setattr(transform, "idft_batch", no_inverse)
    monkeypatch.setattr(transform, "dft_batch", lambda rows: forward.append(1) or real_dft(rows))
    signals = _smooth_pair()
    for mechanism, plan in (("cfpa", chunk_plan(32, 12)), ("dcfpa", chunk_plan(32, 12)), ("fpa", chunk_plan(32, 32))):
        tune_k(signals, plan, mechanism, 2.4, 3, NoiseSource(seed=9))
    assert len(forward) == 5


@given(
    c=st.integers(1, 70),
    count=st.integers(1, 3),
    rest=st.integers(0, 69),
    mechanism=st.sampled_from(("fpa", "cfpa", "dcfpa")),
    members=st.integers(1, 3),
    runs=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(c=1, count=3, rest=0, mechanism="cfpa", members=2, runs=2, seed=0)
@example(c=2, count=2, rest=1, mechanism="dcfpa", members=3, runs=1, seed=1)
@example(c=2, count=1, rest=0, mechanism="fpa", members=1, runs=3, seed=2)
@example(c=33, count=2, rest=20, mechanism="dcfpa", members=2, runs=2, seed=3)
@example(c=70, count=1, rest=0, mechanism="fpa", members=2, runs=1, seed=4)
@settings(max_examples=60, deadline=None)
def test_spectral_scores_equal_the_mechanisms_own_releases(c, count, rest, mechanism, members, runs, seed):
    # The closed-form scores of every (k, chunk) of a row block, summed
    # over its rows, are the NMSE of the mechanisms' own releases on the
    # same streams: equal valid counts, totals within 1e-9 relative.
    # Hypothesis draws sizes and a seed only; the signals, sensitivities
    # (one chunk's 0, so lam = 0) and budget come from the seed.
    n = c if mechanism == "fpa" else count * c + rest % c
    plan = chunk_plan(n, c)
    rng = np.random.default_rng(seed)
    signals = [np.cumsum(rng.standard_normal(n)) + rng.uniform(-3.0, 10.0) for _ in range(members)]
    deltas = 10.0 ** rng.uniform(-2.0, 1.0, len(plan))
    deltas[rng.integers(len(plan))] = 0.0
    epsilon = float(10.0 ** rng.uniform(-1.0, 3.0))
    src = NoiseSource(seed=seed).derive(7)
    # the block and its draws as the release driver hands them over:
    # runs consecutive draw rows per member
    draws = mechanisms._draws([src.derive(m, t) for m in range(members) for t in range(runs)], n)
    units = mechanisms.FeatureUnits(plan, (1,) * len(plan), list(deltas), None)
    config = MechanismConfig(mechanism, epsilon, c)
    totals, counts = tuning._block_scores(np.stack(signals), draws, config, units)
    want = _reference_totals(signals, plan, mechanism, epsilon, runs, src.derive, deltas)
    np.testing.assert_array_equal(counts, want[1])
    # atol covers the rounding residue of a release that is exact in
    # closed form (lam = 0 at k = c).
    np.testing.assert_allclose(totals, want[0], rtol=1e-9, atol=1e-12)


def test_candidate_scales_are_fpa_lambda_of_every_k():
    # One grid expression gives every (k, chunk) scale, bitwise the scalar
    # fpa_lambda of the chunk at min(k, its length) and the written-out
    # rule: 0 for a zero sensitivity, ParameterError for a positive one
    # that underflows.
    rng = np.random.default_rng(12)
    for _ in range(60):
        n = int(rng.integers(1, 80))
        plan = chunk_plan(n, int(rng.integers(1, n + 1)))
        deltas = 10.0 ** rng.uniform(-3.0, 3.0, len(plan))
        deltas[rng.random(len(plan)) < 0.3] = 0.0
        epsilon = float(10.0 ** rng.uniform(-2.0, 4.0))
        lengths = plan.chunk_lengths()
        lams = tuning._candidate_scales(plan, deltas, epsilon)
        assert lams.shape == (max(lengths), len(plan))
        for k in range(1, max(lengths) + 1):
            for i, (c, d) in enumerate(zip(lengths, deltas)):
                kc = min(k, c)
                g = kc if kc <= c // 2 + 1 else 3 * kc - c - 2 + c % 2
                want = fpa_lambda(c, kc, float(d), epsilon)
                assert lams[k - 1, i].hex() == want.hex()
                assert want == math.sqrt(c) * math.sqrt(g) * float(d) / epsilon
                assert (want == 0.0) == (d == 0.0)
    with pytest.raises(ParameterError, match="underflows"):
        tuning._candidate_scales(chunk_plan(5, 2), [1.0, 5e-324, 1.0], 2.0)
    with pytest.raises(ParameterError, match="underflows"):
        tune_k([np.zeros(4), np.array([1e-150, 0.0, 0.0, 0.0])], chunk_plan(4, 2), "cfpa", 1e200, 1, NoiseSource(1))


def test_tune_k_validation():
    signals = _smooth_pair()
    plan = chunk_plan(32, 16)
    src = NoiseSource(seed=7)
    with pytest.raises(ParameterError):
        tune_k(signals, plan, "lpa", 1.0, 4, src)
    with pytest.raises(ParameterError):
        tune_k(signals, plan, "dct", 1.0, 4, src)
    with pytest.raises(ParameterError):
        tune_k(signals, plan, "fpa", 0.0, 4, src)
    with pytest.raises(ParameterError):
        tune_k(signals, plan, "fpa", 1.0, 0, src)
    with pytest.raises(ParameterError):
        tune_k(signals[:1], plan, "fpa", 1.0, 4, src)
    with pytest.raises(ParameterError):
        tune_k([signals[0], signals[1][:30]], plan, "fpa", 1.0, 4, src)
    # an all-zero group is an excluded feature, which has nothing to tune
    with pytest.raises(ParameterError, match="non-zero sample"):
        tune_k([np.zeros(32), -np.zeros(32)], plan, "cfpa", 1.0, 4, src)


# --- tune_corpus ----------------------------------------------------------


def _matrix(rid, pid, label, values, names):
    return FeatureMatrix(
        recording_id=rid,
        participant_id=pid,
        labels={"category": label},
        feature_names=names,
        values=np.asarray(values, dtype=np.float64),
    )


def _corpus(lengths=(16, 16, 16, 16), excluded=()):
    """Two groups of two recordings; the columns named in excluded are
    zeroed, so the corpus excludes them."""
    rng = np.random.default_rng(8)
    names = ("f0", "f1")
    labels = ["a", "a", "b", "b"]
    mats = []
    for i in range(4):
        values = np.cumsum(rng.standard_normal((lengths[i], 2)), axis=0) + 20.0
        values[:, [names.index(f) for f in excluded]] = 0.0
        mats.append(_matrix(f"r{i}", f"p{i}", labels[i], values, names))
    return Corpus(matrices=tuple(mats), schema=names)


def test_tune_corpus_covers_all_groups_and_chunks():
    table = tune_corpus(_corpus(), "category", 8, "cfpa", 2.4, 4, NoiseSource(seed=9))
    assert sorted(table.plans) == ["a", "b"]
    assert table.runs_used == 4
    assert table.epsilon_used == 2.4
    expected_keys = {
        (label, feature, ci)
        for label in ("a", "b")
        for feature in ("f0", "f1")
        for ci in range(2)
    }
    assert set(table.entries) == expected_keys
    mapping = table.mapping("a")
    assert set(mapping) == {(f, ci) for f in ("f0", "f1") for ci in range(2)}
    with pytest.raises(ParameterError):
        table.mapping("c")
    assert table.plans == {"a": chunk_plan(16, 8), "b": chunk_plan(16, 8)}


def test_tune_corpus_skips_excluded_and_pads_short_recordings():
    table = tune_corpus(
        _corpus(lengths=(16, 11, 16, 16), excluded=("f1",)),
        "category", 8, "dcfpa", 1.0, 3, NoiseSource(seed=10),
    )
    assert all(feature == "f0" for _, feature, _ in table.entries)
    # group 'a' pads recording r1 up to length 16: still 2 chunks
    assert {ci for label, _, ci in table.entries if label == "a"} == {0, 1}


def test_tune_corpus_validation():
    with pytest.raises(ParameterError):
        tune_corpus(_corpus(), "category", 0, "cfpa", 1.0, 4, NoiseSource(seed=11))


def test_tuning_reads_no_stream_a_release_reads(monkeypatch):
    # tune-k, perturb and sweep under one seed all start from one root
    # source; tuning runs the release driver at the child TUNING_STREAM,
    # so no draw it scores is a draw a release under that root adds.
    read = []
    real_draws = mechanisms._draws

    def spy(streams, n):
        read.append({s._seq.spawn_key for s in streams})
        return real_draws(streams, n)

    monkeypatch.setattr(mechanisms, "_draws", spy)
    corpus, root = _corpus(), NoiseSource(seed=13)
    for mechanism in ("lpa", "fpa", "cfpa", "dcfpa"):
        perturb_corpus(corpus, "category", MechanismConfig(mechanism, 2.4, chunk_size=8), root)
    run_sweep(corpus, "category", root, epsilons=(2.4,), chunk_sizes=(8,), runs=4)
    released = set().union(*read)
    read.clear()
    for mechanism in ("fpa", "cfpa", "dcfpa"):
        tune_corpus(corpus, "category", 8, mechanism, 2.4, 4, root)
    tuned = set().union(*read)
    assert (0, 0, 0) in released and len(tuned) == 4 * 2 * 4
    assert tuned.isdisjoint(released)
    assert all(sid[0] == tuning.TUNING_STREAM and len(sid) == 4 for sid in tuned)


# --- KTable and CSV -------------------------------------------------------


def test_ktable_validation():
    plans = {"a": chunk_plan(16, 8)}
    with pytest.raises(ParameterError):
        KTable(entries={("a", "f0", 0): 0}, runs_used=4, epsilon_used=1.0, plans=plans, mechanism="cfpa")
    with pytest.raises(ParameterError):
        KTable(entries={("a", "f0", -1): 2}, runs_used=4, epsilon_used=1.0, plans=plans, mechanism="cfpa")
    with pytest.raises(ParameterError):
        KTable(entries={("a", "f0", 0): 2}, runs_used=0, epsilon_used=1.0, plans=plans, mechanism="cfpa")
    with pytest.raises(ParameterError):
        KTable(entries={("a", "f0", 0): 2}, runs_used=4, epsilon_used=0.0, plans=plans, mechanism="cfpa")
    for mechanism in ("lpa", "dct"):
        with pytest.raises(ParameterError, match="mechanism"):
            KTable(entries={("a", "f0", 0): 2}, runs_used=4, epsilon_used=1.0, plans=plans,
                   mechanism=mechanism)


def test_ktable_plans_must_fit_the_entries():
    plan = chunk_plan(16, 8)
    KTable(entries={("a", "f0", 1): 8}, runs_used=4, epsilon_used=1.0, plans={"a": plan}, mechanism="cfpa")
    with pytest.raises(ParameterError, match="plans name groups"):
        KTable(entries={("a", "f0", 0): 2}, runs_used=4, epsilon_used=1.0, plans={"b": plan}, mechanism="cfpa")
    with pytest.raises(ParameterError, match="outside"):
        KTable(entries={("a", "f0", 2): 2}, runs_used=4, epsilon_used=1.0, plans={"a": plan}, mechanism="cfpa")


def test_k_csv_round_trip(tmp_path):
    table = tune_corpus(_corpus(), "category", 8, "cfpa", 2.4, 4, NoiseSource(seed=12))
    path = tmp_path / "ks.csv"
    write_k_csv(table, path)
    loaded = load_k_csv(path)
    assert loaded.entries == table.entries
    assert loaded.runs_used == table.runs_used
    assert loaded.epsilon_used == table.epsilon_used
    assert loaded.plans == table.plans
    assert loaded.mechanism == table.mechanism == "cfpa"

    path2 = tmp_path / "ks2.csv"
    write_k_csv(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_k_csv_loader_errors(tmp_path):
    head = "group_label,feature,chunk_index,k,runs_used,epsilon_used,chunk_size,length,mechanism\n"
    path = tmp_path / "ks.csv"

    with pytest.raises(DataError, match="k table not found"):
        load_k_csv(path)
    with pytest.raises(DataError, match="cannot read k table: Is a directory"):
        load_k_csv(tmp_path)

    path.write_text("group,feature\n")
    with pytest.raises(DataError):
        load_k_csv(path)

    # files without the plan columns cannot say which chunking they index
    path.write_text("group_label,feature,chunk_index,k,runs_used,epsilon_used\na,f0,0,2,4,1.0\n")
    with pytest.raises(DataError, match="expected header"):
        load_k_csv(path)

    # nor, without the mechanism column, which release they tune
    path.write_text(head.replace(",mechanism", "") + "a,f0,0,2,4,1.0,8,16\n")
    with pytest.raises(DataError, match="expected header"):
        load_k_csv(path)

    path.write_text(head)
    with pytest.raises(DataError, match="no entries"):
        load_k_csv(path)

    path.write_text(head + "a,f0,0,2,4,1.0,8,16,cfpa\na,f0,0,3,4,1.0,8,16,cfpa\n")
    with pytest.raises(DataError, match="duplicate"):
        load_k_csv(path)

    path.write_text(head + "a,f0,0,2,4,1.0,8,16,cfpa\na,f0,1,2,8,1.0,8,16,cfpa\n")
    with pytest.raises(DataError, match="inconsistent"):
        load_k_csv(path)

    path.write_text(head + "a,f0,0,2,4,1.0,8,16,cfpa\na,f0,1,2,4,2.0,8,16,cfpa\n")
    with pytest.raises(DataError, match="inconsistent"):
        load_k_csv(path)

    path.write_text(head + "a,f0,0,2,4,1.0,8,16,cfpa\na,f0,1,2,4,1.0,8,16,dcfpa\n")
    with pytest.raises(DataError, match="inconsistent"):
        load_k_csv(path)

    path.write_text(head + "a,f0,0,2,4,1.0,8,16,lpa\n")
    with pytest.raises(DataError, match="mechanism"):
        load_k_csv(path)

    path.write_text(head + "a,f0,zero,2,4,1.0,8,16,cfpa\n")
    with pytest.raises(DataError, match="row 2"):
        load_k_csv(path)

    path.write_text(head + "a,f0,0,2,4,1.0,8,sixteen,cfpa\n")
    with pytest.raises(DataError, match="row 2"):
        load_k_csv(path)

    path.write_text(head + "a,f0,0,2,4,1.0,8,16,cfpa\na,f0,1,2,4,1.0,4,16,cfpa\n")
    with pytest.raises(DataError, match="chunk plans"):
        load_k_csv(path)

    path.write_text(head + "a,f0,2,2,4,1.0,8,16,cfpa\n")
    with pytest.raises(DataError, match="outside"):
        load_k_csv(path)

    path.write_text(head + "a,f0,0,2,4,1.0,0,16,cfpa\n")
    with pytest.raises(DataError, match="chunk_size"):
        load_k_csv(path)

    # bytes that are not UTF-8 are malformed input, not a traceback
    path.write_bytes(head.encode() + b"\xff\n")
    with pytest.raises(DataError, match="UTF-8"):
        load_k_csv(path)
