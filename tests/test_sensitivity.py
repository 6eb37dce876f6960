"""Pairwise sensitivity: hand values, an exact-arithmetic mirror oracle,
order/superset properties, group tables, and CSV round trips."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privseq.core import (
    ChunkPlan,
    Corpus,
    DataError,
    FeatureMatrix,
    InsufficientGroupError,
    ParameterError,
    chunk_plan,
)
from privseq.sensitivity import (
    DIFFERENCE,
    RAW,
    SensitivityTable,
    build_group_table,
    chunk_sensitivities,
    load_sensitivity_tables,
    lw_distance,
    write_sensitivity_tables,
)


# --- exact-arithmetic mirror oracle -----------------------------------
# Mirrors the library's floating-point contract independently: each
# difference (and square) is one IEEE-rounded operation, the sum is
# exact rational arithmetic rounded once at the end (what fsum
# guarantees), and sqrt is the correctly rounded math.sqrt. Agreement
# must be bit-for-bit, not approximate.


def oracle_lw(x, y, w):
    diffs = [float(a) - float(b) for a, b in zip(x, y)]
    if w == 1:
        total = sum((Fraction(abs(d)) for d in diffs), Fraction(0))
        return float(total)
    squares = [d * d for d in diffs]
    total = sum((Fraction(s) for s in squares), Fraction(0))
    return math.sqrt(float(total))


def oracle_pad(group):
    n = max(len(v) for v in group)
    return [list(v) + [0.0] * (n - len(v)) for v in group]


def oracle_feature(group, w):
    rows = oracle_pad(group)
    best = 0.0
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            d = oracle_lw(rows[i], rows[j], w)
            if d > best:
                best = d
    return best


def oracle_diff(row):
    out = [row[0]]
    for i in range(1, len(row)):
        out.append(row[i] - row[i - 1])
    return out


def oracle_chunks(group, plan, w, domain):
    rows = oracle_pad(group)
    out = []
    for s, e in plan.boundaries:
        sub = [r[s:e] for r in rows]
        if domain == DIFFERENCE:
            sub = [oracle_diff(r) for r in sub]
        best = 0.0
        for i in range(len(sub)):
            for j in range(i + 1, len(sub)):
                d = oracle_lw(sub[i], sub[j], w)
                if d > best:
                    best = d
        out.append(best)
    return out


def random_group(rng):
    m = int(rng.integers(2, 7))
    base = int(rng.integers(1, 21))
    group = []
    for _ in range(m):
        n = base if rng.random() < 0.5 else int(rng.integers(1, base + 1))
        scale = 10.0 ** rng.integers(-3, 4)
        group.append(rng.standard_normal(n) * scale)
    return group


def whole_signal(group, w):
    # a feature's sensitivity over its whole (padded) signal: the
    # one-chunk plan
    n = max(len(v) for v in group)
    return chunk_sensitivities(group, chunk_plan(n, n), w)[0]


# --- lw_distance -------------------------------------------------------


def test_lw_identical_is_zero():
    v = [1.5, -2.25, 3.0]
    assert lw_distance(v, v, 1) == 0.0
    assert lw_distance(v, v, 2) == 0.0


def test_lw_hand_values():
    assert lw_distance([1.0, 2.0], [3.0, 4.0], 1) == 4.0
    assert lw_distance([1.0, 2.0], [3.0, 4.0], 2) == math.sqrt(8.0)


def test_lw_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        lw_distance([1.0, 2.0], [1.0], 1)
    with pytest.raises(ParameterError):
        lw_distance([1.0], [1.0], 3)
    with pytest.raises(ParameterError):
        lw_distance([[1.0]], [[1.0]], 1)


def test_lw_l1_dominates_l2():
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = rng.standard_normal(int(rng.integers(1, 30)))
        y = rng.standard_normal(x.size)
        l1 = lw_distance(x, y, 1)
        l2 = lw_distance(x, y, 2)
        # allow one rounding step at the single-term degenerate boundary
        assert l1 >= l2 - 1e-12 * (1.0 + l2)


# --- whole-signal sensitivity ----------------------------------------


def test_feature_sensitivity_hand_values():
    assert whole_signal([[1.0, 2.0], [3.0, 4.0]], 1) == 4.0
    assert whole_signal([[5.0, 5.0], [5.0, 5.0]], 2) == 0.0
    got = whole_signal([[1.0, 2.0, 3.0], [2.0, 2.0], [0.0, 0.0, 0.0]], 2)
    assert got == math.sqrt(14.0)


def test_feature_sensitivity_pads_short_vectors():
    # [1,2,3] vs [1,2] padded to [1,2,0]: only the last sample differs
    assert whole_signal([[1.0, 2.0, 3.0], [1.0, 2.0]], 1) == 3.0


def test_feature_sensitivity_needs_two_vectors():
    with pytest.raises(InsufficientGroupError):
        whole_signal([[1.0, 2.0]], 1)
    with pytest.raises(ParameterError):
        whole_signal([[1.0], []], 1)


def test_feature_sensitivity_matches_oracle_bitwise():
    rng = np.random.default_rng(20240817)
    for _ in range(300):
        group = random_group(rng)
        for w in (1, 2):
            assert whole_signal(group, w) == oracle_feature(group, w)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_feature_sensitivity_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    group = random_group(rng)
    order = rng.permutation(len(group))
    shuffled = [group[i] for i in order]
    for w in (1, 2):
        assert whole_signal(group, w) == whole_signal(shuffled, w)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_feature_sensitivity_superset_monotone(seed):
    rng = np.random.default_rng(seed)
    group = random_group(rng)
    n = max(len(v) for v in group)
    extra = rng.standard_normal(n)
    for w in (1, 2):
        assert whole_signal(group + [extra], w) >= whole_signal(group, w)


# --- chunk_sensitivities ------------------------------------------------


def test_chunk_hand_values_raw():
    group = [[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 8.0]]
    got = chunk_sensitivities(group, chunk_plan(4, 2), 1, RAW)
    assert got == [0.0, 4.0]


def test_chunk_hand_values_difference():
    # within-chunk differences keep the first element: [0,5] -> [0,5]
    got = chunk_sensitivities([[0.0, 5.0], [0.0, 1.0]], chunk_plan(2, 2), 1, DIFFERENCE)
    assert got == [4.0]


def test_chunk_difference_keeps_first_element():
    group = [[3.0, 5.0, 4.0], [0.0, 0.0, 0.0]]
    # diffs: [3,2,-1] vs [0,0,0]; L1 = 6
    got = chunk_sensitivities(group, chunk_plan(3, 3), 1, DIFFERENCE)
    assert got == [6.0]


def test_single_chunk_equals_feature_sensitivity():
    rng = np.random.default_rng(3)
    for _ in range(25):
        group = random_group(rng)
        n = max(len(v) for v in group)
        plan = chunk_plan(n, n)
        for w in (1, 2):
            assert chunk_sensitivities(group, plan, w, RAW) == [oracle_feature(group, w)]


def test_chunk_matches_oracle_bitwise():
    rng = np.random.default_rng(99)
    for _ in range(150):
        group = random_group(rng)
        n = max(len(v) for v in group)
        c = int(rng.integers(1, n + 1))
        plan = chunk_plan(n, c)
        for w in (1, 2):
            for domain in (RAW, DIFFERENCE):
                assert chunk_sensitivities(group, plan, w, domain) == oracle_chunks(
                    group, plan, w, domain
                )


def test_chunk_bounded_by_full_signal():
    # restricting the max pair to a chunk can only shrink its distance
    rng = np.random.default_rng(11)
    for _ in range(50):
        group = random_group(rng)
        n = max(len(v) for v in group)
        c = int(rng.integers(1, n + 1))
        plan = chunk_plan(n, c)
        for w in (1, 2):
            full = oracle_feature(group, w)
            for v in chunk_sensitivities(group, plan, w, RAW):
                assert v <= full + 1e-12 * (1.0 + full)


def test_chunk_rejects_mismatched_plan_and_domain():
    group = [[1.0, 2.0], [3.0, 4.0]]
    with pytest.raises(ParameterError):
        chunk_sensitivities(group, chunk_plan(3, 2), 1, RAW)
    with pytest.raises(ParameterError):
        chunk_sensitivities(group, chunk_plan(2, 2), 1, "log")


def test_non_finite_values_are_rejected():
    # a NaN participant compares False against the running maximum, so
    # an exhaustive loop would skip it and report a lower sensitivity
    for bad in (math.nan, math.inf, -math.inf):
        group = [[0.0, 0.0], [1.0, 0.0], [bad, 100.0]]
        with pytest.raises(ParameterError, match="non-finite"):
            whole_signal(group, 1)
        for domain in (RAW, DIFFERENCE):
            with pytest.raises(ParameterError, match="non-finite"):
                chunk_sensitivities(group, chunk_plan(2, 1), 2, domain)


# --- near-ties that a floating-point sum can misrank ----------------------


@pytest.mark.parametrize(
    "group",
    [
        [[0.0, 0.0, 0.0, 0.0], [1e16, 1.0, 1.0, 1.0], [1e16 + 2, 0.0, 0.0, 0.0]],
        [[0.0, 0.0, 0.0, 0.0], [1.0, 1e16, 1.0, 1.0], [0.0, 1e16 + 2, 0.0, 0.0]],
    ],
)
def test_near_tie_that_a_float_sum_misranks(group):
    # A left-to-right float sum gives pair (0, 1) 1e16 and pair (0, 2)
    # 1e16 + 2; the correctly rounded sums are 1e16 + 4 and 1e16 + 2, so
    # the winner flips. Which of the two groups a given summation order
    # misranks depends on the order; the result must follow the exact sums.
    assert oracle_feature(group, 1) == 1e16 + 4
    assert whole_signal(group, 1) == oracle_feature(group, 1)
    for c in (1, 2, 3, 4):
        plan = chunk_plan(4, c)
        for domain in (RAW, DIFFERENCE):
            for w in (1, 2):
                assert chunk_sensitivities(group, plan, w, domain) == oracle_chunks(
                    group, plan, w, domain
                )


def near_tie_group(rng):
    """Rows whose pairwise distances tie in exact arithmetic, or nearly.

    Every row is base + a signed, permuted copy of one offset vector;
    offsets mix magnitudes 2**53 apart so float sums lose the small
    terms, and some entries move by one ulp.
    """
    n = int(rng.integers(1, 13))
    base = rng.standard_normal(n) * 10.0 ** rng.integers(-2, 3)
    offset = rng.standard_normal(n) * np.where(rng.random(n) < 0.2, 2.0**53, 1.0)
    rows = [base]
    for _ in range(int(rng.integers(1, 6))):
        row = base + rng.choice((-1.0, 1.0)) * offset[rng.permutation(n)]
        bumps = rng.random(n) < 0.3
        row[bumps] = np.nextafter(row[bumps], rng.choice((-np.inf, np.inf)))
        rows.append(row)
    # some recordings shorter than the group maximum, as in a ragged corpus
    return [r[: int(rng.integers(1, n + 1))] if rng.random() < 0.2 else r for r in rows]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_near_tie_groups_match_oracle(seed):
    # a few percent of near-tie groups make a float sum pick the wrong
    # pair, so each example checks several
    rng = np.random.default_rng(seed)
    for _ in range(5):
        group = near_tie_group(rng)
        n = max(len(v) for v in group)
        plan = chunk_plan(n, int(rng.integers(1, n + 1)))
        for w in (1, 2):
            assert whole_signal(group, w) == oracle_feature(group, w)
            for domain in (RAW, DIFFERENCE):
                assert chunk_sensitivities(group, plan, w, domain) == oracle_chunks(
                    group, plan, w, domain
                )


# --- SensitivityTable and group tables ----------------------------------


def _matrix(rid, pid, label, values, names=("f0", "f1")):
    return FeatureMatrix(
        recording_id=rid,
        participant_id=pid,
        labels={"category": label},
        feature_names=tuple(names),
        values=np.asarray(values, dtype=np.float64),
    )


def _corpus(excluded=()):
    rng = np.random.default_rng(5)
    mats = [
        _matrix("r0", "p0", "a", rng.standard_normal((6, 2))),
        _matrix("r1", "p1", "a", rng.standard_normal((6, 2))),
        _matrix("r2", "p2", "b", rng.standard_normal((6, 2))),
        _matrix("r3", "p3", "b", rng.standard_normal((6, 2))),
    ]
    return Corpus(matrices=tuple(mats), schema=("f0", "f1"), excluded_features=frozenset(excluded))


def test_table_lookup_and_validation():
    table = SensitivityTable(entries={("f0", 0, RAW, 1): 2.5}, group_label="a")
    assert table.value("f0", 0, RAW, 1) == 2.5
    assert table.features() == ("f0",)
    with pytest.raises(ParameterError):
        table.value("f0", 1, RAW, 1)
    with pytest.raises(ParameterError):
        SensitivityTable(entries={("f0", -1, RAW, 1): 1.0})
    with pytest.raises(ParameterError):
        SensitivityTable(entries={("f0", 0, "log", 1): 1.0})
    with pytest.raises(ParameterError):
        SensitivityTable(entries={("f0", 0, RAW, 3): 1.0})
    with pytest.raises(ParameterError):
        SensitivityTable(entries={("f0", 0, RAW, 1): -0.5})
    with pytest.raises(ParameterError):
        SensitivityTable(entries={("f0", 0, RAW, 1): math.inf})


def test_build_group_table_matches_direct_computation():
    corpus = _corpus()
    plan = chunk_plan(6, 3)
    table = build_group_table(corpus, "category", "a", plan)
    group = [m.column("f1") for m in corpus.group("category", "a")]
    for w in (1, 2):
        for domain in (RAW, DIFFERENCE):
            direct = chunk_sensitivities(group, plan, w, domain)
            for ci, v in enumerate(direct):
                assert table.value("f1", ci, domain, w) == v
    assert table.group_label == "a"


def test_build_group_table_excluded_features_are_zero():
    corpus = _corpus(excluded=("f0",))
    table = build_group_table(corpus, "category", "b", chunk_plan(6, 2))
    for ci in range(3):
        assert table.value("f0", ci, RAW, 1) == 0.0
        assert table.value("f0", ci, DIFFERENCE, 2) == 0.0
    assert table.value("f1", 0, RAW, 2) > 0.0


def test_build_group_table_needs_two_recordings():
    mats = (_matrix("r0", "p0", "a", np.ones((4, 2))),)
    corpus = Corpus(matrices=mats, schema=("f0", "f1"), excluded_features=frozenset())
    with pytest.raises(InsufficientGroupError):
        build_group_table(corpus, "category", "a", chunk_plan(4, 4))


# --- CSV round trips -----------------------------------------------------


def test_sensitivity_csv_round_trip(tmp_path):
    corpus = _corpus()
    table = build_group_table(corpus, "category", "a", chunk_plan(6, 2))
    path = tmp_path / "sens.csv"
    write_sensitivity_tables({"a": table}, path)
    loaded = load_sensitivity_tables(path)
    assert list(loaded) == ["a"]
    assert loaded["a"].group_label == "a"
    assert loaded["a"].entries == table.entries
    assert loaded["a"].plan == table.plan == chunk_plan(6, 2)

    # byte-identical on rewrite
    path2 = tmp_path / "sens2.csv"
    write_sensitivity_tables(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()

    # a table without a plan cannot say which chunking it indexes
    with pytest.raises(ParameterError, match="no chunk plan"):
        write_sensitivity_tables({"a": SensitivityTable(table.entries, "a")}, tmp_path / "x.csv")


def test_sensitivity_csv_loader_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("feature,chunk,domain,norm,value\n")
    with pytest.raises(DataError):
        load_sensitivity_tables(path)

    # files without the plan columns cannot say which chunking they index
    path.write_text("feature,chunk,domain,norm,value,group\nf0,0,raw,1,1.0,a\n")
    with pytest.raises(DataError, match="expected header"):
        load_sensitivity_tables(path)

    header = "feature,chunk,domain,norm,value,group,chunk_size,length\n"
    path.write_text(header + "f0,zero,raw,1,1.0,a,2,6\n")
    with pytest.raises(DataError, match="row 2"):
        load_sensitivity_tables(path)

    path.write_text(header + "f0,0,raw,1,oops,a,2,6\n")
    with pytest.raises(DataError, match="row 2"):
        load_sensitivity_tables(path)

    path.write_text(header + "f0,0,raw,1,1.0,a,2,six\n")
    with pytest.raises(DataError, match="row 2"):
        load_sensitivity_tables(path)

    path.write_text(header + "f0,0,raw,1,1.0,a,2,6\nf0,1,raw,1,1.0,a,3,6\n")
    with pytest.raises(DataError, match="chunk plans"):
        load_sensitivity_tables(path)

    path.write_text(header + "f0,3,raw,1,1.0,a,2,6\n")
    with pytest.raises(DataError, match="outside"):
        load_sensitivity_tables(path)

    # bytes that are not UTF-8 are malformed input, not a traceback
    path.write_bytes(header.encode() + b"\xff\n")
    with pytest.raises(DataError, match="UTF-8"):
        load_sensitivity_tables(path)


def test_multi_group_round_trip(tmp_path):
    corpus = _corpus()
    tables = {
        "a": build_group_table(corpus, "category", "a", chunk_plan(6, 3)),
        "b": build_group_table(corpus, "category", "b", chunk_plan(6, 3)),
    }
    path = tmp_path / "multi.csv"
    write_sensitivity_tables(tables, path)
    loaded = load_sensitivity_tables(path)
    assert set(loaded) == {"a", "b"}
    for label in tables:
        assert loaded[label].entries == tables[label].entries
        assert loaded[label].group_label == label
        assert loaded[label].plan == chunk_plan(6, 3)

    path2 = tmp_path / "multi2.csv"
    write_sensitivity_tables(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()

    empty = tmp_path / "empty.csv"
    empty.write_text("feature,chunk,domain,norm,value,group,chunk_size,length\n")
    with pytest.raises(DataError):
        load_sensitivity_tables(empty)
