"""Pairwise sensitivity: hand values, an exact-arithmetic mirror oracle,
order/superset properties, the L2 Gram filter on adversarial groups and
its memory, and group tables."""
import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privseq.core import (
    Corpus,
    FeatureMatrix,
    ParameterError,
    chunk_plan,
)
from privseq import sensitivity
from privseq.sensitivity import (
    DIFFERENCE,
    RAW,
    SensitivityTable,
    build_group_table,
    chunk_sensitivities,
)
from sensitivity_oracle import oracle_chunks, oracle_feature


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


# --- L_w distance of one pair ---------------------------------------------


def pair_distance(x, y, w):
    # a two-recording group's sensitivity is the L_w distance of its pair
    return whole_signal([x, y], w)


def test_lw_identical_is_zero():
    v = [1.5, -2.25, 3.0]
    for w in (1, 2):
        assert pair_distance(v, v, w) == 0.0
        assert chunk_sensitivities([v, v], chunk_plan(3, 2), w, DIFFERENCE) == [0.0, 0.0]


def test_lw_hand_values():
    assert pair_distance([1.0, 2.0], [3.0, 4.0], 1) == 4.0
    assert pair_distance([1.0, 2.0], [3.0, 4.0], 2) == math.sqrt(8.0)


def test_lw_rejects_bad_inputs():
    with pytest.raises(ParameterError, match="norm order"):
        pair_distance([1.0], [1.0], 3)
    with pytest.raises(ParameterError, match="1-D"):
        pair_distance([[1.0]], [[1.0]], 1)


def test_lw_l1_dominates_l2():
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = rng.standard_normal(int(rng.integers(1, 30)))
        y = rng.standard_normal(x.size)
        l1 = pair_distance(x, y, 1)
        l2 = pair_distance(x, y, 2)
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
    with pytest.raises(ParameterError, match="sensitivity needs at least 2 vectors, got 1"):
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


# --- the L2 Gram filter ----------------------------------------------------


def adversarial_group(rng, kind):
    """Up to 40 rows that strain the Gram form of the L2 filter."""
    m, n = int(rng.integers(2, 41)), int(rng.integers(1, 17))
    if kind == "offset":  # q_i + q_j - 2 G_ij cancels unless centered
        rows = 1e8 + rng.standard_normal((m, n))
    elif kind == "tiny":  # squares and products underflow to a few subnormal steps
        rows = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-163, -158)
        rows *= rng.random((m, n)) < 0.8
    elif kind == "huge":
        # rows at 1e155, a few of them b higher: every square and every
        # distance stays finite, while q_max can pass half the largest
        # double, so that the bound overflows and every pair is kept;
        # equal lengths, as zero padding beside 1e155 would overflow
        b = math.sqrt(0.99 * sys.float_info.max / n)
        high = rng.random(m) < 0.2
        return list(1e155 + b * high[:, None] * rng.uniform(0.95, 1.0, (m, n)))
    else:  # duplicates: a few distinct rows, ties everywhere
        pool = rng.standard_normal((int(rng.integers(1, 4)), n))
        rows = pool[rng.integers(0, len(pool), m)]
    # some recordings shorter than the group maximum, as in a ragged corpus
    return [r[: int(rng.integers(1, n + 1))] if rng.random() < 0.2 else r for r in rows]


@given(st.integers(0, 2**32 - 1), st.sampled_from(("offset", "tiny", "huge", "duplicates")))
@settings(max_examples=60, deadline=None)
def test_l2_filter_matches_oracle_on_adversarial_groups(seed, kind):
    # a few percent of underflowing groups need the bound's absolute
    # term, so each example checks several
    rng = np.random.default_rng(seed)
    for _ in range(3):
        group = adversarial_group(rng, kind)
        n = max(len(v) for v in group)
        plan = chunk_plan(n, int(rng.integers(1, n + 1)))
        for domain in (RAW, DIFFERENCE):
            expected = oracle_chunks(group, plan, 2, domain)
            assert chunk_sensitivities(group, plan, 2, domain) == expected
            # one chunk per batch and one column per slab
            with mock.patch.object(sensitivity, "_GRAM_VALUES", 1), mock.patch.object(
                sensitivity, "_PRODUCT_TERMS", 1
            ):
                assert chunk_sensitivities(group, plan, 2, domain) == expected


def test_l2_gram_overflow_keeps_every_pair():
    # q of the two high rows passes half the largest double, so E
    # overflows; the distances themselves stay finite
    n = 4
    b = math.sqrt(0.99 * sys.float_info.max / n)
    rows = np.full((40, n), 1e155)
    rows[:2] += b
    first, second = sensitivity._l2_candidates(rows, [0])[0]
    assert len(first) == 40 * 39 // 2
    group = list(rows)
    assert chunk_sensitivities(group, chunk_plan(n, n), 2) == oracle_chunks(
        group, chunk_plan(n, n), 2, RAW
    )


def test_l2_differences_whose_squares_underflow_or_overflow_still_count():
    # 1e-170 squares to 0 and 1e-160 to a subnormal; scaling before
    # squaring keeps both, so the unit gets its noise
    plan, zeros = chunk_plan(4, 4), [0.0] * 4
    assert chunk_sensitivities([[1e-170, 0, 0, 0], zeros], plan, 2, RAW) == [1e-170]
    assert chunk_sensitivities([[1e-160, 1e-160, 0, 0], zeros], plan, 2, RAW) == [
        1.414213562373095e-160
    ]
    assert chunk_sensitivities([zeros, zeros], plan, 2, RAW) == [0.0]
    # 1e308 squares to inf, while the distance is a double; one that is
    # not reads inf, which no noise scale accepts
    assert chunk_sensitivities([[1e308, 1e308], [0.0, 0.0]], chunk_plan(2, 2), 2, RAW) == [
        1e308 * math.sqrt(2)
    ]
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert chunk_sensitivities([[1e308] * 4, zeros], plan, 2, RAW) == [math.inf]


@pytest.mark.parametrize("domain", [RAW, DIFFERENCE])
def test_l2_working_memory_does_not_grow_with_the_chunk_count(domain):
    # 512 chunks of a 200-row group: one (chunks, m, m) stack for all of
    # them would take 160 MiB; the padded rows and their difference
    # transform take 12.5 MiB
    rng = np.random.default_rng(8)
    group = list(3000.0 + rng.standard_normal((200, 4096)))
    tracemalloc.start()
    try:
        chunk_sensitivities(group, chunk_plan(4096, 8), 2, domain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


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
    """Groups a and b of two recordings each; the columns named in
    excluded are zeroed, so the corpus excludes them."""
    rng = np.random.default_rng(5)
    mats = []
    for rid, pid, label in (("r0", "p0", "a"), ("r1", "p1", "a"), ("r2", "p2", "b"),
                            ("r3", "p3", "b")):
        values = rng.standard_normal((6, 2))
        values[:, [("f0", "f1").index(f) for f in excluded]] = 0.0
        mats.append(_matrix(rid, pid, label, values))
    return Corpus(matrices=tuple(mats), schema=("f0", "f1"))


def test_table_lookup_and_validation():
    table = SensitivityTable(entries={("f0", 0, RAW, 1): 2.5}, group_label="a")
    assert table.value("f0", 0, RAW, 1) == 2.5
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
    assert corpus.excluded_features == frozenset({"f0"})
    table = build_group_table(corpus, "category", "b", chunk_plan(6, 2))
    for ci in range(3):
        for norm in (1, 2):
            assert table.value("f0", ci, RAW, norm) == 0.0
            assert table.value("f0", ci, DIFFERENCE, norm) == 0.0
    assert table.value("f1", 0, RAW, 2) > 0.0


def test_build_group_table_needs_two_recordings():
    mats = (_matrix("r0", "p0", "a", np.ones((4, 2))),)
    corpus = Corpus(matrices=mats, schema=("f0", "f1"))
    with pytest.raises(ParameterError, match=r"label 'a' has 1 recordings; need >= 2"):
        build_group_table(corpus, "category", "a", chunk_plan(4, 4))
