"""Noise source determinism and Laplace sampling statistics.

The distributional checks are Monte Carlo with fixed seeds, sized so the
asserted tolerances hold with wide margin; the stream-address checks pin
the reproducibility contract everything downstream builds on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privseq.core import ParameterError
from privseq.noise import NoiseSource, _unit_uniform, unit_laplace


class TestNoiseSource:
    def test_same_address_same_stream(self):
        a = NoiseSource(42).derive(0)
        b = NoiseSource(42).derive(0)
        assert np.array_equal(unit_laplace(a.generator(), 64), unit_laplace(b.generator(), 64))

    def test_source_is_an_address_not_a_cursor(self):
        src = NoiseSource(42).derive(0)
        first = unit_laplace(src.generator(), 16)
        second = unit_laplace(src.generator(), 16)
        assert np.array_equal(first, second)

    def test_derive_appends_coordinates(self):
        root = NoiseSource(7)
        assert repr(root.derive(1, 2)) == "NoiseSource(seed=7, path=(1, 2))"
        assert repr(root.derive(1).derive(2)) == repr(root.derive(1, 2))
        a = unit_laplace(root.derive(1, 2).generator(), 32)
        b = unit_laplace(root.derive(1).derive(2).generator(), 32)
        assert np.array_equal(a, b)

    def test_distinct_addresses_distinct_streams(self):
        root = NoiseSource(7)
        a = unit_laplace(root.derive(0).generator(), 32)
        b = unit_laplace(root.derive(1).generator(), 32)
        c = unit_laplace(root.derive(0, 0).generator(), 32)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_seed_validation(self):
        with pytest.raises(ParameterError):
            NoiseSource(-1)
        with pytest.raises(ParameterError):
            NoiseSource(2**64)
        with pytest.raises(ParameterError):
            NoiseSource(3).derive(-2)
        # a stream is addressed one way, by derive
        with pytest.raises(TypeError):
            NoiseSource(3, 0)

    def test_cross_correlation_between_streams_is_tiny(self):
        root = NoiseSource(123)
        n = 10**5
        a = unit_laplace(root.derive(0).generator(), n)
        b = unit_laplace(root.derive(1).generator(), n)
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) < 0.01


class TestSampleLaplace:
    def test_mean_zero(self):
        draws = unit_laplace(NoiseSource(42).derive(0).generator(), 10**6)
        assert abs(float(np.mean(draws))) < 0.01

    def test_variance_matches_two_lambda_squared(self):
        draws = 2.0 * unit_laplace(NoiseSource(42).derive(1).generator(), 10**6)
        var = float(np.var(draws))
        assert abs(var - 8.0) < 0.05 * 8.0

    def test_adjacent_draws_uncorrelated(self):
        draws = unit_laplace(NoiseSource(42).derive(2).generator(), 10**6 + 1)
        r = np.corrcoef(draws[:-1], draws[1:])[0, 1]
        assert abs(r) < 0.01

    def test_ks_statistic_against_analytic_cdf(self):
        lam = 1.0
        draws = np.sort(lam * unit_laplace(NoiseSource(42).derive(3).generator(), 10**6))
        u = draws / lam
        cdf = np.where(u < 0, 0.5 * np.exp(u), 1.0 - 0.5 * np.exp(-u))
        n = draws.size
        grid = np.arange(1, n + 1) / n
        ks = max(float(np.max(grid - cdf)), float(np.max(cdf - (grid - 1.0 / n))))
        assert ks < 0.002


class TestUnitLaplace:
    def test_sequential_calls_split_like_one_call(self):
        # One 64-bit word per draw (power-of-two bound, no rejection), so
        # chunked consumption must concatenate to the whole stream. The
        # sweep runner's slicing relies on this exactly.
        src = NoiseSource(99).derive(4)
        whole = unit_laplace(src.generator(), 101)
        gen = src.generator()
        parts = np.concatenate(
            [unit_laplace(gen, 13), unit_laplace(gen, 1), unit_laplace(gen, 87)]
        )
        assert np.array_equal(whole, parts)

    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=64))
    @settings(max_examples=50, deadline=None)
    def test_draws_are_finite_and_scale_free(self, seed, count):
        draws = unit_laplace(NoiseSource(seed).generator(), count)
        assert draws.shape == (count,)
        assert np.all(np.isfinite(draws))

    def test_lambda_scales_linearly(self):
        # The inverse CDF at scale lam is lam times the unit draw, bit for
        # bit, so a sweep can reuse one unit draw across its epsilon grid.
        src = NoiseSource(11).derive(0)
        u = _unit_uniform(src.generator(), 32)
        assert np.array_equal(
            -3.0 * np.sign(u) * np.log1p(-2.0 * np.abs(u)),
            3.0 * unit_laplace(src.generator(), 32),
        )
