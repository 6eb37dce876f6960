"""Transform correctness against an independent direct-summation oracle,
and the core's truncation (zero-sensitivity cfpa) against inline numpy
full-spectrum references."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privseq import transform
from privseq.core import ParameterError
from privseq.mechanisms import MechanismConfig
from privseq.noise import NoiseSource
from helpers import released_row


def dft_oracle(x):
    """O(n^2) direct summation, written independently of the library."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    out = np.empty(n, dtype=np.complex128)
    for j in range(n):
        acc = 0.0 + 0.0j
        for t in range(n):
            angle = -2.0 * math.pi * j * t / n
            acc += x[t] * complex(math.cos(angle), math.sin(angle))
        out[j] = acc
    return out


def idft_oracle(f):
    f = np.asarray(f, dtype=np.complex128)
    n = f.size
    out = np.empty(n, dtype=np.complex128)
    for t in range(n):
        acc = 0.0 + 0.0j
        for j in range(n):
            angle = 2.0 * math.pi * j * t / n
            acc += f[j] * complex(math.cos(angle), math.sin(angle))
        out[t] = acc / n
    return out


def _dft(x):
    """The library's forward transform of one sequence, as a one-row batch."""
    return transform.dft_batch(np.asarray(x, dtype=np.float64)[np.newaxis, :])[0]


def _idft(f):
    return transform.idft_batch(np.asarray(f, dtype=np.complex128)[np.newaxis, :])[0]


class TestDft:
    def test_impulse(self):
        f = _dft([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(f, np.ones(4), atol=1e-12)

    def test_constant_concentrates_at_dc(self):
        f = _dft([1.0, 1.0, 1.0, 1.0])
        assert np.allclose(f, [4.0, 0.0, 0.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("n", list(range(1, 40)) + [64, 96, 128, 200, 256])
    def test_matches_direct_summation_oracle(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(0.0, 1.0, n)
        got = _dft(x)
        want = dft_oracle(x)
        tol = 1e-10 * max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) < tol
        back = _idft(want)
        assert np.max(np.abs(back - idft_oracle(want))) < tol

    def test_roundtrip_length_7(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0.0, 1.0, 7)
        back = _idft(_dft(x))
        assert np.max(np.abs(back.real - x)) < 1e-10
        assert np.max(np.abs(idft_oracle(dft_oracle(x)).real - x)) < 1e-10

    def test_parseval_under_this_convention(self):
        for n in (5, 16, 33, 128):
            rng = np.random.default_rng(n)
            x = rng.normal(0.0, 2.0, n)
            f = _dft(x)
            lhs = float(np.sum(np.abs(f) ** 2))
            rhs = n * float(np.sum(x * x))
            assert abs(lhs - rhs) < 1e-9 * rhs

    def test_batch_rows_equal_single_calls(self):
        # Sweep and perturb agree bitwise only if a row's transform does not
        # depend on the batch it sits in. 40, 48 and 1000 are the sweep's
        # and the ragged benchmark's chunk and sequence lengths.
        rng = np.random.default_rng(0)
        for n in (12, 40, 48, 64, 1000):
            rows = rng.normal(0.0, 1.0, (5, n))
            batch = transform.dft_batch(rows)
            singles = np.stack([_dft(r) for r in rows])
            assert np.array_equal(batch.view(np.uint64), singles.view(np.uint64))
            inverse = transform.idft_batch(batch)
            singles = np.stack([_idft(f) for f in batch])
            assert np.array_equal(inverse.view(np.uint64), singles.view(np.uint64))
        with pytest.raises(ParameterError):
            transform.dft_batch(np.zeros(4))
        with pytest.raises(ParameterError):
            transform.idft_batch(np.zeros((2, 0)))


def _truncated(x, k, symmetric=False):
    """Zero-sensitivity cfpa of x as one chunk: the core's truncation and
    inverse with no noise (lam = 0)."""
    config = MechanismConfig("cfpa", 1.0, chunk_size=len(x), symmetric=symmetric)
    return released_row(x, config, [(0.0, k)], NoiseSource(0))


class TestTruncatePad:
    def test_truncate_keeps_leading_indices(self):
        # Bins 0..k-1 kept literally, the rest zero, real part of the inverse.
        rng = np.random.default_rng(1)
        for n in (1, 2, 7, 8, 33):
            x = rng.normal(0.0, 1.0, n)
            for k in range(1, n + 1):
                kept = np.fft.fft(x)
                kept[k:] = 0.0
                assert np.max(np.abs(_truncated(x, k) - np.fft.ifft(kept).real)) < 1e-12, (n, k)
        with pytest.raises(ParameterError):
            _truncated(np.ones(8), 0)
        with pytest.raises(ParameterError):
            _truncated(np.ones(8), 9)

    def test_truncate_single_dc(self):
        # k = 1 keeps the DC bin alone: every sample becomes the mean.
        assert np.allclose(_truncated([4.0, 0.0, 0.0, 0.0], 1), np.ones(4), atol=1e-12)

    def test_full_retention_is_identity(self):
        rng = np.random.default_rng(1)
        for n in (6, 32):
            x = rng.normal(0.0, 1.0, n)
            for symmetric in (False, True):
                assert np.max(np.abs(_truncated(x, n, symmetric) - x)) < 1e-10

    def test_dc_only_reconstructs_constant(self):
        out = _truncated(np.full(16, 7.0), 1)
        assert np.allclose(out, np.full(16, 7.0), atol=1e-12)

    def test_truncation_error_non_increasing_in_k(self):
        rng = np.random.default_rng(2)
        for trial in range(100):
            n = int(rng.integers(4, 40))
            x = rng.normal(0.0, 1.0, n)
            errs = [float(np.linalg.norm(x - _truncated(x, k))) for k in range(1, n + 1)]
            for a, b in zip(errs, errs[1:]):
                assert b <= a + 1e-9

    def test_one_cycle_cosine_needs_symmetric_completion(self):
        # A 1-cycle cosine lives in bins 1 and n-1. Keeping literal bins
        # 0..1 drops the conjugate partner, so the default reconstruction
        # halves the amplitude; conjugate completion restores it exactly.
        n = 32
        x = np.cos(2.0 * np.pi * np.arange(n) / n)
        assert np.max(np.abs(_truncated(x, 2) - 0.5 * x)) < 1e-10
        assert np.max(np.abs(_truncated(x, 2, symmetric=True) - x)) < 1e-10


class TestDifference:
    def test_examples(self):
        assert np.array_equal(transform.diff_transform(np.array([3.0, 5.0, 4.0])), [3.0, 2.0, -1.0])
        assert np.array_equal(
            transform.diff_transform(np.array([2.0, 2.0, 2.0, 2.0])), [2.0, 0.0, 0.0, 0.0]
        )
        assert np.array_equal(transform.cumsum_reconstruct(np.array([3.0, 2.0, -1.0])), [3.0, 5.0, 4.0])
        assert np.array_equal(
            transform.cumsum_reconstruct(np.array([2.0, 0.0, 0.0, 0.0])), [2.0, 2.0, 2.0, 2.0]
        )

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_recovers_doubles(self, values):
        x = np.asarray(values, dtype=np.float64)
        back = transform.cumsum_reconstruct(transform.diff_transform(x))
        scale = max(1.0, float(np.max(np.abs(x))))
        assert np.max(np.abs(back - x)) <= 1e-12 * scale * x.size

    def test_batch_rows_equal_single_calls(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 7, 48, 1000):
            rows = rng.standard_normal((5, n)) * 10.0 ** rng.integers(-3, 4, size=(5, 1))
            batch = transform.diff_transform(rows)
            assert batch.shape == rows.shape
            for r in range(rows.shape[0]):
                assert batch[r].tobytes() == transform.diff_transform(rows[r]).tobytes()
        with pytest.raises(ParameterError):
            transform.diff_transform(np.zeros((2, 0)))
        with pytest.raises(ParameterError):
            transform.diff_transform(np.zeros((2, 2, 2)))

    def test_roundtrip_bitwise_for_integer_valued_doubles(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.integers(-1000, 1000, size=int(rng.integers(1, 64))).astype(np.float64)
            back = transform.cumsum_reconstruct(transform.diff_transform(x))
            assert np.array_equal(back, x)

    def test_long_roundtrip_drift_bounded(self):
        rng = np.random.default_rng(6)
        x = rng.normal(100.0, 5.0, 10**4)
        back = transform.cumsum_reconstruct(transform.diff_transform(x))
        assert np.max(np.abs(back - x)) <= 1e-12 * 10**4
