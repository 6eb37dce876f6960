"""Fourier and difference transforms.

Conventions, fixed once here and assumed everywhere else:
  - forward DFT is unnormalized: F[j] = sum_t x[t] e^{-2 pi i j t / n};
  - the inverse carries the full 1/n factor;
  - "first k coefficients" means indices 0..k-1 literally, with no
    conjugate-symmetric completion; pad_and_invert therefore takes the
    real part of the inverse, discarding the imaginary residue the
    one-sided truncation induces. complete_symmetric is the documented
    alternative that synthesizes the mirrored bins from the retained
    ones.

dft_batch and idft_batch are the single entry point to numpy's FFT;
every other transform here, and every mechanism, tuning and metrics
path, goes through them. numpy transforms each row of a batch alike, so
a batch of m rows is bit-identical to m single-row calls; that is what
keeps batched sweeps and per-chunk perturbation bitwise in step.
"""
from __future__ import annotations

import numpy as np

from privseq.core import ComplexSeq, ParameterError, RealSeq

__all__ = [
    "dft",
    "idft",
    "truncate_low",
    "complete_symmetric",
    "reflect_conjugate",
    "pad_and_invert",
    "diff_transform",
    "cumsum_reconstruct",
    "dft_batch",
    "idft_batch",
]


def dft_batch(rows: np.ndarray) -> np.ndarray:
    """Forward transform of each row of a (m, n) float64 array."""
    x = np.asarray(rows, dtype=np.float64)
    if x.ndim != 2:
        raise ParameterError(f"expected a 2-D batch, got shape {x.shape}")
    if x.shape[1] < 1:
        raise ParameterError("rows must have length >= 1")
    return np.fft.fft(x, axis=1)


def idft_batch(rows: np.ndarray) -> np.ndarray:
    """Inverse transform (with the 1/n factor) of each complex row."""
    f = np.asarray(rows, dtype=np.complex128)
    if f.ndim != 2:
        raise ParameterError(f"expected a 2-D batch, got shape {f.shape}")
    if f.shape[1] < 1:
        raise ParameterError("rows must have length >= 1")
    return np.fft.ifft(f, axis=1)


def dft(x: RealSeq) -> ComplexSeq:
    """F[j] = sum_t x[t] e^{-2 pi i j t / n} for j = 0..n-1."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ParameterError("dft expects a non-empty 1-D sequence")
    return dft_batch(arr[np.newaxis, :])[0]


def idft(f: ComplexSeq) -> ComplexSeq:
    """x[t] = (1/n) sum_j F[j] e^{+2 pi i j t / n}; exact inverse of dft."""
    arr = np.asarray(f, dtype=np.complex128)
    if arr.ndim != 1 or arr.size < 1:
        raise ParameterError("idft expects a non-empty 1-D sequence")
    return idft_batch(arr[np.newaxis, :])[0]


def truncate_low(f: ComplexSeq, k: int) -> ComplexSeq:
    """The first k coefficients (indices 0..k-1), in order."""
    arr = np.asarray(f, dtype=np.complex128)
    if arr.ndim != 1:
        raise ParameterError("truncate_low expects a 1-D sequence")
    if not 1 <= k <= arr.size:
        raise ParameterError(f"k must be in [1, {arr.size}], got {k}")
    return arr[:k].copy()


def reflect_conjugate(full: np.ndarray, k: int) -> None:
    """Fill bins n-1..n-k+1 with conjugates of bins 1..k-1, in place,
    along the last axis (n is its length).

    Bins already inside the retained range [0, k) are left alone, so
    k = n is the identity and overlapping mirrors never clobber data.
    """
    n = full.shape[-1]
    j = np.arange(1, k)
    t = n - j
    keep = t >= k
    full[..., t[keep]] = np.conj(full[..., j[keep]])


def complete_symmetric(fk: ComplexSeq, n: int) -> ComplexSeq:
    """Zero-pad k retained coefficients to length n with conjugate completion.

    Places fk at indices 0..k-1 and synthesizes bin n-j as the conjugate
    of bin j for j = 1..k-1 (skipping any mirror position that falls
    inside the retained range, so k = n is the identity). For the
    spectrum of a real signal this restores both halves of each retained
    frequency, so a pure cosine at bin j < k survives at full amplitude
    where the one-sided truncation halves it.
    """
    arr = np.asarray(fk, dtype=np.complex128)
    if arr.ndim != 1 or arr.size < 1:
        raise ParameterError("complete_symmetric expects a non-empty 1-D sequence")
    if n < 1 or arr.size > n:
        raise ParameterError(f"cannot pad length {arr.size} to {n}")
    out = np.zeros(n, dtype=np.complex128)
    out[: arr.size] = arr
    reflect_conjugate(out, arr.size)
    return out


def pad_and_invert(fk: ComplexSeq, n: int) -> RealSeq:
    """Zero-pad coefficients to length n, invert, take the real part."""
    arr = np.asarray(fk, dtype=np.complex128)
    if arr.ndim != 1 or arr.size < 1:
        raise ParameterError("pad_and_invert expects a non-empty 1-D sequence")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if arr.size > n:
        raise ParameterError(f"cannot pad length {arr.size} down to {n}")
    full = np.zeros(n, dtype=np.complex128)
    full[: arr.size] = arr
    return idft_batch(full[np.newaxis, :])[0].real.copy()


def diff_transform(x: RealSeq) -> RealSeq:
    """d[0] = x[0]; d[t] = x[t] - x[t-1] for t >= 1.

    A (m, n) batch is differenced along its last axis, row by row; each
    row is bit-identical to a single-row call.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim not in (1, 2) or arr.shape[-1] < 1:
        raise ParameterError("diff_transform expects a non-empty 1-D sequence or (m, n) batch")
    out = np.empty_like(arr)
    out[..., 0] = arr[..., 0]
    np.subtract(arr[..., 1:], arr[..., :-1], out=out[..., 1:])
    return out


def cumsum_reconstruct(d: RealSeq) -> RealSeq:
    """x[0] = d[0]; x[t] = x[t-1] + d[t]: running-sum inverse of diff.

    A batch of any shape is summed along its last axis, row by row.
    """
    arr = np.asarray(d, dtype=np.float64)
    if arr.ndim < 1 or arr.shape[-1] < 1:
        raise ParameterError("cumsum_reconstruct expects a non-empty sequence or batch")
    return np.cumsum(arr, axis=-1)
