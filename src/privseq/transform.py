"""Fourier and difference transforms.

Conventions, fixed once here and assumed everywhere else:
  - forward DFT is unnormalized: F[j] = sum_t x[t] e^{-2 pi i j t / n};
  - the inverse carries the full 1/n factor;
  - "first k coefficients" means indices 0..k-1 literally; the
    mechanism core zero-fills the other bins (or, with symmetric
    completion, fills bin n - j with the conjugate of a retained bin j)
    and keeps the real part of the inverse.

dft_batch and idft_batch are the single entry point to numpy's FFT;
every mechanism, tuning and metrics path goes through them. numpy
transforms each row of a batch alike, so a batch of m rows is
bit-identical to m single-row calls; that is what keeps batched sweeps
and per-chunk perturbation bitwise in step.
"""
from __future__ import annotations

import numpy as np

from privseq.core import ParameterError, RealSeq

__all__ = [
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
