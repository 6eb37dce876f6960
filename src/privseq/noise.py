"""Seeded Laplace noise with hierarchical, coordinate-addressed streams.

Reproducibility contract: a NoiseSource is an address, not a cursor. It
names a stream by (seed, stream coordinates): NoiseSource(seed) is the
root, and derive appends coordinates, the one way to address a child.
Sampling from the same source twice yields the same values, and callers
that need distinct draws derive distinct child coordinates (feature
index, run index, chunk index). This makes every draw independent of
evaluation order and worker count. Derivation uses numpy's SeedSequence
spawn keys, so sibling streams are statistically independent.

Sampling uses the inverse CDF with a symmetric open-interval uniform:
    u in (-1/2, 1/2),  draw = -lam * sign(u) * log1p(-2|u|)
which is exactly symmetric about zero, never evaluates log(0), and
makes a draw at scale lam equal lam times the unit-scale draw. That
scaling identity lets a sweep reuse one unit draw across a budget grid.
"""
from __future__ import annotations

import numpy as np

from privseq.core import ParameterError

__all__ = ["NoiseSource", "unit_laplace"]

# 53-bit grid: (j + 0.5) * 2**-53 - 0.5 for j in [0, 2**53) covers
# (-1/2, 1/2) symmetrically and never lands on 0 or an endpoint.
_GRID = float(2.0**-53)


class NoiseSource:
    """A node in the noise stream tree: the root of a seed, or a child
    that derive addresses by its path of coordinates."""

    __slots__ = ("_seq",)

    def __init__(self, seed: int | np.random.SeedSequence):
        if isinstance(seed, np.random.SeedSequence):
            self._seq = seed
            return
        seed = int(seed)
        if not (0 <= seed < 2**64):
            raise ParameterError("seed must be a 64-bit unsigned integer")
        self._seq = np.random.SeedSequence(seed)

    def derive(self, *coords: int) -> "NoiseSource":
        """Child source addressed by appending a path of non-negative ints."""
        if not coords:
            raise ParameterError("derive requires at least one coordinate")
        for c in coords:
            if int(c) != c or c < 0:
                raise ParameterError(f"stream coordinates must be non-negative integers, got {c!r}")
        key = self._seq.spawn_key + tuple(int(c) for c in coords)
        return NoiseSource(np.random.SeedSequence(self._seq.entropy, spawn_key=key))

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at this stream's origin."""
        return np.random.Generator(np.random.PCG64(self._seq))

    @property
    def seed(self) -> int:
        return int(self._seq.entropy)

    @property
    def stream_id(self) -> tuple[int, ...]:
        return tuple(self._seq.spawn_key)

    def __repr__(self) -> str:
        return f"NoiseSource(seed={self.seed}, stream_id={self.stream_id})"


def _unit_uniform(rng: np.random.Generator, count: int) -> np.ndarray:
    # Integers on [0, 2**53) mapped to the open symmetric interval.
    j = rng.integers(0, 2**53, size=count, dtype=np.uint64)
    return (j.astype(np.float64) + 0.5) * _GRID - 0.5


def unit_laplace(rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` draws from Laplace(scale=1) via the inverse CDF."""
    if count < 0:
        raise ParameterError("count must be >= 0")
    u = _unit_uniform(rng, count)
    return -np.sign(u) * np.log1p(-2.0 * np.abs(u))
