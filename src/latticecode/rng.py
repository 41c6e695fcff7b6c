"""Pinned pseudo-random generator used for every randomized component.

All randomness in the package flows through this one generator so that a
given seed reproduces byte-identical results on any platform.  The
algorithm is the splitmix64 finalizer iterated over a 64-bit counter:

    state  = (state + 0x9E3779B97F4A7C15) mod 2^64
    z      = state
    z      = (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9  mod 2^64
    z      = (z XOR (z >> 27)) * 0x94D049BB133111EB  mod 2^64
    output = z XOR (z >> 31)

Integers in a range are reduced with a plain modulo (`next_u64() % n`);
the bias is negligible for every n used here (n << 2^64) and keeping the
reduction trivial makes the stream easy to reproduce in other languages.
Child seeds are derived with `derive`, which folds labels into the seed
through the same finalizer.

`block(n)` computes the next n outputs at once in wrapping uint64 numpy
arithmetic and `uniforms(n)` maps them like `uniform()`: a block draw is
the same stream as n single calls, and leaves the generator in the same
state, so bulk consumers may take either path without changing a byte.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """One splitmix64 finalizer round on a 64-bit value."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive(seed: int, *labels: int) -> int:
    """Deterministically derive a child seed from labels (trial index etc.)."""
    s = mix64(seed + _GAMMA)
    for x in labels:
        s = mix64(s ^ mix64(x + _GAMMA))
    return s


class SplitMix64:
    """Sequential splitmix64 stream."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return mix64(self._state)

    def block(self, n: int) -> np.ndarray:
        """The next n outputs of `next_u64()` as a uint64 array."""
        if n < 0:
            raise ValueError("n must be non-negative")
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        self._state = (self._state + n * _GAMMA) & _MASK64
        return z

    def uniforms(self, n: int) -> np.ndarray:
        """n calls of `uniform()` as a float64 array."""
        z = self.block(n)  # shifted in place: no third n-array at once
        z >>= np.uint64(11)
        u = z.astype(np.float64)
        u *= 2.0 ** -53
        return u

    def uniform(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n

    def spawn(self, index: int) -> "SplitMix64":
        return SplitMix64(derive(self._state, index))
