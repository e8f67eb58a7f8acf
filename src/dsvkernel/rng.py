"""Deterministic random numbers for reproducible experiments.

All randomness in this package flows through :class:`SplitMix64`, a 64-bit
generator with a fully specified update rule, so every dataset and split is
reproducible from ``(seed, stream)`` alone and can be re-implemented
bit-for-bit outside Python.

State initialisation:  ``state0 = mix64(mix64(seed) + stream)``.
Each draw advances ``state += 0x9E3779B97F4A7C15 (mod 2**64)`` and outputs
``mix64(state)``, where ``mix64`` is the SplitMix64 finalizer.  Distinct
stream ids therefore give unrelated sequences from one user-facing seed.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """SplitMix64 output scrambler (Steele/Lea/Flood finalizer)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


class SplitMix64:
    """Tiny counter-based PRNG with explicit stream separation.

    Not cryptographic; statistical quality is ample for data generation,
    shuffling and optimizer sweep ordering.
    """

    def __init__(self, seed: int, stream: int = 0):
        self._state = mix64((mix64(seed & MASK64) + (stream & MASK64)) & MASK64)

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        return mix64(self._state)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniforms(self, n: int) -> np.ndarray:
        return np.array([self.random() for _ in range(n)], dtype=float)

    def normal(self) -> float:
        """Standard normal via Box-Muller; consumes exactly two uniforms."""
        u1 = 1.0 - self.random()  # (0, 1], keeps the log finite
        u2 = self.random()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def normals(self, n: int) -> np.ndarray:
        return np.array([self.normal() for _ in range(n)], dtype=float)

    def randbelow(self, n: int) -> int:
        """Unbiased integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, values: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(values) - 1, 0, -1):
            j = self.randbelow(i + 1)
            values[i], values[j] = values[j], values[i]

    def permutation(self, n: int) -> np.ndarray:
        idx = list(range(n))
        self.shuffle(idx)
        return np.array(idx, dtype=np.intp)
