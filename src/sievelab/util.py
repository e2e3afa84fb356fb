"""Small shared helpers: the complex exponential, sieves, deterministic RNG."""

from __future__ import annotations

import math

import numpy as np


_QUARTER_TURNS = np.array([1.0 + 0j, 1j, -1.0 + 0j, -1j])


def cexp(x):
    """exp(2*pi*i*x), elementwise for arrays.

    Every phase in the package goes through this single function so that
    identical arguments always produce identical floats.  Phases are
    reduced mod 1, and the four quarter-circle points come out exact;
    libm residue like sin(pi) ~ 1e-16 would otherwise leak into results
    that are integers by symmetry.
    """
    t = np.asarray(x, dtype=float) % 1.0
    out = np.exp(2j * np.pi * t)
    quarters = t * 4.0
    hit = quarters == np.floor(quarters)
    if np.any(hit):
        out = np.where(hit, _QUARTER_TURNS[quarters.astype(np.int64) & 3], out)
    return out


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by a byte sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(2, n + 1) if sieve[i]]


def seeded_rng(seed) -> np.random.Generator:
    """The one RNG constructor used everywhere, for reproducibility."""
    return np.random.default_rng(seed)


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (lossless round trip)."""
    return format(float(x), ".17g")
