"""Complex coefficient sequences (a_n) for n = 1..N and their
trigonometric sums S(alpha) = sum_n a_n e(n*alpha), e(x) = exp(2*pi*i*x).

A sequence is read in order, in pieces of at most _PIECE coefficients,
so a pass over it holds one piece, never all N values.  The stock
sequences of make_sequence draw each piece when a pass reaches it; an
explicit array, such as sequence_from_file loads, is read as slices of
itself.  The whole array (values) is built only on request, by the
pointwise evaluators below and the oracles.

Two evaluation routes are provided.  eval_exp_sum is the direct O(N)
evaluation at one real point, with the phase argument reduced mod 1
before the exponential so large n*alpha does not destroy precision.
eval_at_modulus computes S(a/q) for all a = 1..q at once by bucketing
the coefficients into residue classes mod q and applying a length-q
transform with exact rational phases; it serves per-fraction values.
Sieve sums need only norms of the buckets and are formed in bounds.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OutOfRangeError, SequenceFileError
from .util import PairwiseSum, cexp, reserve, seeded_rng

_KINDS = ("ones", "delta", "random_signs", "random_phases", "focused")
_MAX_N = int(np.iinfo(np.intp).max) // 16  # the most complex128 values one array holds
_PIECE = 1 << 16  # coefficients per piece: the most any pass holds at once


class CoefficientSequence:
    """Finitely supported coefficients a_1..a_N; values[i] holds a_{i+1}.

    CoefficientSequence(values, N) wraps an explicit array.  pieces()
    yields the coefficients in order, in arrays of at most _PIECE.  Z,
    the power sum of |a_n|^2, is a by-product of the first complete
    pass and equals np.sum(np.abs(values) ** 2) bit for bit.
    """

    def __init__(self, values, N: int):
        v = np.asarray(values, dtype=np.complex128)
        v.setflags(write=False)
        if N != v.size or N < 1:
            raise OutOfRangeError("N must equal len(values) and be >= 1")
        self.N = N
        self._values = v
        self._z = None

    def _draw(self):
        """The pieces of one pass."""
        return (self._values[i : i + _PIECE] for i in range(0, self.N, _PIECE))

    def pieces(self):
        """The coefficients in order, in arrays of at most _PIECE, which
        callers must not write to."""
        z = PairwiseSum(self.N, _PIECE) if self._z is None else None
        for piece in self._draw():
            if z is not None:
                z.add(np.abs(piece) ** 2)
            yield piece
        if z is not None:
            self._z = float(z.total())

    @property
    def Z(self) -> float:
        if self._z is None:
            for _ in self.pieces():
                pass
        return self._z

    @property
    def values(self) -> np.ndarray:
        """All N coefficients as one read-only array, built on first use."""
        if self._values is None:
            reserve("sequence values", self.N, "coefficients", 16)
            v = np.empty(self.N, dtype=np.complex128)
            i = 0
            for piece in self.pieces():
                v[i : i + piece.size] = piece
                i += piece.size
            v.setflags(write=False)
            self._values = v
        return self._values


class _DrawnSequence(CoefficientSequence):
    """A stock sequence: every pass draws its pieces afresh, from a new
    generator on the same seed, so all passes read the same values."""

    def __init__(self, N: int, seed, piece):
        self.N = N
        self._values = None
        self._z = None
        self._seed = seed
        self._piece = piece  # piece(rng, lo, hi) -> a_{lo+1} .. a_hi

    def _draw(self):
        rng = seeded_rng(self._seed)
        return (self._piece(rng, lo, min(lo + _PIECE, self.N))
                for lo in range(0, self.N, _PIECE))


def make_sequence(kind: str, N: int, *, n0: int | None = None, seed=0,
                  beta: float | None = None) -> CoefficientSequence:
    """Construct one of the stock test sequences.

    ones            a_n = 1
    delta           a_n = [n == n0]
    random_signs    a_n uniform on {-1, +1}, from seed
    random_phases   a_n uniform on the unit circle, from seed
    focused         a_n = e(-n*beta), so S(beta) = N

    Nothing is drawn here: each piece is drawn when a pass reaches it,
    the random kinds from one generator per pass, so a piece holds the
    same values as the matching slice of one draw of all N.
    """
    if kind not in _KINDS:
        raise OutOfRangeError(f"unknown sequence kind {kind!r}")
    if not 1 <= N <= _MAX_N:
        raise OutOfRangeError(f"sequence length must be in 1..{_MAX_N}")
    if kind == "ones":
        def piece(rng, lo, hi):
            return np.ones(hi - lo, dtype=np.complex128)
    elif kind == "delta":
        if n0 is None or not 1 <= n0 <= N:
            raise OutOfRangeError(f"delta position n0={n0} outside 1..{N}")

        def piece(rng, lo, hi):
            v = np.zeros(hi - lo, dtype=np.complex128)
            if lo < n0 <= hi:
                v[n0 - 1 - lo] = 1.0
            return v
    elif kind == "random_signs":
        def piece(rng, lo, hi):
            return (rng.integers(0, 2, hi - lo) * 2 - 1).astype(np.complex128)
    elif kind == "random_phases":
        def piece(rng, lo, hi):
            return cexp(rng.random(hi - lo))
    else:  # focused
        if beta is None or not 0.0 <= beta < 1.0:
            raise OutOfRangeError(f"focus point beta={beta} outside [0, 1)")

        def piece(rng, lo, hi):
            return cexp(-beta * np.arange(lo + 1, hi + 1))
    return _DrawnSequence(N, seed, piece)


def sequence_from_file(path: str) -> CoefficientSequence:
    """Load a sequence from UTF-8 text, one "re im" pair per line.

    A first pass counts the non-blank lines, so the 16 bytes a
    coefficient are reserved before the file is rewound and a second
    pass fills the array.  A pipe, which cannot be rewound, and a file
    whose count changes between the passes are refused.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            count = sum(1 for line in fh if line.strip())
            if not count:
                raise SequenceFileError(f"{path}: no coefficients found")
            reserve(f"sequence file {path}", count, "coefficients", 16)
            values = np.empty(count, dtype=np.complex128)
            fh.seek(0)
            i = 0
            for ln, line in enumerate(fh, start=1):
                parts = line.split()
                if not parts:
                    continue
                if i == count:
                    raise SequenceFileError(f"{path}: changed while being read")
                if len(parts) != 2:
                    raise SequenceFileError(f"{path}:{ln}: expected two fields, got {len(parts)}")
                try:
                    values[i] = complex(float(parts[0]), float(parts[1]))
                except ValueError as exc:
                    raise SequenceFileError(f"{path}:{ln}: {exc}") from exc
                if not np.isfinite(values[i]):
                    raise SequenceFileError(f"{path}:{ln}: coefficient is not finite")
                i += 1
            if i < count:
                raise SequenceFileError(f"{path}: changed while being read")
    except (OSError, UnicodeDecodeError) as exc:
        raise SequenceFileError(f"cannot read {path}: {exc}") from exc
    return CoefficientSequence(values=values, N=count)


def eval_exp_sum(seq: CoefficientSequence, alpha: float) -> complex:
    """S(alpha) = sum_{n<=N} a_n e(n*alpha), argument reduced mod 1."""
    a = alpha - math.floor(alpha)
    n = np.arange(1, seq.N + 1, dtype=np.float64)
    phases = (n * a) % 1.0
    return complex(np.sum(seq.values * cexp(phases)))


def eval_at_modulus(seq: CoefficientSequence, q: int) -> np.ndarray:
    """S(a/q) for a = 1..q as a complex array (index i holds a = i+1).

    Coefficients are folded into residue buckets b_j = sum_{n = j (q)} a_n,
    then S(a/q) = sum_j b_j e(a*j/q).  All phases come from one table of
    q-th roots of unity indexed by a*j mod q, so they are exact rationals
    of the circle and the result does not drift with N.
    """
    if q < 1:
        raise OutOfRangeError("modulus must be positive")
    idx = np.arange(1, seq.N + 1, dtype=np.int64) % q
    br = np.bincount(idx, weights=seq.values.real, minlength=q)
    bi = np.bincount(idx, weights=seq.values.imag, minlength=q)
    buckets = br + 1j * bi
    roots = cexp(np.arange(q, dtype=np.float64) / q)
    j = np.arange(q, dtype=np.int64)
    out = np.empty(q, dtype=np.complex128)
    # block the a-rows so the index matrix stays small
    block = max(1, (1 << 22) // max(q, 1))
    for start in range(1, q + 1, block):
        stop = min(q + 1, start + block)
        a = np.arange(start, stop, dtype=np.int64)
        out[start - 1 : stop - 1] = roots[(a[:, None] * j[None, :]) % q] @ buckets
    return out
