"""Complex coefficient sequences (a_n) for n = 1..N, their residue folds,
and their trigonometric sums S(alpha) = sum_n a_n e(n*alpha), e(x) =
exp(2*pi*i*x).

A sequence is read in order, in pieces of at most _PIECE coefficients,
so a pass over it holds one piece, never all N values.  The stock
sequences of make_sequence draw each piece when a pass reaches it; an
explicit array, such as sequence_from_file loads, is read as slices of
itself.  The whole array (values) is built only on request, by the
oracles and verify.  _folds folds one pass into residue buckets at
every width asked; the sieve sum in bounds and eval_at_modulus both
take their buckets from it.

eval_exp_sum is the direct O(N) evaluation at one real point, one pass
over the pieces, with alpha reduced mod 1 before the products n*alpha,
so a large alpha does not destroy precision; cexp reduces each product.
eval_at_modulus computes S(a/q) for all a = 1..q at once from the fold
mod q by a length-q transform with exact rational phases; it serves
per-fraction values.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OutOfRangeError, SequenceFileError
from .util import PairwiseSum, cexp, read_lines, reserve, seeded_rng

_KINDS = ("ones", "delta", "random_signs", "random_phases", "focused")
_MAX_N = int(np.iinfo(np.intp).max) // 16  # the most complex128 values one array holds
_PIECE = 1 << 16  # coefficients per piece: the most any pass holds at once
_PRODUCT_BYTES = 24  # a block entry: a*j, its residue mod q and the root it picks
_RESIDUE_BYTES = 72  # a residue's O(q) arrays at their peak: 65 by tracemalloc
# a coefficient of a pass's piece, beside the workers' copies: the piece, the
# one before it (held until the next is drawn), the draw's temporaries and
# Z's.  At most 67.4 by tracemalloc over the stock kinds from 10^3
# coefficients up: cexp's temporaries take 40 a phase below its 2^13 block
_PIECE_BYTES = 72
# an exponential sum's term beside its pass: n, n*alpha, the phase and its
# product with a_n; at most 19 by tracemalloc over the stock kinds, as the
# draw's temporaries are gone by then
_TERM_BYTES = 24


class CoefficientSequence:
    """Finitely supported coefficients a_1..a_N; values[i] holds a_{i+1}.

    CoefficientSequence(values) wraps a nonempty array, N = values.size.
    pieces() yields the coefficients in order, in arrays of at most
    _PIECE.  Z, the power sum of |a_n|^2, is a by-product of the first
    complete pass and equals np.sum(np.abs(values) ** 2) bit for bit.
    """

    def __init__(self, values):
        v = np.asarray(values, dtype=np.complex128)
        v.setflags(write=False)
        if not v.size:
            raise OutOfRangeError("a sequence needs at least one coefficient")
        self.N = v.size
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
            reserve("sequence values", self.N, "coefficients", 16, pass_bytes(self.N, 0))
            v = np.empty(self.N, dtype=np.complex128)
            i = 0
            for piece in self.pieces():
                v[i : i + piece.size] = piece
                i += piece.size
            v.setflags(write=False)
            self._values = v
        return self._values


class _DrawnSequence(CoefficientSequence):
    """A stock sequence: every pass draws its pieces afresh.  A random
    kind draws from a new generator on the same seed, so all passes read
    the same values; the others build no generator."""

    def __init__(self, N: int, seed, piece, random: bool):
        self.N = N
        self._values = None
        self._z = None
        self._seed = seed
        self._piece = piece  # piece(rng, lo, hi) -> a_{lo+1} .. a_hi
        self._random = random

    def _draw(self):
        rng = seeded_rng(self._seed) if self._random else None
        return (self._piece(rng, lo, min(lo + _PIECE, self.N))
                for lo in range(0, self.N, _PIECE))


class _Fold:
    """Residue-class sums of a sequence mod w, fed its pieces in order.

    sum[i mod w] sums the a_{i+1}: the buckets of n mod w shifted
    cyclically by one place, and every norm taken of a fold is invariant
    under that shift.  The sums equal, bit for bit, numpy's whole-array
    values.reshape(-1, w).sum(0) plus the last partial row, which adds
    the rows in order: partial rows at piece edges are added in place,
    and the running fold is added into a piece's first whole row (saved
    and restored), so that sum(0) of its rows continues the same chain
    of additions.
    """

    def __init__(self, w: int):
        self.sum = np.zeros(w, dtype=np.complex128)
        self._at = 0

    def add(self, piece: np.ndarray) -> None:
        """Fold in the next piece; piece is written to but restored."""
        w = self.sum.size
        at = self._at % w
        head = min(w - at, piece.size) if at else 0
        self.sum[at : at + head] += piece[:head]
        rows = (piece.size - head) // w
        if rows == 1:  # the same one addition, without the save and restore
            self.sum += piece[head : head + w]
        elif rows:
            body = piece[head : head + rows * w].reshape(rows, w)
            first = body[0].copy()
            body[0] += self.sum
            body.sum(0, out=self.sum)
            body[0] = first
        tail = piece[head + rows * w :]
        self.sum[: tail.size] += tail
        self._at += piece.size


def pass_bytes(N: int, workers: int) -> int:
    """What a pass of _folds over N coefficients holds beside its folds:
    one piece at _PIECE_BYTES a coefficient and each worker's copy of it."""
    return min(N, _PIECE) * (_PIECE_BYTES + 16 * workers)


def _folds(seq: CoefficientSequence, widths, pool=None, workers: int = 1) -> dict:
    """The fold of seq at every width given, from one pass.

    The pieces are drawn in order on this thread.  Each of the workers
    folds every workers-th width, from its own copy of the piece, while
    this thread draws the next one.
    """
    folds = [_Fold(w) for w in widths]
    shares = [folds[i::workers] for i in range(min(workers, len(folds)))]

    def fold_share(share: list, piece: np.ndarray) -> None:
        own = piece.copy()
        for f in share:
            f.add(own)

    pending = []
    for piece in seq.pieces():
        for task in pending:
            task.result()
        if pool is None:
            for share in shares:
                fold_share(share, piece)
        else:
            pending = [pool.submit(fold_share, share, piece) for share in shares]
    for task in pending:
        task.result()
    return {f.sum.size: f.sum for f in folds}


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
    if not (isinstance(N, (int, np.integer)) and 1 <= N <= _MAX_N):
        raise OutOfRangeError(f"sequence length must be an integer in 1..{_MAX_N}")
    if kind == "ones":
        def piece(rng, lo, hi):
            return np.ones(hi - lo, dtype=np.complex128)
    elif kind == "delta":
        if not (isinstance(n0, (int, np.integer)) and 1 <= n0 <= N):
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
    return _DrawnSequence(N, seed, piece, kind in ("random_signs", "random_phases"))


def sequence_from_file(path: str) -> CoefficientSequence:
    """Load a sequence from UTF-8 text, one "re im" pair per line."""
    def parse(line: str, ln: int, done) -> complex:
        parts = line.split()
        if len(parts) != 2:
            raise SequenceFileError(f"{path}:{ln}: expected two fields, got {len(parts)}")
        try:
            re, im = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise SequenceFileError(f"{path}:{ln}: {exc}") from exc
        if not (math.isfinite(re) and math.isfinite(im)):
            raise SequenceFileError(f"{path}:{ln}: coefficient is not finite")
        return complex(re, im)

    values = read_lines(path, "sequence", "coefficients", 16, np.complex128, parse)
    if not values.size:
        raise SequenceFileError(f"{path}: no coefficients found")
    return CoefficientSequence(values)


def eval_exp_sum(seq: CoefficientSequence, alpha: float) -> complex:
    """S(alpha) = sum_{n<=N} a_n e(n*alpha), alpha reduced mod 1 before
    the products n*alpha, which cexp reduces again.

    One pass over the pieces: each piece's terms are summed by np.sum and
    the piece sums added in order.  Up to _PIECE coefficients that is the
    whole-array np.sum(values * cexp(n * alpha)) bit for bit; above it
    each piece sum adds one rounding (measured: within 3 * 2^-53 * sum
    |a_n| of the whole-array sum at N = 2^20).  The pass and one piece's
    terms are reserved before either is built.
    """
    if not math.isfinite(alpha):
        raise OutOfRangeError(f"alpha={alpha} is not finite")
    a = alpha - math.floor(alpha)
    reserve("exponential sum", min(seq.N, _PIECE), "terms", _TERM_BYTES, pass_bytes(seq.N, 0))
    sums, lo = [], 0
    for piece in seq.pieces():
        n = np.arange(lo + 1, lo + piece.size + 1, dtype=np.float64)
        sums.append(np.sum(piece * cexp(n * a)))
        lo += piece.size
    return complex(sum(sums[1:], sums[0]))


def eval_at_modulus(seq: CoefficientSequence, q: int) -> np.ndarray:
    """S(a/q) for a = 1..q as a complex array (index i holds a = i+1).

    Coefficients are folded into residue buckets b_j = sum_{n = j (q)} a_n
    by one _folds pass, then S(a/q) = sum_j b_j e(a*j/q).  All phases
    come from one table of q-th roots of unity indexed by a*j mod q, so
    they are exact rationals of the circle and the result does not drift
    with N.  The O(q) arrays, one block of the product and the pass's
    piece are reserved before any of them is built.
    """
    if q < 1:
        raise OutOfRangeError("modulus must be positive")
    block = max(1, (1 << 22) // q)  # a-rows a block, so the index matrix stays small
    reserve("modulus transform", q, "residues", _RESIDUE_BYTES + _PRODUCT_BYTES * min(block, q),
            pass_bytes(seq.N, 1))
    buckets = np.roll(_folds(seq, [q])[q], 1)  # the fold's sum[i] holds n = i + 1
    roots = cexp(np.arange(q, dtype=np.float64) / q)
    j = np.arange(q, dtype=np.int64)
    out = np.empty(q, dtype=np.complex128)
    for start in range(1, q + 1, block):
        stop = min(q + 1, start + block)
        a = np.arange(start, stop, dtype=np.int64)
        out[start - 1 : stop - 1] = roots[(a[:, None] * j[None, :]) % q] @ buckets
    return out
