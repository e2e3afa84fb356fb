"""Small shared helpers: the memory capacity, the line-file reader, the
complex exponential, streamed pairwise sums, sieves, deterministic RNG."""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityError, SequenceFileError

CAPACITY = 1_600_000_000  # bytes one large allocation may take: 10^8 complex128


def reserve(what: str, count: int, unit: str, bytes_each: float) -> None:
    """Refuse, before it allocates, a call whose peak of count units of
    bytes_each bytes passes CAPACITY (read at each call)."""
    need = math.ceil(count * bytes_each)
    if need > CAPACITY:
        raise CapacityError(f"{what} needs {count} {unit} ({need} bytes), "
                            f"over the {CAPACITY}-byte capacity")


def read_lines(path: str, what: str, unit: str, bytes_each: int, dtype, parse) -> np.ndarray:
    """One entry of dtype per non-blank line of a UTF-8 text file, as
    parse(line, ln, done) gives it from line number ln and the entries
    before it.  A first pass counts the lines, so bytes_each a line are
    reserved before the file is rewound and a second pass fills the
    array.  A pipe, which cannot be rewound, a file whose count changes
    between the passes and an unreadable one are a SequenceFileError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            count = sum(1 for line in fh if line.strip())
            reserve(f"{what} file {path}", count, unit, bytes_each)
            out = np.empty(count, dtype=dtype)
            fh.seek(0)
            i = 0
            for ln, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                if i == count:
                    raise SequenceFileError(f"{path}: changed while being read")
                out[i] = parse(line, ln, out[:i])
                i += 1
            if i < count:
                raise SequenceFileError(f"{path}: changed while being read")
    except (OSError, UnicodeDecodeError) as exc:
        raise SequenceFileError(f"cannot read {path}: {exc}") from exc
    return out


_QUARTER_TURNS = np.array([1.0 + 0j, 1j, -1.0 + 0j, -1j])


def cexp(x):
    """exp(2*pi*i*x), elementwise for arrays.

    Every phase in the package goes through this single function so that
    identical arguments always produce identical floats.  Phases are
    reduced mod 1, and the four quarter-circle points come out exact;
    libm residue like sin(pi) ~ 1e-16 would otherwise leak into results
    that are integers by symmetry.

    The reduction t - floor(t) gives the bits of t % 1.0 for finite t,
    at a quarter of its cost.  numpy's remainder is fmod, exact, plus one
    rounded 1.0 for negative t; t - floor(t) rounds that same exact value
    once, and both give +0.0 at integers and at -0.0.
    """
    x = np.asarray(x, dtype=float)
    t = np.floor(x, out=np.empty_like(x))
    np.subtract(x, t, out=t)  # in place: no third array at the peak
    out = np.exp(2j * np.pi * t)
    quarters = t * 4.0
    hit = quarters == np.floor(quarters)
    if np.any(hit):
        out = np.where(hit, _QUARTER_TURNS[quarters.astype(np.int64) & 3], out)
    return out


class PairwiseSum:
    """np.sum of a contiguous length-n float64 array that arrives in
    consecutive pieces, bit for bit.

    numpy sums a contiguous block of m floats pairwise: while m > 128
    it splits the block at m//2 rounded down to a multiple of 8 and adds
    the two halves' sums.  Each node of at most cap elements is summed
    by np.sum itself once its elements have arrived, and the node sums
    are added along the tree by total().
    """

    def __init__(self, n: int, cap: int):
        self._sizes: list[int] = []
        self._tree = self._split(n, cap)
        self._sums: list = []
        self._held: list[np.ndarray] = []

    def _split(self, m: int, cap: int):
        if m <= cap:
            self._sizes.append(m)
            return len(self._sizes) - 1
        half = m // 2 - m // 2 % 8
        return (self._split(half, cap), self._split(m - half, cap))

    def add(self, piece: np.ndarray) -> None:
        """Take the next elements; piece may be reused once this returns."""
        i = 0
        while i < piece.size:
            want = self._sizes[len(self._sums)] - sum(p.size for p in self._held)
            part = piece[i : i + want]
            i += part.size
            if part.size < want:
                self._held.append(part.copy())
            else:
                self._sums.append(np.sum(np.concatenate([*self._held, part])
                                         if self._held else part))
                self._held = []

    def total(self):
        """The sum, once all n elements are in."""
        def node(t):
            return self._sums[t] if isinstance(t, int) else node(t[0]) + node(t[1])
        return node(self._tree)


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n as int64, by a sieve of n + 1 bytes."""
    sieve = np.ones(max(n + 1, 2), dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(sieve.size - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


def seeded_rng(seed) -> np.random.Generator:
    """The one RNG constructor used everywhere, for reproducibility."""
    return np.random.default_rng(seed)


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (lossless round trip)."""
    return format(float(x), ".17g")
