"""Small shared helpers: integer arguments, the memory capacity, the
line-file reader, the complex exponential, streamed pairwise sums, sieves,
deterministic RNG."""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import CapacityError, OutOfRangeError, SequenceFileError

CAPACITY = 1_600_000_000  # bytes one large allocation may take: 10^8 complex128
# a file reader's buffers and lines, beside its array: at most 22.1 KB by
# tracemalloc, from 1 to 3*10^5 rows of either reader
_READER_BYTES = 24 * 1024


def index(x, what: str) -> int:
    """operator.index(x): an integer argument as a Python int.  Anything
    else, a float of integer value too, is an OutOfRangeError naming it."""
    try:
        return operator.index(x)
    except TypeError:
        raise OutOfRangeError(f"{what}={x!r} is not an integer") from None


def reserve(what: str, count: int, unit: str, bytes_each: float, extra: int = 0,
            beside: str = "a piece") -> None:
    """Refuse, before it allocates, a call whose peak of count units of
    bytes_each bytes, plus extra bytes held beside them (by default the
    piece of a pass over a sequence), passes CAPACITY (read at each call)."""
    need = math.ceil(count * bytes_each) + extra
    if need > CAPACITY:
        held = f"{count} {unit} and {beside}" if extra else f"{count} {unit}"
        raise CapacityError(f"{what} needs {held} ({need} bytes), "
                            f"over the {CAPACITY}-byte capacity")


def read_lines(path: str, what: str, unit: str, bytes_each: int, dtype, parse) -> np.ndarray:
    """One entry of dtype per non-blank line of a UTF-8 text file, as
    parse(line, ln, done) gives it from line number ln and the entries
    before it.  A first pass counts the lines, so bytes_each a line and
    the reader's buffers are reserved before the file is rewound and a
    second pass fills the array.  A pipe, which cannot be rewound, a
    file whose count changes between the passes and an unreadable one
    are a SequenceFileError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            count = sum(1 for line in fh if line.strip())
            reserve(f"{what} file {path}", count, unit, bytes_each, _READER_BYTES,
                    "the reader's buffers")
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
_SHIFTER = 1.5 * 2.0**52  # u + _SHIFTER is rint(u) in its last bits, for |u| < 2^51
_BLOCK = 1 << 13  # phases a block: its temporaries stay in cache and in malloc's heap


def cexp(x):
    """exp(2*pi*i*x), elementwise for arrays.

    Every phase in the package goes through this single function so that
    identical arguments always produce identical floats.

    The phase is reduced mod 1 as t = x - floor(x), which gives the bits
    of x % 1.0 for finite x at a quarter of its cost (numpy's remainder
    is fmod, exact, plus one rounded 1.0 for negative x; x - floor(x)
    rounds that same exact value once).  Then it is reduced by quarter
    turns, Cody-Waite style: u = 4t, n = rint(u) and f = u - n are all
    exact, and |f| <= 1/2.  cos and sin are taken at (pi/2)*f, inside
    [-pi/4, pi/4] where libm is fastest and most accurate, and the result
    is turned by i^(n mod 4), a product with one of 1, i, -1, -i that
    only moves and negates parts, so it is exact too.

    Each part is within 1.5e-16 of exp(2*pi*i*t) (measured against
    oracles.cexp_reference: at most 1.2e-16 on 2^20 uniform t); the
    error is the rounding of (pi/2)*f and of libm.  At a quarter turn f
    is 0, so the four points 1, i, -1, -i come out exact, and libm
    residue like sin(pi) ~ 1e-16 cannot leak into results that are
    integers by symmetry; -i is +0.0 - 1j, with a positive zero.
    A non-finite x gives NaN.

    The phases go in blocks of _BLOCK, so the temporaries stay in cache
    and the peak is little more than the output, 16 bytes a phase.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape, dtype=np.complex128)
    flat, flat_out = x.reshape(-1), out.reshape(-1)
    for lo in range(0, flat.size, _BLOCK):
        xs, part = flat[lo : lo + _BLOCK], flat_out[lo : lo + _BLOCK]
        u = np.floor(xs)
        np.subtract(xs, u, out=u)  # t, in place
        u *= 4.0
        n = u + _SHIFTER
        turn = n.view(np.int64) & 3  # n mod 4, read from the bits: no cast of NaN
        n -= _SHIFTER
        u -= n
        u *= np.pi / 2
        np.cos(u, out=part.real)
        np.sin(u, out=part.imag)
        part *= _QUARTER_TURNS[turn]
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
