"""Sparse moduli sets inside an interval (M, M+Q], their dilates, the
square-moduli divisor structure, and Farey fraction enumeration.

A set S of integer moduli lives in (M, M+Q] with 0 <= M.  The dilate by
t keeps the elements divisible by t and divides them out, which lands in
(M/t, (M+Q)/t].  For sets of squares the dilate has a closed form: with
t = prod p^v, round each v up to an even u, put f = prod p^{u/2} and
g = f^2/t; then t | n^2 iff f | n, and the dilate of the squares in an
octave (Q0, 2*Q0] is exactly {c^2 * g : sqrt(Q0)/f < c <= sqrt(2*Q0)/f}.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from . import util
from .arith import _FACTOR_CACHE, factorize, squarefree_divisors
from .errors import EmptyModuliWarning, OutOfRangeError, SequenceFileError

_REL_SLACK = 1e-9  # containment checks allow this much relative float slack
_INT64_MAX = int(np.iinfo(np.int64).max)  # every modulus is an int64
_FAREY_Q_LIMIT = 1 << 26  # below it, distinct reduced fractions have distinct floats
_FAREY_SLAB = 1 << 14  # fractions one Farey slab holds, about
# a file modulus peaks at 9 bytes under tracemalloc, its int64 and the
# order check's bool; util.read_lines charges the reader's buffers
_FILE_MODULUS_BYTES = 9
# a class-count vector peaks at 24 bytes an entry, its own and two local
# arrays', plus at most 21 KB of numpy's buffers (tracemalloc, k < 5000
# and k up to 6.3*10^6)
_CLASS_COUNT_BYTES = 24
_CLASS_COUNT_EXTRA = 1 << 15


@dataclass(frozen=True, eq=False)
class ModuliSet:
    """Strictly increasing integer moduli inside (M, M+Q].

    Q is the span of the containing interval, not the largest modulus.
    kind records how the set was built; param keeps the constructor's
    headline parameter (cap or octave base) where one exists.
    """

    elements: np.ndarray
    M: float
    Q: float
    kind: str
    param: float | None = None

    def __post_init__(self):
        el = np.asarray(self.elements, dtype=np.int64)
        el.setflags(write=False)
        object.__setattr__(self, "elements", el)
        if not (0 <= self.M < math.inf and 0 < self.Q < math.inf):
            raise OutOfRangeError("need finite M >= 0 and finite span Q > 0")
        if el.size:
            if np.any(el[1:] <= el[:-1]):
                raise OutOfRangeError("moduli must be strictly increasing")
            if el[0] <= 0:
                raise OutOfRangeError("moduli must be positive")
            slack = _REL_SLACK * max(1.0, self.M + self.Q)
            if el[0] <= self.M - slack or el[-1] > self.M + self.Q + slack:
                raise OutOfRangeError("moduli fall outside (M, M+Q]")

    @property
    def size(self) -> int:
        return int(self.elements.size)

    def __len__(self) -> int:
        return self.size


def _warn_if_empty(s: ModuliSet) -> ModuliSet:
    if s.size == 0:
        warnings.warn("constructed moduli set is empty", EmptyModuliWarning, stacklevel=3)
    return s


def squares_up_to(qmax: int) -> ModuliSet:
    """{q^2 : 1 <= q <= qmax} in (0, qmax^2]."""
    qmax = util.index(qmax, "qmax")
    if not 1 <= qmax <= math.isqrt(_INT64_MAX):
        raise OutOfRangeError(f"need 1 <= qmax <= {math.isqrt(_INT64_MAX)}")
    el = _squares(1, qmax + 1)
    return ModuliSet(el, 0.0, float(qmax) ** 2, "squares_up_to", float(qmax))


def squares_in_octave(q0: float) -> ModuliSet:
    """The squares inside (Q0, 2*Q0]: c^2 > Q0 exactly when c^2 > floor(Q0),
    and c^2 <= 2*Q0 exactly when c^2 <= floor(2*Q0)."""
    if not 0 < q0 <= _INT64_MAX / 2:
        raise OutOfRangeError(f"need 0 < Q0 <= {_INT64_MAX / 2:g}")
    el = _squares(math.isqrt(math.floor(q0)) + 1, math.isqrt(math.floor(2 * q0)) + 1)
    return _warn_if_empty(ModuliSet(el, float(q0), float(q0),
                                    "squares_in_octave", float(q0)))


def _squares(lo: int, hi: int) -> np.ndarray:
    """c^2 for lo <= c < hi, at 10 bytes a modulus: the set's checks peak at 9."""
    util.reserve("square moduli set", hi - lo, "moduli", 10)
    return np.arange(lo, hi, dtype=np.int64) ** 2


def primes_up_to_set(q: int) -> ModuliSet:
    """The primes inside (0, q]."""
    q = util.index(q, "q")
    if not 1 <= q <= _INT64_MAX:
        raise OutOfRangeError(f"need 1 <= q <= {_INT64_MAX}")
    # a byte a slot, 8 a prime; pi(q) < 1.25506 q / ln q (Rosser-Schoenfeld)
    util.reserve("prime sieve", q + 1, "slots", 1 + 8 * 1.25506 / math.log(max(q, 2)))
    return _warn_if_empty(ModuliSet(util.primes_up_to(q), 0.0, float(q),
                                    "primes_up_to", float(q)))


def explicit_moduli(elements, M: float | None = None, span: float | None = None) -> ModuliSet:
    """A set given by an explicit list of integers, default interval (0, max]."""
    el = []
    for x in elements:
        try:
            q = operator.index(x)
        except TypeError:
            raise OutOfRangeError(f"modulus {x!r} is not an integer") from None
        if abs(q) > _INT64_MAX:
            raise OutOfRangeError(f"modulus {q} past int64")
        el.append(q)
    return _explicit(np.array(sorted(el), dtype=np.int64), M, span)


def _explicit(el: np.ndarray, M: float | None, span: float | None) -> ModuliSet:
    if M is None:
        M = 0.0
    if span is None:
        span = float(el[-1]) - M if el.size else 1.0
    return _warn_if_empty(ModuliSet(el, float(M), float(span), "explicit", None))


def moduli_from_file(path: str, M: float | None = None) -> ModuliSet:
    """Explicit set from a text file, one integer per line, increasing,
    in the interval (M, max] (M defaults to 0)."""
    def parse(line: str, ln: int, done: np.ndarray) -> int:
        try:
            q = int(line)
        except ValueError as exc:
            raise SequenceFileError(f"{path}:{ln}: not an integer") from exc
        if abs(q) > _INT64_MAX:
            raise OutOfRangeError(f"{path}:{ln}: modulus past int64")
        if done.size and q <= done[-1]:
            raise SequenceFileError(f"{path}: moduli must be strictly increasing")
        return q

    el = util.read_lines(path, "moduli", "moduli", _FILE_MODULUS_BYTES, np.int64, parse)
    return _explicit(el, M, None)


def build_moduli_set(kind: str, **kw) -> ModuliSet:
    """String-keyed constructor used by the CLI and config files: q for
    "squares_up_to" and "primes_up_to", q0 for "squares_in_octave", and
    a path and an optional offset M for "file"."""
    if kind == "squares_up_to":
        return squares_up_to(int(kw["q"]))
    if kind == "squares_in_octave":
        return squares_in_octave(float(kw["q0"]))
    if kind == "primes_up_to":
        return primes_up_to_set(int(kw["q"]))
    if kind == "file":
        return moduli_from_file(kw["path"], M=kw.get("M"))
    raise OutOfRangeError(f"unknown moduli kind {kind!r}")


def derive_subset(s: ModuliSet, t: int) -> ModuliSet:
    """The dilate {q : t*q in S}, living in (M/t, (M+Q)/t]."""
    t = util.index(t, "t")
    if t < 1:
        raise OutOfRangeError("need t >= 1")
    el = s.elements[s.elements % t == 0] // t
    return ModuliSet(el, s.M / t, s.Q / t, "derived", None)


def square_divisor_profile(t: int) -> tuple[int, int]:
    """(f, g) with f^2 = g*t, f minimal such that t | n^2 iff f | n.

    Round each exponent in t up to the next even number; f takes half of
    the rounded exponents, and g = f^2/t collects one copy of each prime
    with odd exponent.  Like factorize, the last _FACTOR_CACHE profiles
    are kept, keyed on operator.index(t), as tuples of Python ints.
    """
    return _profile(util.index(t, "t"))


@functools.lru_cache(maxsize=_FACTOR_CACHE)
def _profile(t: int) -> tuple[int, int]:
    if t < 1:
        raise OutOfRangeError("need t >= 1")
    f = 1
    for p, v in factorize(t):
        f *= p ** ((v + 1) // 2)
    return f, (f * f) // t


def square_class_count(t: int, k: int, l: int) -> int:
    """Number of residues x mod k with x^2 * g = l (mod k), g from t.

    This counts the classes mod k that the dilated square moduli can
    occupy; it vanishes when gcd(g, k) > 1 and gcd(k, l) = 1, and is
    never more than 2^{omega(k)+1}.  The count is read from the vector
    of the counts of every l mod k (_class_counts), which is kept for the
    last (g, k): a caller asks for all l of one (t, k) in turn.
    """
    try:  # inline, not util.index: a caller asks once for each class
        t, k, l = operator.index(t), operator.index(k), operator.index(l)
    except TypeError:
        raise OutOfRangeError(f"t={t!r}, k={k!r} and l={l!r} must be integers") from None
    if k < 1:
        raise OutOfRangeError("modulus must be positive")
    return _class_counts(_profile(t)[1], k).item(l % k)


@functools.lru_cache(maxsize=1)
def _class_counts(g: int, k: int) -> np.ndarray:
    """The read-only vector of the numbers of x mod k with g*x^2 = l
    (mod k), indexed by l mod k.

    The count is multiplicative over the prime powers p^e of k (CRT), and
    the count of every l mod p^e is one bincount of g*x^2 mod p^e over
    x < p^e; l = i*p^e + j takes entry j of that local vector.
    _CLASS_COUNT_BYTES an entry and numpy's buffers are reserved before
    anything is built.
    """
    util.reserve("square class counts", k, "classes", _CLASS_COUNT_BYTES,
                 _CLASS_COUNT_EXTRA, "numpy's buffers")
    counts = np.ones(k, dtype=np.int64)
    for p, e in factorize(k):
        pe = p**e
        x = np.arange(pe, dtype=np.int64)
        # x^2 and (x^2 mod pe) * g stay below pe^2, under 2^63 for any k
        # whose 24 bytes an entry fit in less than 7*10^10 bytes
        x *= x
        x %= pe
        x *= g % pe
        x %= pe
        rows = counts.reshape(-1, pe)  # l = i*pe + j is row i, column j
        rows *= np.bincount(x, minlength=pe)
    counts.setflags(write=False)
    return counts


@dataclass(frozen=True, eq=False)
class FareyList:
    """Reduced fractions a/q, values strictly increasing: the builders
    guarantee reducedness, the constructor checks lengths and order."""

    numerators: np.ndarray
    denominators: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.numerators, dtype=np.int64)
        q = np.asarray(self.denominators, dtype=np.int64)
        v = np.asarray(self.values, dtype=np.float64)
        for arr in (a, q, v):
            arr.setflags(write=False)
        object.__setattr__(self, "numerators", a)
        object.__setattr__(self, "denominators", q)
        object.__setattr__(self, "values", v)
        if not (a.size == q.size == v.size):
            raise ValueError("mismatched array lengths")
        if np.any(v[1:] <= v[:-1]):
            raise ValueError("values must be strictly increasing")

    def __len__(self) -> int:
        return int(self.values.size)


class FareySlabs:
    """The fractions a/q, 1 <= a <= q, gcd(a, q) = 1, q in S, cut by value
    into slabs that are built one at a time.

    Slab b of B holds the a/q in (b/B, (b+1)/B], that is the integers a
    in (floor(b*q/B), floor((b+1)*q/B)], sorted by value; B is sum phi(q)
    over _FAREY_SLAB, rounded up.  Iterating yields the slabs in order,
    each a FareyList, and their concatenation is the whole sorted list.
    The float value of slab b's fractions lies in [edges[b], edges[b+1]]
    (division rounds monotonically), and rank(b), the number of fractions
    in the slabs before b, is a Moebius sum over the divisors of q's
    radical, so no slab is built to count it.

    Sorting by the value alone is exact because distinct reduced
    fractions have distinct floats: a/q and a'/q' differ by at least
    1/(q*q'), more than the float spacing near 1 (2^-53) when
    q*q' < 2^52.  Every q must therefore lie below 2^26; larger moduli
    are refused with OutOfRangeError before anything is enumerated.
    """

    def __init__(self, s: ModuliSet):
        q = s.elements
        if q.size and q[-1] >= _FAREY_Q_LIMIT:
            raise OutOfRangeError(f"farey moduli must lie below 2^26, got {int(q[-1])}")
        primes = [[p for p, _ in factorize(int(x))] for x in q]
        # one row (q index, prime p | q) per prime, struck from the slabs
        self._strike_at = np.repeat(np.arange(q.size), [len(ps) for ps in primes])
        self._strike_p = np.array([p for ps in primes for p in ps], dtype=np.int64)
        # one row (q, d, mu(d)) per squarefree divisor d of q
        divs = [squarefree_divisors(int(x)) for x in q]
        self._mob_q = np.repeat(q, [len(ds) for ds in divs])
        self._mob_d, self._mob_mu = np.array([dm for ds in divs for dm in ds],
                                             dtype=np.int64).reshape(-1, 2).T
        self._q = q
        self._total = int(np.sum(self._mob_mu * (self._mob_q // self._mob_d)))
        self._b = max(1, -(-self._total // _FAREY_SLAB))
        self.edges = np.arange(self._b + 1) / self._b

    def __len__(self) -> int:
        return self._total

    def __iter__(self):
        for b in range(self._b):
            yield self.slab(b)

    def rank(self, b: int) -> int:
        """Number of fractions in the slabs before b, that is with value
        <= b/B, by Moebius over q's primes."""
        return int(np.sum(self._mob_mu * ((b * self._mob_q) // (self._b * self._mob_d))))

    def slab(self, b: int) -> FareyList:
        """The fractions of slab b, sorted by value."""
        q = self._q
        lo = (b * q) // self._b  # a > lo
        hi = ((b + 1) * q) // self._b  # a <= hi
        run, off = _runs(hi - lo)
        a = lo[run] + 1 + off
        keep = np.ones(a.size, dtype=bool)
        # strike the multiples of each prime p | q inside (lo, hi]
        at, p = self._strike_at, self._strike_p
        first = (lo[at] // p + 1) * p
        srun, soff = _runs((hi[at] - first) // p + 1)
        start = np.cumsum(hi - lo) - (hi - lo)
        keep[(start[at] + first - lo[at] - 1)[srun] + p[srun] * soff] = False
        a, den = a[keep], q[run[keep]]
        v = a / den
        order = np.argsort(v)
        return FareyList(a[order], den[order], v[order])


def _runs(count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For consecutive runs of the given lengths, each position's run
    index and its offset inside the run."""
    run = np.repeat(np.arange(count.size), count)
    return run, np.arange(run.size) - (np.cumsum(count) - count)[run]


def enumerate_farey(s: ModuliSet) -> FareyList:
    """All fractions a/q, 1 <= a <= q, gcd(a, q) = 1, q in S, sorted by value.

    The concatenated FareySlabs of s, sum phi(q) entries, reserved before
    any slab is built: 49 bytes a fraction at the peak (the slabs, the
    joined list, its order check), and 50 also covers the slab tables.
    """
    slabs = FareySlabs(s)
    util.reserve("farey enumeration", len(slabs), "fractions", 50)
    parts = list(slabs)
    return FareyList(*(np.concatenate([getattr(fl, name) for fl in parts])
                       for name in ("numerators", "denominators", "values")))
