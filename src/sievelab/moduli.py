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

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .arith import euler_phi, factorize, quad_cong_roots
from .errors import (CapacityError, EmptyModuliWarning, OutOfRangeError,
                     SequenceFileError)
from .util import primes_up_to

_REL_SLACK = 1e-9  # containment checks allow this much relative float slack
_INT64_MAX = int(np.iinfo(np.int64).max)  # every modulus is an int64


@dataclass(frozen=True)
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
        if self.M < 0 or self.Q <= 0:
            raise OutOfRangeError("need M >= 0 and span Q > 0")
        if el.size:
            if np.any(np.diff(el) <= 0):
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
    if not 1 <= qmax <= math.isqrt(_INT64_MAX):
        raise OutOfRangeError(f"need 1 <= qmax <= {math.isqrt(_INT64_MAX)}")
    el = np.arange(1, qmax + 1, dtype=np.int64) ** 2
    return ModuliSet(el, 0.0, float(qmax) ** 2, "squares_up_to", float(qmax))


def squares_in_octave(q0: float) -> ModuliSet:
    """The squares inside (Q0, 2*Q0]."""
    if not 0 < q0 <= _INT64_MAX / 2:
        raise OutOfRangeError(f"need 0 < Q0 <= {_INT64_MAX / 2:g}")
    lo = math.isqrt(int(math.floor(q0)))
    qs = []
    c = max(1, lo)
    while c * c <= 2 * q0:
        if c * c > q0:
            qs.append(c * c)
        c += 1
    return _warn_if_empty(ModuliSet(np.array(qs, dtype=np.int64), float(q0), float(q0),
                                    "squares_in_octave", float(q0)))


def primes_up_to_set(q: int) -> ModuliSet:
    """The primes inside (0, q]."""
    if not 1 <= q <= _INT64_MAX:
        raise OutOfRangeError(f"need 1 <= q <= {_INT64_MAX}")
    ps = primes_up_to(q)
    return _warn_if_empty(ModuliSet(np.array(ps, dtype=np.int64), 0.0, float(q),
                                    "primes_up_to", float(q)))


def explicit_moduli(elements, M: float | None = None, span: float | None = None) -> ModuliSet:
    """A set given by an explicit element list, default interval (0, max]."""
    el = np.array(sorted(int(x) for x in elements), dtype=np.int64)
    if M is None:
        M = 0.0
    if span is None:
        span = float(el[-1]) - M if el.size else 1.0
    return _warn_if_empty(ModuliSet(el, float(M), float(span), "explicit", None))


def moduli_from_file(path: str, M: float | None = None, span: float | None = None) -> ModuliSet:
    """Explicit set from a text file, one integer per line, increasing."""
    vals = []
    try:
        with open(path, encoding="utf-8") as fh:
            for ln, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    vals.append(int(line))
                except ValueError as exc:
                    raise SequenceFileError(f"{path}:{ln}: not an integer") from exc
    except OSError as exc:
        raise SequenceFileError(f"cannot read {path}: {exc}") from exc
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise SequenceFileError(f"{path}: moduli must be strictly increasing")
    return explicit_moduli(vals, M=M, span=span)


def build_moduli_set(kind: str, **kw) -> ModuliSet:
    """String-keyed constructor used by the CLI and config files."""
    if kind == "squares_up_to":
        return squares_up_to(int(kw["q"]))
    if kind == "squares_in_octave":
        return squares_in_octave(float(kw["q0"]))
    if kind == "primes_up_to":
        return primes_up_to_set(int(kw["q"]))
    if kind == "explicit":
        return explicit_moduli(kw["elements"], M=kw.get("M"), span=kw.get("span"))
    if kind == "file":
        return moduli_from_file(kw["path"], M=kw.get("M"), span=kw.get("span"))
    raise ValueError(f"unknown moduli kind {kind!r}")


def derive_subset(s: ModuliSet, t: int) -> ModuliSet:
    """The dilate {q : t*q in S}, living in (M/t, (M+Q)/t]."""
    if t < 1:
        raise ValueError("need t >= 1")
    el = s.elements[s.elements % t == 0] // t
    return ModuliSet(el, s.M / t, s.Q / t, "derived", None)


def square_divisor_profile(t: int) -> tuple[int, int]:
    """(f, g) with f^2 = g*t, f minimal such that t | n^2 iff f | n.

    Round each exponent in t up to the next even number; f takes half of
    the rounded exponents, and g = f^2/t collects one copy of each prime
    with odd exponent.
    """
    if t < 1:
        raise ValueError("need t >= 1")
    f = 1
    for p, v in factorize(t):
        f *= p ** ((v + 1) // 2)
    return f, (f * f) // t


def square_class_count(t: int, k: int, l: int) -> int:
    """Number of residues x mod k with x^2 * g = l (mod k), g from t.

    This counts the classes mod k that the dilated square moduli can
    occupy; it vanishes when gcd(g, k) > 1 and gcd(k, l) = 1, and is
    never more than 2^{omega(k)+1}.
    """
    _, g = square_divisor_profile(t)
    return quad_cong_roots(g, l, k)[0]


@dataclass(frozen=True)
class FareyList:
    """Reduced fractions a/q with values sorted strictly increasing."""

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
        if a.size:
            if np.any(np.gcd(a, q) != 1):
                raise ValueError("fractions must be reduced")
            if np.any(np.diff(v) <= 0):
                raise ValueError("values must be strictly increasing")

    def __len__(self) -> int:
        return int(self.values.size)


def enumerate_farey(s: ModuliSet, capacity: int = 10**8) -> FareyList:
    """All fractions a/q, 1 <= a <= q, gcd(a, q) = 1, q in S, sorted by value.

    The list has sum phi(q) entries; a CapacityError fires before anything
    is allocated when that sum exceeds `capacity`.
    """
    total = sum(euler_phi(int(q)) for q in s.elements)
    if total > capacity:
        raise CapacityError(f"farey enumeration needs {total} fractions, "
                            f"over capacity {capacity}")
    nums, dens = [], []
    for q in s.elements:
        q = int(q)
        a = np.arange(1, q + 1, dtype=np.int64)
        a = a[np.gcd(a, q) == 1]
        nums.append(a)
        dens.append(np.full(a.size, q, dtype=np.int64))
    if not nums:
        return FareyList(np.array([], dtype=np.int64), np.array([], dtype=np.int64),
                         np.array([], dtype=np.float64))
    a = np.concatenate(nums)
    q = np.concatenate(dens)
    v = a / q
    order = np.lexsort((q, v))
    return FareyList(a[order], q[order], v[order])
