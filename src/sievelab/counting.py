"""Counting primitives: sliding window counts over a moduli set in one
residue class, crowding counts of Farey values, pair counts in an
arithmetic progression strip, and best rational approximation.

The window count A(u, k, l) asks: over the dilated set inside [lo, hi],
what is the largest number of elements = l (mod k) that fit in one
half-open window (y, y+u] with y in [lo, hi]?  The count, as a function
of y, only steps up where a window's left edge sits at q - u for an
element q, so the exact maximum is attained on the finite candidate set
{clamp(q - u, lo, hi)} together with lo (and hi, which is harmless).
Counts at element-anchored candidates are exact without any float
slack: for an integer difference d, d < u exactly when d < ceil(u), so
the window (q_i - u, q_i] holds the elements above q_i - ceil(u), one
searchsorted on the sorted elements.  Counts at lo and hi are
searchsorted counts as well, so a profile costs O(n log n) per u and
never builds an n x n matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import util
from .errors import InvalidDeltaError, NotCoprimeError, OutOfRangeError
from .moduli import _INT64_MAX, FareyList, FareySlabs, ModuliSet, derive_subset


_KDELTA_AHEAD = 64  # built slabs k_delta keeps ahead of the left slab, at most
_PROFILE_PAIRS = 1 << 18  # (element, u) pairs one window_count_profile chunk holds
_PROFILE_ELEMENT_BYTES = 128  # a profile's bytes an element at the peak (tracemalloc)
_PROFILE_PAIR_BYTES = 56  # and an (element, u) pair of its chunk


@dataclass(frozen=True)
class RationalApprox:
    """alpha = b/r + z with gcd(b, r) = 1, r <= tau, |z| <= 1/(r*tau)."""

    b: int
    r: int
    z: float
    tau: float


@dataclass(frozen=True)
class WindowQuery:
    """Window length u, residue class l mod k, dilation factor t."""

    u: float
    k: int
    l: int
    t: int = 1

    def __post_init__(self):
        for name in ("k", "l", "t"):
            util.index(getattr(self, name), name)
        if not (1 <= self.k <= _INT64_MAX and 1 <= self.t <= _INT64_MAX):
            raise OutOfRangeError(f"need 1 <= k, t <= {_INT64_MAX}")
        if not self.u >= 0:
            raise OutOfRangeError(f"window length u={self.u} must be nonnegative")
        if math.gcd(self.k, self.l) != 1:
            raise NotCoprimeError(f"residue class l={self.l} not coprime to k={self.k}")


def dirichlet_approx(alpha: float, tau: float) -> RationalApprox:
    """Best rational b/r with r <= tau and |alpha - b/r| <= 1/(r*tau).

    Continued fraction convergents of the exact binary rational behind
    the float argument; the last convergent with denominator <= tau
    satisfies the pigeonhole guarantee because the next one exceeds tau.
    """
    if not tau >= 1:
        raise OutOfRangeError("need tau >= 1")
    if not math.isfinite(alpha):
        raise OutOfRangeError("alpha must be finite")
    from fractions import Fraction

    x = Fraction(alpha)
    num, den = x.numerator, x.denominator
    hm2, hm1 = 0, 1
    km2, km1 = 1, 0
    best = None
    a, b = num, den
    while True:
        quot = a // b
        h, k = quot * hm1 + hm2, quot * km1 + km2
        if k > tau and best is not None:
            break
        best = (h, k)
        hm2, hm1, km2, km1 = hm1, h, km1, k
        a, b = b, a - quot * b
        if b == 0:
            break
    p, q = best
    z = alpha - p / q
    return RationalApprox(b=p, r=q, z=z, tau=float(tau))


def count_window_ap(s: ModuliSet, query: WindowQuery) -> int:
    """Max elements of the t-dilate of s = l (mod k) in a window (y, y+u],
    y in the dilate's interval [M/t, (M+Q)/t].

    t, k, l and u all come from the query.  Exact by candidate evaluation;
    the class's profile, of at most |s| elements, is reserved first.
    """
    t, k = query.t, query.k
    util.reserve("window count", s.size, "moduli", profile_bytes(1, 1))
    el = derive_subset(s, t).elements
    c = el[el % k == query.l % k]
    _, rows = window_count_profile(c, [query.u], s.M / t, (s.M + s.Q) / t, labels=c % k)
    return int(rows.sum())  # the class's one row, or none when it is empty


def _profile_chunk(elements: int) -> int:
    """The widths one window_count_profile chunk takes over `elements`
    elements: its (element, u) pairs stay within _PROFILE_PAIRS."""
    return max(1, _PROFILE_PAIRS // max(1, elements))


def profile_bytes(elements: int, widths: int) -> int:
    """The peak bytes of a window_count_profile call over `elements`
    elements and `widths` widths: each element's, and each (element, u)
    pair's of its widest chunk."""
    pairs = elements * min(widths, _profile_chunk(elements))
    return _PROFILE_ELEMENT_BYTES * elements + _PROFILE_PAIR_BYTES * pairs


def window_count_profile(c: np.ndarray, u_vec, lo, hi, labels):
    """count_window_ap for integer element arrays over a vector of u, per
    group of equal label (one label per element).

    The result is (groups, rows): the distinct labels in ascending order
    and one row of counts per label, all from one sorted pass.  u_vec
    broadcasts to (groups, |u|) and lo, hi to (groups,), so each group
    may take its own widths and interval.  The work that does not depend
    on u is done once, by _ProfileKeys, and _ProfileKeys.counts counts
    the windows of every u.
    """
    keys = _ProfileKeys(c, lo, hi, labels)
    return keys.groups, keys.counts(u_vec)


class _ProfileKeys:
    """The sorted keys of a window profile, which do not depend on u.

    The elements are keyed by (group, value) so that one searchsorted
    serves every group: the labels are ranked, the keys sorted, and the
    group starts, each element's count of keys up to itself and the
    counts up to each group's lo and hi looked up, once.  counts(u_vec)
    then counts the windows of any widths, and a caller that asks at
    many u over the same elements keeps the keys.
    """

    def __init__(self, c: np.ndarray, lo, hi, labels):
        c = np.asarray(c, dtype=np.int64)
        self.groups, rank = np.unique(np.asarray(labels, dtype=np.int64),
                                      return_inverse=True)
        self.size = c.size
        if c.size == 0:
            return
        self.ends = np.empty((2, self.groups.size))
        self.ends[0], self.ends[1] = lo, hi
        # key = group * stride + (c - c_min): a key shifted down by at most
        # span + 1 (the whole array's span) still lies above every key of
        # the group before
        self.c_min, self.span = int(c.min()), int(c.max()) - int(c.min())
        stride = 2 * self.span + 2
        if self.groups.size * stride > _INT64_MAX:
            raise OutOfRangeError(f"{self.groups.size} groups over a span of {self.span} "
                                  f"pass the int64 keys")
        self.key = key = np.sort(rank.reshape(-1) * stride + (c - self.c_min))
        self.group = key // stride
        self.cf = (key % stride + self.c_min).astype(np.float64)
        self.base = np.arange(self.groups.size) * stride
        self.starts = np.searchsorted(key, self.base)
        self.upto_self = np.searchsorted(key, key, side="right")
        self.below = np.searchsorted(key, self.base + self._edge(self.ends), side="right")

    def _edge(self, y) -> np.ndarray:
        """floor(y) - c_min clipped to [-1, span]: for an integer c, the
        float test c <= y holds exactly when c - c_min <= this offset."""
        return np.fmax(np.fmin(np.floor(y) - self.c_min, float(self.span)),
                       -1.0).astype(np.int64)

    def counts(self, u_vec) -> np.ndarray:
        """One row of window counts per group, over the widths u_vec,
        which broadcasts to (groups, |u|)."""
        u_vec = np.asarray(u_vec, dtype=np.float64)
        u_vec = np.broadcast_to(u_vec, (self.groups.size, u_vec.shape[-1]))
        if self.size == 0:
            return np.zeros(u_vec.shape, dtype=np.int64)
        key, group, cf, ends = self.key, self.group, self.cf, self.ends
        out = np.empty(u_vec.shape, dtype=np.int64)
        chunk = _profile_chunk(self.size)
        for start in range(0, u_vec.shape[1], chunk):
            u = u_vec[:, start : start + chunk].T  # (chunk, groups)
            ue = u[:, group]
            # windows (c_i - u, c_i] hold the c_j > c_i - ceil(u) of the group
            width = np.ceil(np.fmax(np.fmin(ue, self.span + 1.0), 0.0)).astype(np.int64)
            counts = self.upto_self - np.searchsorted(key, key - width, side="right")
            anchored = (cf - ue >= ends[0, group]) & (cf - ue <= ends[1, group])
            best = np.maximum.reduceat(np.where(anchored, counts, 0), self.starts, axis=1)
            # windows (y, y+u] at y = lo and y = hi hold the c > y, c <= y + u
            top = np.searchsorted(key, self.base + self._edge(ends + u[:, None]),
                                  side="right")
            best = np.maximum(best, (top - self.below).max(axis=1))
            out[:, start : start + chunk] = np.where(u > 0, best, 0).T
        return out


def k_delta(s: ModuliSet, delta: float) -> int:
    """Largest number of Farey values a/q, q in s, within circular
    distance delta of any single point of the circle (so a closed window
    of width 2*delta).

    Requires 0 < delta <= 1/2, checked before any fraction is built.  An
    optimal window can be slid until its left edge touches a value, so
    left edges range over the values v, and the window at v holds the
    values of ext, the list followed by the list + 1.0, that are
    <= v + 2*delta.

    The fractions come as FareySlabs, and each left slab b, values v,
    looks its window up from the slab edges, with no cursor.  The ext
    slabs below jlo, the first whose upper edge exceeds v[0] + 2*delta,
    lie wholly under every window edge and are counted by rank, never
    built; those from jhi, the first whose lower edge exceeds
    v[-1] + 2*delta, lie wholly above.  Only the slabs jlo..jhi-1, at most
    three since v spans one slab, straddle the edges; they alone are built
    and searched.
    Built slabs past b are kept by ext index, at most _KDELTA_AHEAD of
    them: the window's own slabs serve the next window and the others
    serve later left slabs, and past the bound the kept slab furthest
    ahead goes.  So for windows narrower than that only the wrap head is
    built twice; in a wider one most slabs are built once as a left slab
    and once in a window.
    """
    if not 0 < delta <= 0.5:
        raise InvalidDeltaError(f"delta={delta} outside (0, 1/2]")
    farey = FareySlabs(s)
    n = len(farey)
    if n == 0:
        return 0
    nslab = len(farey.edges) - 1
    # ext slab j is slab j % nslab, shifted by 1.0 from j = nslab on
    lower = np.concatenate([farey.edges[:-1], farey.edges[:-1] + 1.0])
    upper = np.concatenate([farey.edges[1:], farey.edges[1:] + 1.0])

    def rank(j):
        return farey.rank(j) if j <= nslab else n + farey.rank(j - nslab)

    ahead = {}  # built ext slabs past the left slab, by index
    best = 0
    for b in range(nslab):
        v = ahead.pop(b) if b in ahead else farey.slab(b).values
        if v.size == 0:
            continue
        edge = v + 2.0 * delta
        jlo = int(np.searchsorted(upper, edge[0], side="right"))
        jhi = int(np.searchsorted(lower, edge[-1], side="right"))
        ahead = {j: x for j, x in ahead.items() if b < j < nslab or j >= jlo}
        for j in range(jlo, jhi):
            if j not in ahead:
                x = v if j % nslab == b else farey.slab(j % nslab).values
                ahead[j] = x if j < nslab else x + 1.0
        while len(ahead) > _KDELTA_AHEAD:  # the window stays, the furthest kept goes
            del ahead[max(j for j in ahead if j < jlo)]
        near = np.concatenate([ahead[j] for j in range(jlo, jhi)]) if jhi > jlo else v[:0]
        right = rank(jlo) + np.searchsorted(near, edge, side="right")
        best = max(best, int((right - farey.rank(b) - np.arange(v.size)).max()))
    return min(best, n)


def p_alpha(farey: FareyList, alpha: float, delta: float) -> int:
    """Number of Farey values in the real interval [alpha-delta, alpha+delta]."""
    if delta <= 0:
        raise InvalidDeltaError("delta must be positive")
    v = farey.values
    return int(np.searchsorted(v, alpha + delta, side="right")
               - np.searchsorted(v, alpha - delta, side="left"))


def p_alpha_circular(farey: FareyList, alpha: float, delta: float) -> int:
    """Number of Farey values within circular distance delta of alpha."""
    if delta <= 0:
        raise InvalidDeltaError("delta must be positive")
    d = np.abs(farey.values - alpha) % 1.0
    return int(np.sum(np.minimum(d, 1.0 - d) <= delta))


def pi_count(s: ModuliSet, b: int, r: int, z: float, delta: float, y: float) -> int:
    """Pairs (q, m): q in S within [y-delta, y+delta], m = -b*q (mod r),
    m != 0, and m inside [(y-4*delta)*r*z, (y+4*delta)*r*z].

    Exact, in closed form per eligible q: the m = rho (mod r) in [lo, hi]
    start at m0 and number (hi - m0)//r + 1, less one when 0 is among
    them.  The m-interval is taken literally, so it is empty when its
    endpoints are out of order.
    """
    b, r = util.index(b, "b"), util.index(r, "r")
    if r < 1:
        raise OutOfRangeError("need r >= 1")
    jlo = (y - 4.0 * delta) * r * z
    jhi = (y + 4.0 * delta) * r * z
    if not (math.isfinite(jlo) and math.isfinite(jhi)):
        raise OutOfRangeError(f"m-interval [{jlo}, {jhi}] is not finite")
    if jhi < jlo:
        return 0
    el = s.elements
    qlo = np.searchsorted(el, y - delta, side="left")
    qhi = np.searchsorted(el, y + delta, side="right")
    lo, hi = math.ceil(jlo), math.floor(jhi)
    total = 0
    for q in el[qlo:qhi]:
        if not (y - delta <= q <= y + delta):
            continue
        rho = (-b * int(q)) % r
        m0 = lo + (rho - lo) % r
        if m0 <= hi:
            total += (hi - m0) // r + 1 - (rho == 0 and m0 <= 0 <= hi)
    return total
