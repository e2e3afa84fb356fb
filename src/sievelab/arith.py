"""Exact integer arithmetic: factorization, the Moebius table of
squarefree divisors, modular inverses, and the quadratic congruence
g*x^2 = l (mod k).

Everything here works on Python ints and is exact.  Per prime power p^e
of k, _split takes the p-adic valuations of g and l once, puts the roots
at x = p^h*w + j*p^(h+f), w a unit root mod p^f, and decides whether there
are any and how many w; _unit_sqrt lists the w, quad_cong_roots glues them
by CRT and quad_cong_count multiplies the counts.
"""

from __future__ import annotations

import functools
import math
import operator

from .errors import NotInvertibleError, OutOfRangeError
from .util import index

_FACTOR_CACHE = 256  # factorizations kept: callers step through n in order


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as a list of (prime, exponent) pairs.

    Pairs are sorted by prime.  factorize(1) == [].  Trial division with
    a 2,3,5 wheel; fine for the word-sized inputs this package handles.
    The last _FACTOR_CACHE results are kept, keyed on operator.index(n);
    each call returns a fresh list.  A non-integer n is an OutOfRangeError.
    """
    return list(_factor_pairs(index(n, "n")))


@functools.lru_cache(maxsize=_FACTOR_CACHE)
def _factor_pairs(n: int) -> tuple[tuple[int, int], ...]:
    if n < 1:
        raise OutOfRangeError("factorize requires n >= 1")
    out = []
    for p in (2, 3, 5):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    # candidates 7, 11, 13, ... stepping over multiples of 2, 3, 5
    inc = (4, 2, 4, 2, 4, 6, 2, 6)
    p, i = 7, 0
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += inc[i]
        i = (i + 1) & 7
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def unfactorize(pairs: list[tuple[int, int]]) -> int:
    """Inverse of factorize: multiply the prime powers back together."""
    n = 1
    for p, e in pairs:
        n *= p**e
    return n


def omega(n: int) -> int:
    """Number of distinct prime divisors."""
    return len(factorize(n))


def euler_phi(n: int) -> int:
    """Euler totient via the factorization."""
    phi = 1
    for p, e in factorize(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**j for d in divs for j in range(e + 1)]
    return sorted(divs)


def squarefree_divisors(n: int) -> list[tuple[int, int]]:
    """(d, mu(d)) for every squarefree d dividing n >= 1, d = 1 first.

    Each prime p of n doubles the list: the entries so far, then each
    times p with the sign of mu flipped.
    """
    out = [(1, 1)]
    for p, _ in factorize(n):
        out += [(d * p, -mu) for d, mu in out]
    return out


def mod_inv(a: int, m: int) -> int:
    """Inverse of a modulo m, in [0, m).  mod_inv(a, 1) == 0 by convention."""
    a, m = index(a, "a"), index(m, "m")
    if m < 1:
        raise OutOfRangeError("modulus must be positive")
    if m == 1:
        return 0
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotInvertibleError(
            f"{a} has no inverse mod {m} (gcd={math.gcd(a, m)})") from None


def quad_cong_roots(g: int, l: int, k: int) -> tuple[int, list[int]]:
    """Count and list the roots of g*x^2 = l (mod k), k >= 1.

    Returns (count, sorted list of roots in [0, k)).  Every prime power
    of k is split first, so an unsolvable one returns (0, []) before any
    root is listed; then _unit_sqrt lists each one's unit roots and CRT
    glues them.
    """
    splits = _splits(g, l, k)
    if splits is None:
        return 0, []
    acc_mod = 1
    sols = [0]
    for p, e, h, f, gu, lu, _ in splits:
        roots = _unit_sqrt(gu, lu, p, f)
        pe = p**e
        if f < e:
            # x = p^h*w + j*p^(h+f); for units g and l (f = e) the w are the roots
            ph, step = p**h, p ** (h + f)
            roots = [ph * w + j for w in roots for j in range(0, pe, step)]
        if acc_mod == 1:
            sols = roots
        else:
            # by CRT, x mod acc_mod and y mod pe glue to x + acc_mod * d with
            # d = (y - x) / acc_mod mod pe, already below acc_mod * pe; the
            # inverse of acc_mod mod pe is taken once for every pair
            inv = pow(acc_mod, -1, pe)
            sols = [x + acc_mod * ((y - x) * inv % pe) for x in sols for y in roots]
        acc_mod *= pe
    sols.sort()
    return len(sols), sols


def quad_cong_count(g: int, l: int, k: int) -> int:
    """Number of roots of g*x^2 = l (mod k), k >= 1, without listing them.

    By CRT, the product over the prime powers p^e of k of p^(e-h-f) times
    the number of _split's unit roots w.
    """
    splits = _splits(g, l, k)
    if splits is None:
        return 0
    count = 1
    for p, e, h, f, _, _, n in splits:
        count *= n * p ** (e - h - f)
    return count


def _splits(g: int, l: int, k: int) -> list[tuple] | None:
    """_split(g, l, p, e) for each prime power p^e of k, in order of p,
    or None as soon as one has no root."""
    try:
        g, l, k = operator.index(g), operator.index(l), operator.index(k)
    except TypeError:
        raise OutOfRangeError(f"g={g!r}, l={l!r} and k={k!r} must be integers") from None
    if k < 1:
        raise OutOfRangeError("modulus must be positive")
    out = []
    for p, e in _factor_pairs(k):
        split = _split(g, l, p, e)
        if split is None:
            return None
        out.append(split)
    return out


def _split(g: int, l: int, p: int, e: int) -> tuple[int, ...] | None:
    """Where the roots of g*x^2 = l (mod p^e) lie: (p, e, h, f, g', l', n),
    or None when there are none.  This is the one solvability test.

    The roots are x = p^h*w + j*p^(h+f) for 0 <= j < p^(e-h-f), where w
    runs over the n units mod p^f with g'*w^2 = l' (mod p^f).  With
    s = v_p(g) and v = v_p(l), g and l taken mod p^e and s capped at e:
    - p^e | l: x needs only p^ceil((e-s)/2) | x, so h = ceil((e-s)/2),
      f = 0 and w = 0 (n = 1); g = 0 (mod p^e) makes s = e, so every x
      is a root.
    - otherwise a root needs v - s even and >= 0; then h = (v-s)/2,
      f = e - v, and g', l' are the unit parts of g and l.  For odd p
      there are n = 2 unit roots when l'/g' is a square mod p (Euler's
      criterion on l'g'), else none.  For p = 2 an odd square is 1 mod 8,
      so there are n = 1, 2 or 4 for f = 1, 2, >= 3 when
      l' = g' (mod 2^min(f, 3)), else none.
    """
    pe = p**e
    g %= pe
    l %= pe
    s = v = 0
    if g % p == 0 or l % p == 0:
        while g % p == 0 and s < e:
            g //= p
            s += 1
        if l == 0:
            return p, e, (e - s + 1) // 2, 0, g, l, 1
        while l % p == 0:
            l //= p
            v += 1
        if v < s or (v - s) % 2:
            return None
    f = e - v
    if p == 2:
        c = f if f < 3 else 3
        if (l - g) % (1 << c):
            return None
        n = 1 << (c - 1)
    elif pow(l * g, (p - 1) // 2, p) != 1:
        return None
    else:
        n = 2
    return p, e, (v - s) // 2, f, g, l, n


def _unit_sqrt(g: int, l: int, p: int, f: int) -> list[int]:
    """The w in [0, p^f) with g*w^2 = l (mod p^f), for units g and l of
    which _split has found that there are some."""
    if f == 0:
        return [0]
    m = p**f
    a = l * pow(g, -1, m) % m
    if p == 2:
        # lift a root x < 2^(f-1) of w^2 = a one bit at a time; the roots
        # are the first 1, 2 or 4 of x, -x, 2^(f-1) + x, 2^(f-1) - x for
        # f = 1, 2, >= 3
        x = 1
        for i in range(3, f):
            if (x * x - a) % (1 << (i + 1)):
                x += 1 << (i - 1)
        half = m >> 1
        return [x, m - x, half + x, half - x][:1 << (min(f, 3) - 1)]
    x = _tonelli_shanks(a % p, p)
    # Hensel lifting by Newton steps, each doubling the p-adic precision
    pk = p
    while pk < m:
        pk = min(pk * pk, m)
        x = (x - (x * x - a) * pow(2 * x, -1, pk)) % pk
    return [x, m - x]


def _tonelli_shanks(a: int, p: int) -> int | None:
    """A square root of a modulo an odd prime p, or None.  Needs 0 < a < p.

    For p = 3 (mod 4) the candidate a^((p+1)/4) is a root exactly when a
    is a residue.  Otherwise a non-residue a shows itself in the first
    squaring loop: t = a^q has order 2^s there, so i reaches m = s.
    """
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return r if r * r % p == a else None
    q, s, c = _shanks_constants(p)
    m, t, r = s, pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        if i == m:
            return None
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


@functools.lru_cache(maxsize=_FACTOR_CACHE)
def _shanks_constants(p: int) -> tuple[int, int, int]:
    """(q, s, z^q) with p - 1 = q * 2^s, q odd, z the least non-residue mod p."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    return q, s, pow(z, q, p)
