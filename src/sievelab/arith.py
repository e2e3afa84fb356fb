"""Exact integer arithmetic: factorization, the Moebius table of
squarefree divisors, modular inverses, and the quadratic congruence
g*x^2 = l (mod k).

Everything here works on Python ints and is exact.  The quadratic solver
takes every prime power of k through square-root lifting and glues the
roots by CRT; the root count alone is the product of the per-prime-power
counts, which have closed forms.
"""

from __future__ import annotations

import functools
import math
import operator

from .errors import NotInvertibleError, OutOfRangeError

_FACTOR_CACHE = 256  # factorizations kept: callers step through n in order


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as a list of (prime, exponent) pairs.

    Pairs are sorted by prime.  factorize(1) == [].  Trial division with
    a 2,3,5 wheel; fine for the word-sized inputs this package handles.
    The last _FACTOR_CACHE results are kept, keyed on operator.index(n);
    each call returns a fresh list.
    """
    return list(_factor_pairs(operator.index(n)))


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
    if m < 1:
        raise OutOfRangeError("modulus must be positive")
    if m == 1:
        return 0
    try:
        return pow(operator.index(a), -1, operator.index(m))
    except ValueError:
        raise NotInvertibleError(
            f"{a} has no inverse mod {m} (gcd={math.gcd(a, m)})") from None


def quad_cong_roots(g: int, l: int, k: int) -> tuple[int, list[int]]:
    """Count and list the roots of g*x^2 = l (mod k), k >= 1.

    Returns (count, sorted list of roots in [0, k)).  Solved per prime
    power of k by square-root lifting, with valuation bookkeeping for
    non-unit g or l, and recombined by CRT.
    """
    if k < 1:
        raise OutOfRangeError("modulus must be positive")
    if k == 1:
        return 1, [0]
    per_factor = []
    for p, e in factorize(k):
        roots = _roots_prime_power(g, l, p, e)
        if not roots:
            return 0, []
        per_factor.append((p**e, roots))
    acc_mod = 1
    sols = [0]
    for pe, roots in per_factor:
        # crt_pair for every (x, y), with its one inverse taken once
        inv = mod_inv(acc_mod % pe, pe)
        sols = [(x + acc_mod * (((y - x) * inv) % pe)) % (acc_mod * pe)
                for x in sols for y in roots]
        acc_mod *= pe
    sols.sort()
    return len(sols), sols


def quad_cong_count(g: int, l: int, k: int) -> int:
    """Number of roots of g*x^2 = l (mod k), k >= 1, without listing them.

    By CRT the roots mod k are the tuples of roots mod the prime powers
    of k, so the count is the product of the per-prime-power counts;
    equal to quad_cong_roots(g, l, k)[0].
    """
    if k < 1:
        raise OutOfRangeError("modulus must be positive")
    count = 1
    for p, e in factorize(k):
        count *= _count_prime_power(g, l, p, e)
        if not count:
            return 0
    return count


def _count_prime_power(g: int, l: int, p: int, e: int) -> int:
    """len(_roots_prime_power(g, l, p, e)), in closed form.

    With s = v_p(g) and v = v_p(l), a root exists only for even v - s;
    then x = p^((v-s)/2) * u, where u is a unit root of g' u^2 = l'
    (mod p^(e-v)) for the unit parts g', l', and each such u lifts to
    p^s * p^((v-s)/2) roots mod p^e.
    """
    pe = p**e
    g %= pe
    l %= pe
    if g == 0:
        return pe if l == 0 else 0
    s = 0
    while g % p == 0:
        g //= p
        s += 1
    if l == 0:
        # p^s * x^2 = 0 (mod p^e) iff p^ceil((e-s)/2) divides x
        return p ** (s + (e - s) // 2)
    v = 0
    while l % p == 0:
        l //= p
        v += 1
    if v < s or (v - s) % 2:
        return 0
    if p == 2:
        # an odd square is 1 mod 8: x^2 = l/g (mod 2^f) has 1, 2 or 4
        # roots for f = 1, 2, >= 3 when l = g mod 2^min(f, 3), else none
        c = min(e - v, 3)
        units = 1 << (c - 1) if (l - g) % (1 << c) == 0 else 0
    else:
        # two roots when l/g is a square mod p, Euler's criterion on l*g
        units = 2 if pow(l * g, (p - 1) // 2, p) == 1 else 0
    return p ** (s + (v - s) // 2) * units


def _roots_prime_power(g: int, l: int, p: int, e: int) -> list[int]:
    """Roots of g*x^2 = l (mod p^e)."""
    pe = p**e
    g %= pe
    l %= pe
    if g % p != 0:
        # reduce to x^2 = l * g^{-1}
        return _sqrt_mod_prime_power((l * mod_inv(g, pe)) % pe, p, e)
    if g == 0:
        return list(range(pe)) if l == 0 else []
    s = 0
    gg = g
    while gg % p == 0:
        gg //= p
        s += 1
    ps = p**s
    # valuation of the left side is at least s, so p^s must divide l
    if l % ps != 0:
        return []
    sub = _roots_prime_power(gg, l // ps, p, e - s)
    m = p ** (e - s)
    return sorted((x + j * m) % pe for x in sub for j in range(ps))


def _sqrt_mod_prime_power(a: int, p: int, e: int) -> list[int]:
    """Roots of x^2 = a (mod p^e) for any a, handling p | a by valuation."""
    pe = p**e
    a %= pe
    if e == 0:
        return [0]
    if a == 0:
        step = p ** ((e + 1) // 2)
        return list(range(0, pe, step))
    v = 0
    aa = a
    while aa % p == 0:
        aa //= p
        v += 1
    if v:
        if v % 2:
            return []
        # x = p^{v/2} * u with u^2 = aa (mod p^{e-v}); u lifts freely above
        f = e - v
        half = p ** (v // 2)
        m = p**f
        base = _sqrt_mod_unit(aa, p, f)
        return sorted({(half * (y + j * m)) % pe for y in base for j in range(half)})
    return _sqrt_mod_unit(a, p, e)


def _sqrt_mod_unit(a: int, p: int, e: int) -> list[int]:
    """Roots of x^2 = a (mod p^e) with p not dividing a."""
    if e == 0:
        return [0]
    if p == 2:
        if e == 1:
            return [1]
        if e == 2:
            return [1, 3] if a % 4 == 1 else []
        if a % 8 != 1:
            return []
        x = 1
        for i in range(3, e):
            if (x * x - a) % (1 << (i + 1)):
                x += 1 << (i - 1)
        m = 1 << e
        return sorted({x % m, (m - x) % m, (x + (m >> 1)) % m, (m - x + (m >> 1)) % m})
    r0 = _tonelli_shanks(a % p, p)
    if r0 is None:
        return []
    pe = p**e
    x, pk = r0, p
    while pk < pe:
        pk2 = min(pk * pk, pe)
        x = (x - (x * x - a) * mod_inv((2 * x) % pk2, pk2)) % pk2
        pk = pk2
    return sorted({x, pe - x})


def _tonelli_shanks(a: int, p: int):
    """A square root of a modulo an odd prime p, or None.  Assumes p ∤ a."""
    if p == 2:
        return a % 2
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p - 1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r
