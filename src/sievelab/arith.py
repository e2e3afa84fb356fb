"""Exact integer arithmetic: factorization, the Moebius table of
squarefree divisors, modular inverses, and the quadratic congruence
g*x^2 = l (mod k).

Everything here works on Python ints and is exact.  The quadratic solver
takes every prime power of k through square-root lifting and glues the
roots by CRT.
"""

from __future__ import annotations

from .errors import NotInvertibleError


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as a list of (prime, exponent) pairs.

    Pairs are sorted by prime.  factorize(1) == [].  Trial division with
    a 2,3,5 wheel; fine for the word-sized inputs this package handles.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
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
    return out


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


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, x, y) with a*x + b*y = g = gcd(a, b)."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def mod_inv(a: int, m: int) -> int:
    """Inverse of a modulo m, in [0, m).  mod_inv(a, 1) == 0 by convention."""
    if m < 1:
        raise ValueError("modulus must be positive")
    if m == 1:
        return 0
    g, x, _ = xgcd(a % m, m)
    if g != 1:
        raise NotInvertibleError(f"{a} has no inverse mod {m} (gcd={g})")
    return x % m


def crt_pair(x1: int, m1: int, x2: int, m2: int) -> int:
    """Solve x = x1 (mod m1), x = x2 (mod m2) for coprime m1, m2."""
    d = ((x2 - x1) * mod_inv(m1 % m2, m2)) % m2
    return (x1 + m1 * d) % (m1 * m2)


def quad_cong_roots(g: int, l: int, k: int) -> tuple[int, list[int]]:
    """Count and list the roots of g*x^2 = l (mod k), k >= 1.

    Returns (count, sorted list of roots in [0, k)).  Solved per prime
    power of k by square-root lifting, with valuation bookkeeping for
    non-unit g or l, and recombined by CRT.
    """
    if k < 1:
        raise ValueError("modulus must be positive")
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
