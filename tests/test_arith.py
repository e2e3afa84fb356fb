"""Integer helpers: factorization, totients, inverses, quadratic roots."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievelab import arith
from sievelab.errors import NotInvertibleError


@given(st.integers(1, 10**5))
def test_factorize_round_trip(n):
    fac = arith.factorize(n)
    assert arith.unfactorize(fac) == n
    assert all(e >= 1 for _, e in fac)
    primes = [p for p, _ in fac]
    assert primes == sorted(primes)


def test_factorize_edge_values():
    assert arith.factorize(1) == []
    assert arith.factorize(2) == [(2, 1)]
    assert arith.factorize(12) == [(2, 2), (3, 1)]
    assert arith.factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert arith.factorize(2**20) == [(2, 20)]
    assert arith.factorize(9991) == [(97, 1), (103, 1)]
    assert arith.factorize(999983) == [(999983, 1)]  # prime


@given(st.integers(1, 3000))
def test_divisors_divide_and_are_sorted(n):
    ds = arith.divisors(n)
    assert ds == sorted(ds)
    assert ds[0] == 1 and ds[-1] == n
    assert all(n % d == 0 for d in ds)
    assert len(ds) == len(set(ds))


def test_totient_values_and_divisor_sum():
    assert [arith.euler_phi(n) for n in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]
    for n in (1, 12, 90, 1024, 3 * 5 * 7):
        assert sum(arith.euler_phi(d) for d in arith.divisors(n)) == n


@given(st.integers(2, 400), st.integers(2, 400))
def test_totient_multiplicative_on_coprime_parts(a, b):
    if math.gcd(a, b) == 1:
        assert arith.euler_phi(a * b) == arith.euler_phi(a) * arith.euler_phi(b)


def test_omega_counts_distinct_primes():
    assert arith.omega(1) == 0
    assert arith.omega(8) == 1
    assert arith.omega(30) == 3
    assert arith.omega(2 * 2 * 3 * 49) == 3


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_xgcd_identity(a, b):
    g, x, y = arith.xgcd(a, b)
    assert g == math.gcd(a, b)
    assert a * x + b * y == g


@given(st.integers(1, 5000), st.integers(1, 5000))
def test_mod_inv_agrees_with_gcd_structure(a, m):
    if math.gcd(a, m) == 1:
        x = arith.mod_inv(a, m)
        assert 0 <= x < m
        assert (a * x) % m == 1 % m
    else:
        with pytest.raises(NotInvertibleError):
            arith.mod_inv(a, m)


def test_mod_inv_trivial_modulus():
    assert arith.mod_inv(5, 1) == 0
    assert arith.mod_inv(1, 2) == 1
    assert arith.mod_inv(3, 7) == 5


def test_crt_pair_reconstructs_residues():
    x = arith.crt_pair(2, 3, 3, 5)
    assert x % 3 == 2 and x % 5 == 3 and 0 <= x < 15
    x = arith.crt_pair(1, 4, 2, 9)
    assert x % 4 == 1 and x % 9 == 2


@settings(max_examples=300)
@given(st.integers(1, 600), st.integers(0, 10**6), st.integers(0, 10**6))
def test_quad_roots_match_exhaustive_scan(k, g, l):
    cnt, roots = arith.quad_cong_roots(g, l, k)
    scnt, sroots = arith.quad_cong_roots_scan(g, l, k)
    assert cnt == scnt
    assert roots == sroots
    assert all((g * x * x - l) % k == 0 for x in roots)


def test_quad_roots_match_exhaustive_scan_on_small_prime_powers():
    # every (g, l) mod p^e <= 64, where degenerate valuations are densest
    for pe in range(2, 65):
        if len(arith.factorize(pe)) == 1:
            for g in range(pe):
                for l in range(pe):
                    assert arith.quad_cong_roots(g, l, pe) == \
                        arith.quad_cong_roots_scan(g, l, pe)


def test_quad_roots_count_cap_for_coprime_inputs():
    for k in (1, 2, 4, 8, 9, 16, 12, 36, 210, 4096, 3 * 5 * 7 * 11):
        cap = 2 ** (arith.omega(k) + 1)
        for g, l in ((1, 1), (1, k - 1 if k > 1 else 0), (k - 1 if k > 1 else 1, 1)):
            if math.gcd(g, k) != 1 or math.gcd(l, k) != 1:
                continue
            cnt, _ = arith.quad_cong_roots(g, l, k)
            assert cnt <= cap


def test_quad_roots_known_cases():
    # x^2 = 1 mod 8 has the full Klein group of roots
    assert arith.quad_cong_roots(1, 1, 8) == (4, [1, 3, 5, 7])
    assert arith.quad_cong_roots(1, 0, 1) == (1, [0])
    assert arith.quad_cong_roots(1, 2, 4) == (0, [])
    assert arith.quad_cong_roots(2, 1, 5) == (0, [])  # 3 is not a square mod 5
    assert arith.quad_cong_roots(1, 4, 16) == (4, [2, 6, 10, 14])
