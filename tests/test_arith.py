"""Integer helpers: factorization, totients, inverses, quadratic roots."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievelab import arith, bounds, counting, harmonic, moduli, oracles, sequences
from sievelab.errors import NotInvertibleError, OutOfRangeError


@given(st.integers(1, 10**5))
def test_factorize_round_trip(n):
    fac = arith.factorize(n)
    assert arith.unfactorize(fac) == n
    assert all(e >= 1 for _, e in fac)
    primes = [p for p, _ in fac]
    assert primes == sorted(primes)


@pytest.mark.parametrize("first", [np.int64, int])
def test_factorize_cache_hands_out_fresh_lists_of_python_ints(first):
    n = 2**4 * 3 * 7919
    arith._factor_pairs.cache_clear()
    got = [arith.factorize(first(n)), arith.factorize(n), arith.factorize(np.int64(n))]
    assert got[0] == got[1] == got[2] == [(2, 4), (3, 1), (7919, 1)]
    assert all(type(p) is int and type(e) is int for fac in got for p, e in fac)
    got[0].append((2, 1))
    got[0][0] = (3, 9)
    assert arith.factorize(n) == got[1] != got[0]


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
    g, x, y = oracles.xgcd(a, b)
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


def test_mod_inv_equals_the_xgcd_inverse():
    for m in range(1, 301):
        for a in range(-m, 2 * m + 1):
            g, x, _ = oracles.xgcd(a % m, m)
            if g == 1:
                assert arith.mod_inv(a, m) == x % m
            else:
                with pytest.raises(NotInvertibleError, match=f"gcd={g}"):
                    arith.mod_inv(a, m)
    assert arith.mod_inv(np.int64(-4), np.int64(7)) == 5


@pytest.mark.parametrize("call", [
    lambda: arith.factorize(0),
    lambda: arith.mod_inv(3, 0),
    lambda: arith.quad_cong_roots(1, 1, 0),
    lambda: arith.quad_cong_count(1, 1, -2),
    lambda: moduli.square_divisor_profile(0),
    lambda: moduli.derive_subset(moduli.squares_up_to(3), 0),
    lambda: counting.dirichlet_approx(0.3, 0.5),
    lambda: counting.dirichlet_approx(math.nan, 10.0),
    lambda: counting.pi_count(moduli.squares_up_to(3), 0, 0, 0.1, 0.1, 4.0),
    lambda: harmonic.gauss_sum(1, 0, 0),
    lambda: harmonic.gauss_sum_row(1, 0),
    lambda: harmonic.poisson_residual(0.0, 0.0),
    lambda: harmonic.oscillatory_integral(1, 1, 1, 0.1, 0.0),
    lambda: harmonic.oscillatory_integral(1, 1, 0, 0.1, 10.0),
    lambda: sequences.eval_at_modulus(sequences.make_sequence("ones", 8), 0),
    lambda: sequences.CoefficientSequence([]),
    lambda: bounds.sieve_bracket(moduli.squares_up_to(3), 16, mode="fast"),
    lambda: moduli.build_moduli_set("cubes"),
    lambda: sequences.make_sequence("ones", 10.5),
    lambda: sequences.make_sequence("ones", 10.0),
    lambda: moduli.explicit_moduli([2.5, 3]),
    lambda: moduli.explicit_moduli([2**70]),
    lambda: moduli.explicit_moduli([math.nan]),
    lambda: sequences.eval_exp_sum(sequences.make_sequence("ones", 8), math.nan),
    lambda: sequences.eval_exp_sum(sequences.make_sequence("ones", 8), math.inf),
    lambda: counting.pi_count(moduli.squares_up_to(3), 1, 2, math.nan, 0.1, 3.0),
    lambda: counting.pi_count(moduli.squares_up_to(3), 1, 2, 0.1, math.nan, 3.0),
    lambda: counting.pi_count(moduli.squares_up_to(3), 1, 2, 0.1, 0.1, math.inf),
    lambda: harmonic.poisson_residual(math.nan, 0.0),
    lambda: harmonic.poisson_residual(1.0, math.nan),
    lambda: harmonic.poisson_residual(math.inf, 0.0),
    lambda: bounds.crowding_shape_estimates(1, 0.2, 0.1, math.nan, 3, 1.0),
    lambda: bounds.crowding_shape_estimates(1, 0.2, 0.1, 5.0, 3, math.nan),
    lambda: bounds.sieve_bracket(moduli.squares_up_to(3), 16, z_grid=0),
    lambda: bounds.sieve_bracket(moduli.squares_up_to(3), 16, z_grid=-5),
    lambda: arith.factorize(2.5),
    lambda: arith.mod_inv(3, 7.0),
    lambda: arith.quad_cong_roots(1, 1, 2.0),
    lambda: moduli.square_class_count(1.5, 4, 1),
    lambda: harmonic.gauss_sum(1, 0, 2.5),
    lambda: bounds.sieve_bracket(moduli.squares_up_to(3), 16, z_grid=2.5),
    lambda: sequences.make_sequence("delta", 10, n0=2.5),
    lambda: counting.pi_count(moduli.squares_up_to(3), 1, 2.5, 0.1, 0.1, 3.0),
    lambda: bounds.crowding_shape_estimates(1, 0.2, 0.1, 1e300, 3, 1.0),
    lambda: moduli.derive_subset(moduli.squares_up_to(5), 2.5),
    lambda: moduli.squares_up_to(3.0),
    lambda: moduli.primes_up_to_set(30.5),
    lambda: counting.WindowQuery(5.0, 2.5, 1),
    lambda: bounds.farey_crowding_shape(moduli.squares_up_to(5), 1.5, 2, 0.01, 0.01),
], ids=["factorize", "mod_inv", "quad_cong_roots", "quad_cong_count",
        "square_divisor_profile", "derive_subset", "dirichlet_approx-tau",
        "dirichlet_approx-alpha", "pi_count", "gauss_sum", "gauss_sum_row",
        "poisson_residual", "oscillatory_integral-q0",
        "oscillatory_integral-r_star", "eval_at_modulus",
        "CoefficientSequence-empty",
        "sieve_bracket", "build_moduli_set", "make_sequence-fraction",
        "make_sequence-float", "explicit_moduli-fraction", "explicit_moduli-past-int64",
        "explicit_moduli-nan", "eval_exp_sum-nan", "eval_exp_sum-inf", "pi_count-z-nan",
        "pi_count-delta-nan", "pi_count-y-inf", "poisson_residual-scale-nan",
        "poisson_residual-shift-nan", "poisson_residual-scale-inf",
        "crowding_shape_estimates-q0-nan", "crowding_shape_estimates-x-nan",
        "sieve_bracket-z_grid-0", "sieve_bracket-z_grid-negative",
        "factorize-fraction", "mod_inv-float", "quad_cong_roots-float",
        "square_class_count-fraction", "gauss_sum-fraction", "sieve_bracket-z_grid-fraction",
        "make_sequence-n0-fraction", "pi_count-r-fraction",
        "crowding_shape_estimates-q0-overflow", "derive_subset-fraction",
        "squares_up_to-float", "primes_up_to_set-fraction", "WindowQuery-fraction",
        "farey_crowding_shape-fraction"])
def test_argument_errors_are_out_of_range(call):
    with pytest.raises(OutOfRangeError):
        call()


def test_mod_inv_trivial_modulus():
    assert arith.mod_inv(5, 1) == 0
    assert arith.mod_inv(1, 2) == 1
    assert arith.mod_inv(3, 7) == 5


def test_squarefree_divisors_match_brute_force():
    for n in range(1, 5001):
        want = []
        for d in range(1, n + 1):
            if n % d == 0 and all(d % (p * p) for p in range(2, math.isqrt(d) + 1)):
                want.append((d, (-1) ** len(arith.factorize(d))))
        got = arith.squarefree_divisors(n)
        assert got[0] == (1, 1)
        assert sorted(got) == want


@settings(max_examples=300)
@given(st.integers(1, 600), st.integers(0, 10**6), st.integers(0, 10**6))
def test_quad_roots_match_exhaustive_scan(k, g, l):
    cnt, roots = arith.quad_cong_roots(g, l, k)
    scnt, sroots = oracles.quad_cong_roots_scan(g, l, k)
    assert cnt == scnt
    assert roots == sroots
    assert all((g * x * x - l) % k == 0 for x in roots)
    assert arith.quad_cong_count(g, l, k) == scnt


def test_quad_roots_match_exhaustive_scan_on_small_prime_powers():
    # every (g, l) mod p^e <= 64, where degenerate valuations are densest
    for pe in range(2, 65):
        if len(arith.factorize(pe)) == 1:
            for g in range(pe):
                for l in range(pe):
                    scan = oracles.quad_cong_roots_scan(g, l, pe)
                    assert arith.quad_cong_roots(g, l, pe) == scan
                    assert arith.quad_cong_count(g, l, pe) == scan[0]


def _unit(rng, k):
    while True:
        x = int(rng.integers(1, k))
        if math.gcd(x, k) == 1:
            return x


def test_quad_roots_match_the_scan_on_long_lifts():
    # moduli near 2^21, where the 2-adic loop and Hensel doubling take many
    # steps.  Per prime p^e of k, s = v_p(g) <= v = v_p(l) are drawn from
    # 0..min(6, e-1), v - s of either parity at the first prime, and l/g is
    # a unit square times p^(v-s), so an even v - s has roots.  Draws whose
    # count bound prod 4*p^((s+v)/2) passes 2^12 are redrawn.
    rng = np.random.default_rng(2004)
    for k in (2**21, 3**13, 5**9, 7**7, 1447**2, 2**10 * 3**6):
        fac = arith.factorize(k)
        p0, e0 = fac[0]
        u, x0 = _unit(rng, k), _unit(rng, k)
        cases = [(u, u * x0 * x0 % k),                     # units: a full lift
                 (p0 * _unit(rng, k), 0),                  # p^e | l
                 (p0**e0 * _unit(rng, k), _unit(rng, k))]  # g = 0 mod p^e
        for parity in (0, 1):
            bound = 4097
            while bound > 4096:
                u, x0 = _unit(rng, k), _unit(rng, k)
                g, l, bound = u, u * x0 * x0, 1
                for p, e in fac:
                    top = min(6, e - 1)
                    s, v = sorted(rng.integers(0, top + 1, 2).tolist())
                    if p == p0 and (v - s) % 2 != parity:
                        v += 1 if v < top else -1
                    g, l = g * p**s, l * p**v
                    bound *= 4 * p ** ((s + v) // 2)
            cases.append((g % k, l % k))
        for g, l in cases:
            scan = oracles.quad_cong_roots_scan(g, l, k)
            assert scan[0] <= 4096
            assert arith.quad_cong_roots(g, l, k) == scan
            assert arith.quad_cong_count(g, l, k) == scan[0]


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


def test_unsolvable_congruences_list_no_unit_roots(monkeypatch):
    # _split decides solvability for every prime power before any is
    # listed: a congruence without roots never reaches _unit_sqrt
    calls = []
    unit_sqrt = arith._unit_sqrt

    def counted(*args):
        calls.append(args)
        return unit_sqrt(*args)

    monkeypatch.setattr(arith, "_unit_sqrt", counted)
    unsolvable = 0
    for k in range(1, 65):
        for g in range(k):
            for l in range(k):
                before = len(calls)
                got = arith.quad_cong_roots(g, l, k)
                if oracles.quad_cong_roots_scan(g, l, k)[0] == 0:
                    unsolvable += 1
                    assert got == (0, []) and len(calls) == before, (g, l, k)
    assert unsolvable > 40000 and calls


def _check_tonelli_shanks(p, avals):
    squares = {x * x % p for x in range(1, p)}
    for a in avals:
        r = arith._tonelli_shanks(a, p)
        assert (r is not None) == (a in squares), (a, p)
        if r is not None:
            assert r * r % p == a, (a, p)


# p - 1 = q * 2^s with s = 4, 5, 6, 8, 9, 12: the squaring loop runs deep;
# 7, 11, 19, 1019 and 10007 are 3 mod 4, where a non-residue's candidate fails
@pytest.mark.parametrize("p", [17, 97, 193, 257, 7681, 12289, 7, 11, 19, 1019, 10007])
def test_tonelli_shanks_roots_exactly_the_residues(p):
    _check_tonelli_shanks(p, range(1, p))


def test_tonelli_shanks_on_a_sample_mod_65537():
    # p - 1 = 2^16: every non-residue has order 2^16 and is a generator
    rng = np.random.default_rng(65537)
    _check_tonelli_shanks(65537, [1, 2, 3, 65536] + rng.integers(1, 65537, 3000).tolist())


@pytest.mark.parametrize("dtype", [np.int64, np.int32])
def test_quad_roots_take_numpy_integers(dtype):
    # numpy scalars as g, l and k give the Python-int results, also
    # through square_class_count, which keys its kept vector on Python ints
    for k in (1, 2, 8, 9, 12, 25, 97, 360):
        for g in (-3, 0, 1, 3, 4, 12):
            for l in (-1, 0, 1, 5, 9, 36):
                want = arith.quad_cong_roots(g, l, k)
                got = arith.quad_cong_roots(dtype(g), dtype(l), dtype(k))
                assert got == want
                assert all(type(x) is int for x in got[1])
                assert arith.quad_cong_count(dtype(g), dtype(l), dtype(k)) == want[0]
        for t in (1, 2, 12):
            assert moduli.square_class_count(dtype(t), dtype(k), dtype(5)) == \
                moduli.square_class_count(t, k, 5)
