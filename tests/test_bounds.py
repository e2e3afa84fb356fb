"""Sieve sums, the window bracket, crowding shapes, and the shape registry."""

import json
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievelab import (SHAPE_NAMES, BoundReport, WindowQuery, bound_shapes,
                      build_report, crowding_shape_estimates, derive_subset,
                      explicit_moduli, farey_crowding_shape, make_sequence,
                      primes_up_to_set, sieve_bracket, sieve_lhs,
                      squares_in_octave, squares_up_to)
from sievelab.errors import (CapacityError, InvalidRegimeError,
                             NotCoprimeError, OutOfRangeError,
                             ShapeDomainError)
from sievelab import oracles
from sievelab.arith import divisors, factorize, mod_inv
from sievelab import bounds as bounds_mod
from sievelab.bounds import _grid_z, _signed_class_counts
from sievelab.util import seeded_rng


def _quiet_empty(span):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return explicit_moduli([], span=span)


# ------------------------------------------------------------- sieve sums

def test_lhs_single_fraction():
    seq = make_sequence("ones", 2)
    assert sieve_lhs(seq, explicit_moduli([1])) == 4.0


def test_lhs_cancellation_is_exact():
    seq = make_sequence("ones", 2)
    assert sieve_lhs(seq, explicit_moduli([2])) == 0.0


def test_lhs_delta_counts_totients():
    seq = make_sequence("delta", 8, n0=5)
    s = explicit_moduli([2, 3, 4, 5])
    assert sieve_lhs(seq, s) == pytest.approx(1 + 2 + 2 + 4, abs=1e-9)


def test_lhs_matches_naive_oracle():
    rng = seeded_rng(7)
    for trial in range(8):
        n = int(rng.integers(2, 40))
        seq = make_sequence("random_phases", n, seed=trial)
        el = sorted(set(int(x) for x in rng.integers(1, 30, size=6)))
        s = explicit_moduli(el, span=30.0)
        fast = sieve_lhs(seq, s)
        slow = oracles.naive_sieve_lhs(seq, s)
        assert fast == pytest.approx(slow, rel=1e-9, abs=1e-9)


def test_lhs_thread_count_does_not_change_bytes():
    seq = make_sequence("random_phases", 300, seed=3)
    s = squares_up_to(6)
    assert sieve_lhs(seq, s, threads=1) == sieve_lhs(seq, s, threads=8)


def test_lhs_capacity_gate():
    seq = make_sequence("ones", 4)
    s = explicit_moduli([10**5, 2 * 10**5], span=2 * 10**5)
    with pytest.raises(CapacityError):
        sieve_lhs(seq, s, capacity=10**5)


def _ramanujan_sum(q: int, h: int) -> int:
    """c_q(h) = sum over d | gcd(q, h) of mu(q/d) * d."""
    total = 0
    for d in divisors(math.gcd(q, h)):
        fac = factorize(q // d)
        if all(e == 1 for _, e in fac):
            total += (-1) ** len(fac) * d
    return total


def _ramanujan_lhs(values, qs) -> int:
    """Exact sieve sum of a real integer sequence: sum over q of
    sum_h c_q(h) R(h), R(h) = sum_n a_{n+h} a_n the autocorrelation."""
    a = np.asarray(values.real, dtype=np.int64)
    n = a.size
    r = np.correlate(a, a, "full").tolist()  # R(h) for h = 1-n .. n-1
    total = 0
    for q in qs:
        c = [_ramanujan_sum(q, h) for h in range(q)]
        total += sum(c[h % q] * r[h + n - 1] for h in range(1 - n, n))
    return total


@pytest.mark.parametrize("kind, n, moduli", [
    ("ones", 1, [1, 7, 12, 2310]),
    ("random_signs", 5, [1, 2, 3, 97, 2310]),
    ("random_signs", 1000, [2310, 4096]),
    ("ones", 4096, [k * k for k in range(1, 17)]),
    ("random_signs", 4096, [k * k for k in range(1, 17)] + [97, 2310]),
])
def test_lhs_integer_sequences_are_exact(kind, n, moduli):
    seq = make_sequence(kind, n, seed=5)
    exact = _ramanujan_lhs(seq.values, moduli)
    assert exact < 2**53
    assert sieve_lhs(seq, explicit_moduli(moduli)) == float(exact)


def test_lhs_two_threads_match_one_bit_for_bit():
    s = explicit_moduli([1, 6, 30, 97, 210, 2310, 4096])
    for seq in (make_sequence("random_phases", 5000, seed=1),
                make_sequence("focused", 5000, beta=1 / 3)):
        assert sieve_lhs(seq, s, threads=1) == sieve_lhs(seq, s, threads=2)


def test_lhs_capacity_counts_moduli_in_flight():
    seq = make_sequence("ones", 4)
    s = explicit_moduli([100, 200])
    assert sieve_lhs(seq, s, capacity=200) == sieve_lhs(seq, s)
    with pytest.raises(CapacityError, match="6400 bytes"):
        sieve_lhs(seq, s, threads=2, capacity=200)


# ------------------------------------------------------------ the bracket

def test_bracket_empty_set_gives_bare_length():
    b, shape = sieve_bracket(_quiet_empty(8.0), 32)
    assert b == 0.0
    assert shape == 32.0


def test_bracket_rejects_tiny_n():
    with pytest.raises(OutOfRangeError):
        sieve_bracket(explicit_moduli([2]), 3)
    with pytest.raises(ValueError):
        sieve_bracket(explicit_moduli([2]), 16, mode="fancy")


def test_bracket_grid_nests_bit_exactly():
    coarse = _grid_z(5, 64, 64)
    fine = _grid_z(5, 64, 4096)
    fine_set = set(fine.tolist())
    assert all(z in fine_set for z in coarse.tolist())


def test_bracket_refinement_never_decreases():
    rng = seeded_rng(11)
    for trial in range(10):
        el = sorted(set(int(x) for x in rng.integers(1, 40, size=7)))
        s = explicit_moduli(el, span=40.0)
        n = int(rng.choice([16, 36, 64, 144]))
        b_coarse, _ = sieve_bracket(s, n, z_grid=64)
        b_fine, _ = sieve_bracket(s, n, z_grid=4096)
        assert b_fine >= b_coarse


def test_bracket_exact_mode_dominates_grid_and_matches_oracle():
    cases = [
        (explicit_moduli([1], span=1.0), 4),
        (explicit_moduli([2, 3], span=3.0), 9),
        (explicit_moduli([2, 5, 6], span=6.0), 16),
        (squares_in_octave(8), 25),
    ]
    for s, n in cases:
        b_exact, shape = sieve_bracket(s, n, mode="exact")
        b_grid, _ = sieve_bracket(s, n, z_grid=512)
        b_oracle, shape_oracle = oracles.bracket_oracle(s, n)
        assert b_exact == b_oracle
        assert shape == shape_oracle
        assert b_grid <= b_exact


def test_bracket_thread_determinism():
    s = squares_in_octave(40)
    assert sieve_bracket(s, 36, z_grid=256, threads=1) == \
        sieve_bracket(s, 36, z_grid=256, threads=4)
    # exact mode runs on the same pool
    assert sieve_bracket(s, 36, mode="exact", threads=1) == \
        sieve_bracket(s, 36, mode="exact", threads=4)


@pytest.mark.parametrize("s, n", [
    (squares_in_octave(1000), 1024),
    (primes_up_to_set(300), 1024),
    (explicit_moduli([3, 7, 8, 12, 19, 20, 27, 31], span=32.0), 576),
], ids=["octave", "primes", "explicit"])
def test_exact_bracket_dominates_a_fine_grid_at_mid_sizes(s, n):
    exact = sieve_bracket(s, n, mode="exact")
    assert sieve_bracket(s, n, mode="exact", threads=2) == exact
    assert sieve_bracket(s, n, z_grid=4096)[0] <= exact[0]


@pytest.mark.parametrize("s, n", [
    (squares_in_octave(100), 256),
    (primes_up_to_set(200), 256),
    (explicit_moduli([3, 7, 8, 12, 19, 20, 27, 31], M=2.0, span=30.0), 576),
], ids=["octave", "primes", "explicit"])
def test_exact_breakpoints_equal_a_loop_over_class_pairs(s, n):
    span = s.Q
    dilates = {t: derive_subset(s, t) for t in range(1, math.isqrt(n) + 1)}
    for r in range(1, math.isqrt(n) + 1):
        z_lo, z_hi = 1.0 / n, 1.0 / (r * math.sqrt(n))
        pts = {z_lo, z_hi}
        for t in divisors(r):
            k = r // t
            jmax = int(math.floor(6.0 * r * z_hi * span / t))
            zs = [j * t / (6.0 * r * span) for j in range(1, jmax + 1)]
            el = [int(q) for q in dilates[t].elements if math.gcd(int(q), k) == 1]
            widths = {float(a - b) for a in el for b in el if a > b and a % k == b % k}
            widths |= {float(a) - s.M / t for a in el if float(a) > s.M / t}
            zs += [2.0 * span / (t * n * w) for w in widths]
            pts |= {z for z in zs if z_lo < z < z_hi}
        zs = sorted(pts)
        want = np.unique(zs + [0.5 * (a + b) for a, b in zip(zs, zs[1:])])
        assert np.array_equal(bounds_mod._exact_z(s, n, r, dilates), want)


def test_exact_breakpoints_allocate_no_pair_matrix():
    s = primes_up_to_set(50000)
    dilates = {t: derive_subset(s, t) for t in range(1, 5)}
    tracemalloc.start()
    try:
        zs = bounds_mod._exact_z(s, 16, 2, dilates)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert zs.size > 0 and np.all(np.diff(zs) > 0)
    assert peak < 20 * 2**20  # the 5133^2 differences of one class take 200 MB


# ------------------------------------------------------- crowding shapes

def test_crowding_shape_floor_is_two():
    assert farey_crowding_shape(_quiet_empty(4.0), 1, 1, 0.2, 0.12) == 2.0


def test_crowding_shape_requires_coprime_inputs():
    s = explicit_moduli([3, 5], span=5.0)
    with pytest.raises(NotCoprimeError):
        farey_crowding_shape(s, 2, 4, 0.1, 0.09)


def test_crowding_shape_regime_gates():
    s = explicit_moduli([3, 5], span=5.0)
    with pytest.raises(InvalidRegimeError):
        farey_crowding_shape(s, 1, 2, 0.3, 0.6)  # delta beyond 1/2
    with pytest.raises(InvalidRegimeError):
        farey_crowding_shape(s, 1, 2, 0.05, 0.2)  # z below delta
    with pytest.raises(InvalidRegimeError):
        farey_crowding_shape(s, 1, 2, 0.9, 0.25)  # z above sqrt(delta)/r


def test_crowding_shape_counts_windows_by_hand():
    s = explicit_moduli([2, 3, 4, 5, 6], span=6.0)
    # r = 1 collapses to one divisor t = 1 with k = 1: every signed m up
    # to floor(6*z*Q) = 10 contributes the full-window count 5, so the
    # value is 2 + 20 * 5
    assert farey_crowding_shape(s, 1, 1, 0.3, 0.2) == 102.0


def test_crowding_single_element_probe():
    # m ranges over {-1, 1}; each window of length 0.5 holds the element
    one = explicit_moduli([1])
    assert farey_crowding_shape(one, 1, 1, 0.25, 1 / 16) == 4.0


@pytest.mark.parametrize("b, r", [(5, 12), (7, 12), (11, 30), (1, 30), (3, 8)])
def test_crowding_shape_equals_loop_over_frequencies(b, r):
    # uneven classes and windows narrower than a class, so both the
    # class each frequency meets and the window width matter
    rng = seeded_rng(r * 100 + b)
    el = rng.choice(np.arange(1001, 3001), size=300, replace=False)
    s = explicit_moduli(el, M=1000.0, span=2000.0)
    delta = 1e-6
    z = 0.9 * math.sqrt(delta) / r
    want = 2.0
    for t in divisors(r):
        k = r // t
        st_ = derive_subset(s, t)
        u = 2.0 * delta * s.Q / (t * z)
        m_max = int(math.floor(6.0 * r * z * s.Q / t))
        bbar = mod_inv(b % k, k)
        for m in range(-m_max, m_max + 1):
            if m != 0 and math.gcd(m, k) == 1:
                q = WindowQuery(u, k, (-bbar * m) % k, t)
                want += oracles.count_window_oracle(st_, q, s.M, s.Q)
    assert farey_crowding_shape(s, b, r, z, delta) == want


@settings(max_examples=60, deadline=None)
@given(st.floats(0.01, 0.5), st.data())
def test_estimate_merge_facts(delta, data):
    r = data.draw(st.integers(1, max(1, int(1 / math.sqrt(delta)))))
    q0 = data.draw(st.floats(4.0, 1e5))
    zb = math.sqrt(delta) * q0**-0.25 * r**-0.75
    balanced = min(q0 * r * zb, math.sqrt(q0) * delta / (math.sqrt(r) * zb))
    assert balanced <= q0**0.75 * delta**0.375 * (1 + 1e-12)
    assert q0**0.75 * delta**0.375 <= q0**1.5 * delta + delta**-0.25 + 1e-12


def test_estimates_expose_all_four_routes():
    est = crowding_shape_estimates(2, 0.12, 0.09, q0=50.0, s_count=7.0, x=1.0)
    assert set(est) == {"well_distributed", "window_route", "fourier_route",
                        "combined"}
    assert all(v > 0 for v in est.values())
    damped = crowding_shape_estimates(2, 0.12, 0.09, q0=50.0, s_count=7.0,
                                      x=1.0, eps=0.1)
    assert damped["combined"] > est["combined"]
    with pytest.raises(InvalidRegimeError):
        crowding_shape_estimates(2, 0.2, 0.09, q0=50.0, s_count=7.0, x=1.0)


def test_well_distributed_floor_for_an_empty_probe():
    # no elements and no distribution factor leave only the constant term
    est = crowding_shape_estimates(2, 0.12, 0.09, q0=50.0, s_count=0.0,
                                   x=0.0)
    assert est["well_distributed"] == 1.0


# ---------------------------------------------------------------- shapes

def test_registry_is_fixed_and_ordered():
    assert SHAPE_NAMES == ("classical", "single_modulus", "squares_classical",
                           "squares_summed", "zhao", "zhao_conjecture",
                           "sparse_ap", "squares_refined", "squares_fourier",
                           "elliott", "wolke")


def test_shape_spot_values():
    sh = bound_shapes(4, 3)
    assert sh["classical"] == 13.0
    assert sh["single_modulus"] == 13.0
    assert sh["squares_classical"] == 4 + 81.0
    assert bound_shapes(16, 2)["squares_summed"] == 40.0
    assert bound_shapes(4096, 32)["squares_fourier"] == pytest.approx(32768.0)
    assert bound_shapes(4096, 33)["squares_fourier"] == pytest.approx(33.0**3)


def test_shape_domain_gates():
    sh = bound_shapes(100, 5)
    assert "wolke" not in sh
    assert "elliott" not in sh  # needs a moduli count
    assert "sparse_ap" not in sh  # needs the distribution parameter
    sh = bound_shapes(100, 5, s_count=3, x=2.0)
    assert sh["elliott"] == 100 + 5 * 3
    assert "sparse_ap" in sh
    w = bound_shapes(10**6, 10**4)
    assert "wolke" in w
    delta = math.log(10**6) / math.log(10**4) - 1
    want = 10**8 * math.log(math.log(10**4)) / ((1 - delta) * math.log(10**4))
    assert w["wolke"] == pytest.approx(want)


def test_missing_required_shape_raises():
    with pytest.raises(ShapeDomainError):
        bound_shapes(100, 5, require=("elliott",))
    sh = bound_shapes(100, 5, s_count=3, require=("elliott",))
    assert "elliott" in sh


def test_shapes_reject_nonsense():
    with pytest.raises(OutOfRangeError):
        bound_shapes(0, 3)
    with pytest.raises(OutOfRangeError):
        bound_shapes(4, -1.0)


def test_epsilon_inflates_shapes_continuously():
    plain = bound_shapes(10**4, 30)["zhao"]
    puffed = bound_shapes(10**4, 30, eps=0.05)["zhao"]
    assert puffed > plain


# ---------------------------------------------------------------- report

def test_report_fields_and_serialization():
    seq = make_sequence("random_signs", 64, seed=2)
    s = squares_up_to(3)
    rep = build_report(seq, s)
    assert rep.N == 64 and rep.Q == 3.0
    assert rep.Z == 64.0
    for name, val in rep.shapes.items():
        assert rep.ratios[name] == pytest.approx(rep.lhs / (val * rep.Z))
    parsed = json.loads(rep.to_json())
    assert parsed["N"] == 64
    assert parsed["shapes"]["classical"] == rep.shapes["classical"]
    assert set(parsed) == {"N", "Q", "Q0", "Z", "lhs", "shapes", "ratios",
                           "epsilon", "X"}


def test_report_csv_rows_follow_the_registry_order():
    rep = BoundReport(N=4, Q=1.0, Q0=None, Z=1.0, lhs=4.0,
                      shapes={"classical": 13.0}, ratios={"classical": 4 / 13})
    rows = rep.csv_rows()
    assert rows[0] == ["name", "value", "ratio"]
    assert rows[1] == ["classical", "13", "0.30769230769230771"]
    assert len(rows) == 2


def test_report_rejects_inconsistent_ratios():
    with pytest.raises(ValueError):
        BoundReport(N=4, Q=1.0, Q0=None, Z=1.0, lhs=4.0,
                    shapes={"classical": 13.0}, ratios={"classical": 0.9})


def test_report_octave_sets_record_their_left_edge():
    seq = make_sequence("ones", 16)
    rep = build_report(seq, squares_in_octave(30))
    assert rep.Q0 == 30.0


@pytest.mark.parametrize("s", [squares_up_to(3), squares_in_octave(30)],
                         ids=["squares", "octave"])
@pytest.mark.parametrize("s_count", [None, 0])
def test_report_without_a_sequence_holds_the_same_shapes(s, s_count):
    seq = make_sequence("ones", 64)
    measured = build_report(seq, s, s_count=s_count, x=1.0)
    bare = build_report(None, s, n=64, s_count=s_count, x=1.0)
    assert bare.shapes == measured.shapes
    assert (bare.N, bare.Q, bare.Q0) == (measured.N, measured.Q, measured.Q0)
    assert (bare.Z, bare.lhs) == (1.0, 0.0)
    assert set(bare.ratios) == set(bare.shapes)
    assert set(bare.ratios.values()) == {0.0}


def test_grid_z_equals_the_fraction_form():
    n, r = 4096, 7
    z_lo, z_hi = 1.0 / n, 1.0 / (r * math.sqrt(n))
    for g in range(2, 257):
        want = [z_lo * (z_hi / z_lo) ** float(Fraction(j, g - 1)) for j in range(g)]
        assert _grid_z(r, n, g).tolist() == want
    # float(Fraction(j, d)) is the reduced numerator over the reduced
    # denominator in int true division; both quotients are correctly
    # rounded values of one rational, so j / d must equal it
    for g in range(2, 4097):
        d, j = g - 1, np.arange(g)
        common = np.gcd(j, d)
        assert np.array_equal(j / d, (j // common) / (d // common))
        assert j[-1] / d == float(Fraction(int(j[-1]), d))


def test_signed_class_counts_equal_a_loop_over_m():
    for k in range(1, 31):
        m_max = np.arange(0, 75)
        got = _signed_class_counts(m_max, k)
        assert got.shape == (k, m_max.size)
        for col, mm in enumerate(m_max.tolist()):
            want = [0] * k
            for m in range(-mm, mm + 1):
                if m != 0:
                    want[m % k] += 1
            assert got[:, col].tolist() == want


@pytest.mark.parametrize("s, n, z_grid", [
    (squares_in_octave(1000), 4096, 8),
    (primes_up_to_set(300), 4096, 3),
    # dense: most classes mod small k are nonempty
    (explicit_moduli([2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15, 17, 18, 19, 21, 22, 23,
                      25, 26, 27, 29, 30, 31, 33, 34, 35, 37, 38, 39], span=40.0),
     2500, 4),
], ids=["octave", "primes", "dense"])
def test_grid_bracket_equals_per_h_oracle(s, n, z_grid):
    want = oracles.grid_bracket_oracle(s, n, z_grid)
    assert sieve_bracket(s, n, z_grid=z_grid) == want
    assert sieve_bracket(s, n, z_grid=z_grid, threads=2) == want


def test_bracket_h_chunks_do_not_change_b(monkeypatch):
    s = primes_up_to_set(300)
    whole = sieve_bracket(s, 4096, z_grid=8)
    monkeypatch.setattr(bounds_mod, "_BRACKET_CHUNK", 1)
    assert sieve_bracket(s, 4096, z_grid=8) == whole


def test_shapes_refuse_values_outside_the_floats():
    for eps in (1e300, -1e300, math.inf, math.nan):
        with pytest.raises(OutOfRangeError):
            bound_shapes(1024, 8, eps=eps)
