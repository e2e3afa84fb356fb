"""Moduli set builders, dilation, square residue profiles, Farey lists."""

import hashlib
import math
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import numpy.random  # numpy loads it lazily: loaded here, no traced call counts it
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sievelab import moduli, oracles, util
from sievelab import (derive_subset, enumerate_farey, eval_exp_sum, explicit_moduli,
                      gauss_sum, gauss_sum_row, make_sequence, moduli_from_file,
                      primes_up_to_set, sequence_from_file, sieve_lhs,
                      square_class_count, square_divisor_profile,
                      squares_in_octave, squares_up_to)
from sievelab.arith import quad_cong_count
from sievelab.errors import (CapacityError, EmptyModuliWarning, OutOfRangeError,
                             SequenceFileError)
from sievelab.moduli import FareySlabs, build_moduli_set
from sievelab.sequences import pass_bytes
from sievelab.util import seeded_rng

FIXTURES = Path(__file__).parent / "fixtures"


def test_squares_up_to_layout():
    s = squares_up_to(5)
    assert s.elements.tolist() == [1, 4, 9, 16, 25]
    assert s.M == 0.0 and s.Q == 25.0
    assert s.kind == "squares_up_to" and s.param == 5.0
    assert len(s) == 5


def test_octave_contains_exactly_the_straddling_squares():
    assert squares_in_octave(50).elements.tolist() == [64, 81, 100]
    with pytest.warns(EmptyModuliWarning):
        assert squares_in_octave(4).elements.tolist() == []
    assert squares_in_octave(4.5).elements.tolist() == [9]
    assert squares_in_octave(5).elements.tolist() == [9]
    s = squares_in_octave(10**6)
    el = s.elements
    assert np.all(el > 10**6) and np.all(el <= 2 * 10**6)
    roots = np.sqrt(el.astype(float)).round().astype(np.int64)
    assert np.array_equal(roots * roots, el)


def _octave_by_loop(q0):
    """The squares in (q0, 2*q0], one candidate root at a time."""
    out, c = [], max(1, math.isqrt(math.floor(q0)))
    while c * c <= 2 * q0:
        if c * c > q0:
            out.append(c * c)
        c += 1
    return out


def test_octave_closed_form_equals_the_loop():
    grid = [k / 4 for k in range(1, 12001)]
    grid += [1e-300, 0.5, 0.999999, 4.0000001, 1e13 + 0.5, 123456789.75]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptyModuliWarning)
        for q0 in grid:
            assert squares_in_octave(q0).elements.tolist() == _octave_by_loop(q0), q0


@pytest.mark.parametrize("build, count", [
    (lambda: squares_up_to(3037000499), 3037000499),
    (lambda: squares_up_to(16 * 10**7 + 1), 16 * 10**7 + 1),
    (lambda: squares_in_octave(2.0**61), 628983399),
], ids=["up-to-int64", "up-to-cap", "octave-2^61"])
def test_square_sets_past_capacity_are_refused_before_allocating(build, count):
    start = time.perf_counter()
    with pytest.raises(CapacityError, match=f"needs {count} moduli"):
        build()
    assert time.perf_counter() - start < 1.0


def test_primes_set():
    s = primes_up_to_set(12)
    assert s.elements.tolist() == [2, 3, 5, 7, 11]
    assert s.M == 0.0 and s.Q == 12.0


def test_explicit_set_defaults_interval_to_data():
    s = explicit_moduli([7, 3, 10])
    assert s.elements.tolist() == [3, 7, 10]
    assert s.M == 0.0 and s.Q == 10.0
    assert s.param is None


def test_empty_set_warns():
    with pytest.warns(EmptyModuliWarning):
        explicit_moduli([], span=4.0)
    with pytest.warns(EmptyModuliWarning):
        squares_in_octave(1.5)


def test_moduli_file_round_trip(tmp_path):
    p = tmp_path / "mods.txt"
    p.write_text("4\n9\n\n25\n", encoding="utf-8")
    s = moduli_from_file(str(p), M=2.0)
    assert s.elements.tolist() == [4, 9, 25]
    assert s.M == 2.0 and s.Q == 23.0  # the interval ends at the largest modulus
    with pytest.raises(SequenceFileError):
        moduli_from_file(str(tmp_path / "absent.txt"))


def test_build_moduli_set_dispatch():
    assert build_moduli_set("squares_up_to", q=3).elements.tolist() == [1, 4, 9]
    for kind in ("nope", "explicit"):  # an explicit list is explicit_moduli's
        with pytest.raises(ValueError):
            build_moduli_set(kind, elements=[2, 3])


def test_derive_subset_divides_out_the_factor():
    s = explicit_moduli([4, 8, 9, 12], span=12.0)
    assert derive_subset(s, 4).elements.tolist() == [1, 2, 3]
    assert derive_subset(s, 3).elements.tolist() == [3, 4]
    assert derive_subset(s, 1).elements.tolist() == [4, 8, 9, 12]
    assert derive_subset(s, 5).elements.tolist() == []
    assert derive_subset(squares_up_to(3), 2).elements.tolist() == [2]


def test_moduli_and_farey_lists_compare_and_hash_by_identity():
    for make in (lambda: squares_up_to(3), lambda: enumerate_farey(squares_up_to(3))):
        a, b = make(), make()
        assert a == a and a != b and not (a == b)
        assert hash(a) == hash(a)
        assert {a, b, a} == {a, b}


def test_square_divisor_profile_known_values():
    assert square_divisor_profile(1) == (1, 1)
    assert square_divisor_profile(2) == (2, 2)
    assert square_divisor_profile(4) == (2, 1)
    assert square_divisor_profile(8) == (4, 2)
    assert square_divisor_profile(12) == (6, 3)
    assert square_divisor_profile(49) == (7, 1)
    assert square_divisor_profile(18) == (6, 2)


@pytest.mark.parametrize("first", [int, np.int64, np.int32])
def test_square_divisor_profile_cache_is_shared_by_numpy_and_python_ints(first):
    moduli._profile.cache_clear()
    got = [square_divisor_profile(first(72)), square_divisor_profile(72),
           square_divisor_profile(np.int64(72))]
    assert got == [(12, 2)] * 3
    assert all(type(v) is int for prof in got for v in prof)
    info = moduli._profile.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


@given(st.integers(1, 20000))
def test_square_divisor_profile_defining_property(t):
    f, g = square_divisor_profile(t)
    assert f >= 1 and g >= 1
    assert f * f == g * t
    # minimality: no proper divisor of f has t dividing its square
    for d in range(1, f):
        if f % d == 0:
            assert (d * d) % t != 0


def test_square_class_count_small_cases():
    # x^2 mod 4 hits 0 (x=0,2) and 1 (x=1,3)
    assert square_class_count(1, 4, 0) == 2
    assert square_class_count(1, 4, 1) == 2
    assert square_class_count(1, 4, 2) == 0
    assert square_class_count(1, 4, 3) == 0
    # with g=2 (t=2) the image is doubled squares
    assert square_class_count(2, 4, 2) == 2
    assert square_class_count(2, 4, 1) == 0


@given(st.integers(1, 200), st.integers(1, 60))
def test_square_class_count_totals_to_modulus(t, k):
    total = sum(square_class_count(t, k, l) for l in range(k))
    assert total == k


def test_square_class_counts_equal_a_full_scan():
    # every l mod k <= 100 for every t <= 40, against the scan oracle and
    # the closed-form count; the scan is taken once for each (g, k)
    scans = {}
    for t in range(1, 41):
        g = square_divisor_profile(t)[1]
        for k in range(1, 101):
            if (g, k) not in scans:
                scans[g, k] = [oracles.quad_cong_roots_scan(g, l, k)[0] for l in range(k)]
                assert [quad_cong_count(g, l, k) for l in range(k)] == scans[g, k]
            assert [square_class_count(t, k, l) for l in range(k)] == scans[g, k]
            vector = moduli._class_counts(g, k)
            assert not vector.flags.writeable and vector.tolist() == scans[g, k]


def test_class_counts_of_numpy_and_python_ints_share_one_entry():
    cache = moduli._class_counts
    cache.cache_clear()
    got = [square_class_count(np.int64(12), np.int32(30), np.int64(l)) for l in range(30)]
    assert cache.cache_info().misses == 1
    # t = 12 and t = 3 have the same g = 3; l may be any integer
    assert [square_class_count(3, 30, l + 30) for l in range(30)] == got
    assert square_class_count(12, 30, -27) == got[3]
    info = cache.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 60, 1)
    assert all(type(n) is int for n in got)


def test_class_counts_refuse_a_modulus_past_capacity_before_building():
    k = util.CAPACITY + 1
    moduli._class_counts.cache_clear()
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=f"square class counts needs {k} classes"):
            square_class_count(1, k, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    assert square_class_count(1, 4, 1) == 2


def test_dilated_squares_follow_the_profile():
    s = squares_up_to(30)  # squares <= 900
    for t in (1, 2, 3, 4, 8, 9, 12, 25):
        f, g = square_divisor_profile(t)
        got = derive_subset(s, t).elements.tolist()
        want = [m * m * g for m in range(1, 30 // f + 1)]
        assert got == want


def test_farey_list_is_sorted_and_complete():
    s = explicit_moduli([2, 3, 4])
    fl = enumerate_farey(s)
    vals = [(int(a), int(q)) for a, q in zip(fl.numerators, fl.denominators)]
    assert len(fl) == 1 + 2 + 2  # phi(2) + phi(3) + phi(4)
    assert (1, 4) in vals and (3, 4) in vals and (1, 2) in vals
    assert all(math.gcd(a, q) == 1 for a, q in vals)
    assert np.all(np.diff(fl.values) > 0)
    assert fl.values[-1] == 0.75


def test_modulus_one_contributes_the_full_turn():
    fl = enumerate_farey(explicit_moduli([1, 2]))
    assert fl.values.tolist() == [0.5, 1.0]


def test_farey_capacity_guard(monkeypatch):
    s = squares_up_to(40)
    monkeypatch.setattr(util, "CAPACITY", 10 * 58)
    with pytest.raises(CapacityError):
        enumerate_farey(s)


def test_farey_values_match_fraction_data():
    s = explicit_moduli([5])
    fl = enumerate_farey(s)
    assert fl.values.tolist() == [1 / 5, 2 / 5, 3 / 5, 4 / 5]
    assert fl.denominators.tolist() == [5] * 4
    assert enumerate_farey(explicit_moduli([1])).values.tolist() == [1.0]
    assert enumerate_farey(explicit_moduli([4])).values.tolist() == [0.25, 0.75]


def test_farey_capacity_refused_before_allocating():
    # sum of phi(q^2) = q * phi(q) over q <= 2000, refused before any fraction
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="needs 1622607695 fractions"):
        enumerate_farey(squares_up_to(2000))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("call, count, need, bounds_peak", [
    (lambda: squares_up_to(10**5), "100000 moduli", 10**5 * 10, True),
    (lambda: squares_in_octave(1e12), "414213 moduli", 414213 * 10, True),
    # q + 1 slots of 1 byte, 8 bytes for each of < 1.25506 q / ln q primes
    (lambda: primes_up_to_set(10**6), "1000001 slots", 1726756, True),
    (lambda: primes_up_to_set(10**4), "10001 slots", 20904, True),
    (lambda: enumerate_farey(squares_up_to(100)), "203085 fractions", 203085 * 50, True),
    # the widest fold of squares to 8 is 36's, at 36 * ceil(1024 / 36) = 1044,
    # with a piece of the 64 coefficients.  The peak goes unchecked: only
    # the widest fold is reserved, and sieve_lhs budgets its folds by batching
    (lambda: sieve_lhs(make_sequence("ones", 64), squares_up_to(8), threads=2),
     "2088 fold entries and a piece", 2088 * 16 + pass_bytes(64, 2), False),
    (lambda: make_sequence("ones", 1001).values, "1001 coefficients and a piece",
     1001 * 16 + pass_bytes(1001, 0), True),
    # two pieces of 2^16 terms at 24 bytes a term
    (lambda: eval_exp_sum(make_sequence("random_phases", 2**17), 0.3),
     "65536 terms and a piece", 65536 * 24 + pass_bytes(2**17, 0), True),
    (lambda: gauss_sum(1, 0, 10**6 + 3), "1000003 terms", 1000003 * 41, True),
    (lambda: gauss_sum_row(1, 10**6 + 3), "1000003 terms", 1000003 * 41, True),
    (lambda: sequence_from_file("seq.txt"), "1001 coefficients and the reader's buffers",
     1001 * 16 + util._READER_BYTES, True),
    (lambda: moduli_from_file("mods.txt"), "100000 moduli and the reader's buffers",
     10**5 * 9 + util._READER_BYTES, True),
    (lambda: moduli_from_file("mods1k.txt"), "1000 moduli and the reader's buffers",
     1000 * 9 + util._READER_BYTES, True),
], ids=["squares", "octave", "primes", "primes-small", "farey", "sieve-sum", "values",
        "exp-sum", "gauss-sum", "gauss-row", "file-sequence", "file-moduli", "file-moduli-1k"])
def test_one_byte_capacity_bounds_every_large_allocation(monkeypatch, tmp_path, call, count,
                                                          need, bounds_peak):
    # the file cases read seq.txt here, 1001 rows with blank lines between,
    # and mods.txt and mods1k.txt, 10^5 and 1000 moduli
    monkeypatch.chdir(tmp_path)
    (tmp_path / "seq.txt").write_text("1 0\n\n" * 1001, encoding="utf-8")
    for name, rows in (("mods.txt", 10**5), ("mods1k.txt", 1000)):
        mods = range(10**12, 10**12 + 3 * rows, 3)
        (tmp_path / name).write_text("".join(f"{q}\n" for q in mods), encoding="utf-8")
    monkeypatch.setattr(util, "CAPACITY", need - 1)
    start = time.perf_counter()
    with pytest.raises(CapacityError) as refused:
        call()
    assert time.perf_counter() - start < 1.0
    assert f"needs {count} ({need} bytes), over the {need - 1}-byte capacity" \
        in str(refused.value)
    if bounds_peak:
        monkeypatch.setattr(util, "CAPACITY", need)
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= need


def _random_moduli_sets(cap):
    """Ten seeded random sets of 1 to 39 moduli below cap."""
    rng = seeded_rng(7)
    return [explicit_moduli(set(rng.integers(1, cap, size=int(rng.integers(1, 40))).tolist()))
            for _ in range(10)]


def test_farey_lists_equal_an_independent_gcd_filter():
    # reducedness comes from the striking alone: FareyList does not check it
    for s in [squares_up_to(30)] + _random_moduli_sets(300):
        fl = enumerate_farey(s)
        want = sorted(((a, q) for q in s.elements.tolist() for a in range(1, q + 1)
                       if math.gcd(a, q) == 1), key=lambda f: Fraction(*f))
        assert fl.numerators.tolist() == [a for a, _ in want]
        assert fl.denominators.tolist() == [q for _, q in want]


def test_farey_lists_match_the_pinned_digest():
    # sha256 of every list's numerators, denominators and values, as
    # the gcd-filter and lexsort enumeration built them
    h = hashlib.sha256()
    for s in [squares_up_to(208)] + _random_moduli_sets(3000):
        fl = enumerate_farey(s)
        for arr in (fl.numerators, fl.denominators, fl.values):
            h.update(arr.tobytes())
    assert h.hexdigest() == \
        "42ee6ac5e587711f5605c927b6effc599018ff37389ddfb03ded5cfe729ad9a2"


@pytest.mark.parametrize("size", [1, 97])
def test_small_slabs_concatenate_to_the_list_and_rank_them(monkeypatch, size):
    for s in _random_moduli_sets(100):
        whole = enumerate_farey(s)
        monkeypatch.setattr(moduli, "_FAREY_SLAB", size)
        slabs = FareySlabs(s)
        parts = list(slabs)
        monkeypatch.undo()
        assert len(parts) == len(slabs.edges) - 1
        assert [slabs.rank(b) for b in range(len(parts) + 1)] == \
            np.cumsum([0] + [len(fl) for fl in parts]).tolist()
        assert slabs.rank(len(parts)) == len(slabs) == len(whole)
        for name in ("numerators", "denominators", "values"):
            got = np.concatenate([getattr(fl, name) for fl in parts])
            assert np.array_equal(got, getattr(whole, name))
        for b, fl in enumerate(parts):
            assert np.all((fl.values >= slabs.edges[b]) & (fl.values <= slabs.edges[b + 1]))


@pytest.mark.parametrize("el", [[4, 2**26], [2**26 + 15]])
def test_farey_moduli_past_2_26_are_refused(el):
    # distinct fractions keep distinct floats only while q * q' < 2^52
    with pytest.raises(OutOfRangeError, match="below 2\\^26"):
        FareySlabs(explicit_moduli(el))
    with pytest.raises(OutOfRangeError):
        enumerate_farey(explicit_moduli(el))
    # 2^26 - 1 = 3 * 2731 * 8191 is the largest modulus taken
    assert len(FareySlabs(explicit_moduli([2**26 - 1]))) == 2 * 2730 * 8190


@pytest.mark.parametrize("build", [
    lambda: squares_up_to(2**70),
    lambda: squares_in_octave(math.nan),
    lambda: squares_in_octave(math.inf),
    lambda: primes_up_to_set(2**63),
    lambda: moduli_from_file(str(FIXTURES / "moduli_past_int64.txt")),
], ids=["squares", "octave-nan", "octave-inf", "primes", "file"])
def test_moduli_past_int64_are_refused(build):
    with pytest.raises(OutOfRangeError):
        build()


@pytest.mark.parametrize("M, span", [(math.nan, None), (math.inf, None), (0.0, math.nan),
                                     (0.0, math.inf), (math.nan, math.nan)])
def test_an_interval_outside_the_finite_floats_is_refused(M, span):
    with pytest.raises(OutOfRangeError, match="finite"):
        explicit_moduli([4, 9, 25], M=M, span=span)
