"""Sieve sums, the window bracket, crowding shapes, and the shape registry."""

import concurrent.futures
import json
import math
import re
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievelab import (SHAPE_NAMES, BoundReport, CoefficientSequence,
                      WindowQuery, bound_shapes,
                      build_report, crowding_shape_estimates, derive_subset,
                      explicit_moduli, farey_crowding_shape, make_sequence,
                      primes_up_to_set, sieve_bracket, sieve_lhs,
                      squares_in_octave, squares_up_to)
from sievelab.errors import (CapacityError, InvalidRegimeError,
                             NotCoprimeError, OutOfRangeError)
from sievelab import oracles
from sievelab.arith import divisors, factorize, mod_inv
from sievelab import bounds as bounds_mod
from sievelab import counting, sequences, util
from sievelab.bounds import _grid_z
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


def test_lhs_capacity_gate(monkeypatch):
    seq = make_sequence("ones", 4)
    s = explicit_moduli([10**5, 2 * 10**5], span=2 * 10**5)
    monkeypatch.setattr(util, "CAPACITY", 16 * 10**5)
    with pytest.raises(CapacityError):
        sieve_lhs(seq, s)


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


def test_lhs_capacity_counts_moduli_in_flight(monkeypatch):
    seq = make_sequence("ones", 4)
    s = explicit_moduli([100, 200])
    whole = sieve_lhs(seq, s)
    # 200 hosts itself at the width 200 * ceil(1024 / 200) = 1200, and a
    # piece of the four coefficients rides with it
    monkeypatch.setattr(util, "CAPACITY", 16 * 1200 + sequences.pass_bytes(4, 1))
    assert sieve_lhs(seq, s) == whole
    with pytest.raises(CapacityError, match=f"\\({38400 + sequences.pass_bytes(4, 2)} bytes"):
        sieve_lhs(seq, s, threads=2)


# Several pieces, and a multiple of neither 8 nor the piece length
_STREAM_N = 3 * 2**16 + 12345
# q = 1, 2 and 4 refolded from the hosts 100003 and 70000, hosts 3 and 49
# below the least width, and q past the piece length (70000, 100003)
_STREAM_MODULI = [1, 2, 3, 4, 49, 1024, 43264, 70000, 100003]


def _lattice_fold(values, w, q):
    """The whole-array fold the streamed one must equal bit for bit: the
    whole array folded at its host's width w, then refolded to q."""
    return oracles.direct_fold(values, w).reshape(-1, q).sum(0)


def _stream_sequences():
    rng = seeded_rng(11)
    n = _STREAM_N
    explicit = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return [make_sequence("ones", n), make_sequence("delta", n, n0=2**16 + 3),
            make_sequence("random_signs", n, seed=4),
            make_sequence("random_phases", n, seed=4),
            make_sequence("focused", n, beta=1 / 3),
            CoefficientSequence(explicit)]


@pytest.mark.parametrize("seq", _stream_sequences(),
                         ids=["ones", "delta", "random_signs", "random_phases",
                              "focused", "explicit"])
def test_streamed_pass_equals_the_whole_array_bit_for_bit(seq):
    s = explicit_moduli(_STREAM_MODULI)
    lhs = sieve_lhs(seq, s)
    z = seq.Z  # taken during the pass above
    values = seq.values
    assert z == float(np.sum(np.abs(values) ** 2))
    lattice = bounds_mod._lattice(_STREAM_MODULI)
    assert list(lattice) == [1024, 1026, 1029, 43264, 70000, 100003]
    folds = bounds_mod._folds(seq, lattice)
    want = {}
    for w, riders in lattice.items():
        for q in riders:
            want[q] = _lattice_fold(values, w, q)
            got = bounds_mod._refold(folds[w], q)
            assert np.array_equal(got.view(np.float64), want[q].view(np.float64))
    total = 0.0
    for q in _STREAM_MODULI:
        total += bounds_mod._modulus_term(want[q])
    assert lhs == total


def test_streamed_pass_is_the_same_at_two_threads():
    s = explicit_moduli(_STREAM_MODULI)
    for seq in _stream_sequences()[2:]:
        assert sieve_lhs(seq, s, threads=1) == sieve_lhs(seq, s, threads=2)


def test_streamed_pass_holds_under_thread_stress():
    # more workers than cores, switching threads as often as possible
    s = explicit_moduli(_STREAM_MODULI)
    seq = make_sequence("random_phases", _STREAM_N, seed=9)
    want = sieve_lhs(seq, s)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = sieve_lhs(seq, s, threads=5)
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_batched_passes_equal_one_pass(monkeypatch):
    s = explicit_moduli(_STREAM_MODULI)
    held = sum(_STREAM_MODULI)
    for seq in _stream_sequences()[3:]:
        whole = sieve_lhs(seq, s)
        # the folds of a pass get what its piece leaves of the capacity
        piece = sequences.pass_bytes(seq.N, 1)
        with monkeypatch.context() as m:
            m.setattr(util, "CAPACITY", 16 * (held - 1) + piece)
            assert sieve_lhs(seq, s) == whole  # two batches
            m.setattr(util, "CAPACITY", 16 * 100003 + piece)
            assert sieve_lhs(seq, s) == whole
            m.setattr(util, "CAPACITY", 16 * 2 * 100003 + sequences.pass_bytes(seq.N, 2))
            assert sieve_lhs(seq, s, threads=2) == whole


def test_sieve_sum_memory_is_bounded_by_the_piece():
    seq = make_sequence("random_phases", 2**22)  # values alone: 64 MB
    tracemalloc.start()
    try:
        sieve_lhs(seq, squares_up_to(8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("kind, kw", [("ones", {}), ("delta", {"n0": 7}), ("random_signs", {}),
                                      ("random_phases", {}), ("focused", {"beta": 0.3})],
                         ids=["ones", "delta", "random_signs", "random_phases", "focused"])
def test_sieve_sum_reserves_the_piece_of_its_pass(monkeypatch, kind, kw, threads):
    # 100 hosts itself and 50 at the width 1100, and the first pass's
    # piece, which also takes Z, dwarfs that fold
    s = explicit_moduli([100, 50])
    seq = make_sequence(kind, 70_000, **kw)
    with monkeypatch.context() as m:
        m.setattr(util, "CAPACITY", 0)
        with pytest.raises(CapacityError) as refused:
            sieve_lhs(seq, s, threads=threads)
    need = int(re.search(r"\((\d+) bytes\)", str(refused.value)).group(1))
    tracemalloc.start()
    try:
        sieve_lhs(seq, s, threads=threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need + 16 * 1100


def _brute_hosts(qs):
    return {q: max(m for m in qs if m % q == 0) for q in qs}


@pytest.mark.parametrize("s", [squares_up_to(1), squares_up_to(8), squares_up_to(60),
                               squares_in_octave(300), squares_in_octave(5000),
                               primes_up_to_set(2000)],
                         ids=["squares-1", "squares-8", "squares-60", "octave-300",
                              "octave-5000", "primes-2000"])
def test_hosts_follow_the_brute_force_rule(s):
    qs = [int(q) for q in s.elements]
    assert bounds_mod._hosts(qs) == _brute_hosts(qs)
    if s.kind == "squares_up_to":  # c^2 rides with (floor(Q/c)*c)^2
        cap = int(s.param)
        assert all(bounds_mod._hosts(qs)[c * c] == (cap // c * c) ** 2
                   for c in range(1, cap + 1))


def test_hosts_follow_the_brute_force_rule_on_random_sets():
    rng = seeded_rng(23)
    for _ in range(200):
        top = int(rng.integers(1, 5000))
        qs = sorted({int(q) for q in rng.integers(1, top + 1, size=rng.integers(1, 60))})
        assert bounds_mod._hosts(qs) == _brute_hosts(qs)


@pytest.mark.parametrize("qs, hosts", [
    ([int(q) for q in primes_up_to_set(10**6).elements], None),  # each its own host
    ([1, 2, 10**15], {1: 10**15, 2: 10**15, 10**15: 10**15}),
], ids=["primes-1e6", "far-apart"])
def test_hosts_are_found_with_bounded_probes(qs, hosts):
    start = time.perf_counter()
    got = bounds_mod._hosts(qs)
    assert time.perf_counter() - start < 1.0
    assert got == (hosts or {q: q for q in qs})


def test_lattice_widths_are_multiples_of_their_riders():
    lattice = bounds_mod._lattice([int(q) for q in squares_up_to(40).elements])
    assert min(lattice) >= 1024
    assert all(w % q == 0 for w, riders in lattice.items() for q in riders)
    assert bounds_mod._lattice([1]) == {1024: [1]}
    assert bounds_mod._lattice([3, 19]) == {1026: [3, 19]}  # hosts sharing a width


def test_moebius_check_makes_two_library_passes_a_pair(monkeypatch):
    # sieve_lhs's own and the lattice check's; the reference and its
    # tolerance read only the direct fold of the whole array
    from sievelab import verify

    passes, fold = [], sequences._folds

    def folds(*args, **kwargs):
        passes.append(args[1])
        return fold(*args, **kwargs)

    monkeypatch.setattr(bounds_mod, "_folds", folds)
    monkeypatch.setattr(sequences, "_folds", folds)
    res = verify.moebius_checks((1000,), 0, 18)
    assert res.ok
    assert len(passes) == 2 * 8 * 5  # 8 sequences, 3 fixed sets and both paper caps


@pytest.mark.parametrize("threads", [1, 2])
def test_sieve_sum_peak_stays_under_its_reservation(monkeypatch, threads):
    # 24 primes near 60000 host themselves: four folds a batch
    qs = [int(p) for p in util.primes_up_to(61000)[-24:]]
    s = explicit_moduli(qs)
    seq = make_sequence("ones", 4096)
    whole = sieve_lhs(seq, s)
    piece = sequences.pass_bytes(seq.N, threads)
    monkeypatch.setattr(util, "CAPACITY", 16 * 260_000 + piece)
    assert len(list(bounds_mod._batches(bounds_mod._lattice(qs), 260_000))) == 6
    reserved = []
    reserve = util.reserve

    def spy(what, count, unit, bytes_each, piece=0):
        if what == "sieve sum":
            reserved.append(count * bytes_each + piece)
        reserve(what, count, unit, bytes_each, piece)

    monkeypatch.setattr(util, "reserve", spy)
    tracemalloc.start()
    try:
        got = sieve_lhs(seq, s, threads=threads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == whole
    # one batch's folds take at most the capacity, and the workers'
    # refold temporaries and the piece what was reserved for them
    assert reserved == [threads * 16 * max(qs) + piece]
    assert peak <= util.CAPACITY - piece + reserved[0]


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


def test_bracket_pool_is_clamped_to_its_tasks(monkeypatch):
    # N = 36 has six values of r, so 64 threads open a pool of six
    sizes = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, workers):
            sizes.append(workers)
            super().__init__(workers)

    s = squares_in_octave(40)
    one = sieve_bracket(s, 36, z_grid=256)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    assert sieve_bracket(s, 36, z_grid=256, threads=64) == one
    assert sizes == [6]


def test_bracket_at_64_threads_fits_and_matches_one():
    # 64 workers each reserve r's terms: at r = 1 one h and one class row
    s = squares_in_octave(1000)
    assert sieve_bracket(s, 4096, threads=64) == sieve_bracket(s, 4096, threads=1)


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
        assert np.array_equal(bounds_mod._exact_z(s, n, r, bounds_mod._partition(s, r), 1),
                              want)


@pytest.mark.parametrize("s", [
    explicit_moduli([3, 7, 8, 12, 19, 20, 27, 31], M=2.0, span=30.0),
    explicit_moduli([12, 18, 24, 30, 36, 45, 60, 64], M=10.0, span=60.0),
    squares_in_octave(1000),
    primes_up_to_set(300),
    squares_up_to(30),
], ids=["explicit", "explicit-composite", "octave", "primes", "squares"])
def test_coprime_dilates_partition_the_set_over_the_divisors(s):
    for r in range(1, 65):
        c, labels, t, l, k, _ = bounds_mod._partition(s, r)
        for d in divisors(r):
            want = [q for q in derive_subset(s, d).elements.tolist()
                    if math.gcd(q, r // d) == 1]
            assert c[labels // r == d].tolist() == want
        # one row per (divisor, class), in label order
        gs = [(math.gcd(q, r), q) for q in s.elements.tolist()]
        rows = sorted({(d, q // d % (r // d)) for d, q in gs})
        assert list(zip(t.tolist(), l.tolist())) == rows
        assert k.tolist() == [r // d for d, _ in rows]


def test_exact_mode_refuses_a_span_past_capacity_before_building():
    # 1.5 * 10^15 m-breakpoints up to z_hi = 1/4 at r = 1
    with pytest.raises(CapacityError, match="exact mode at r=1 needs"):
        sieve_bracket(explicit_moduli([1, 10**15]), 16, mode="exact")


def test_exact_mode_counts_its_mark(monkeypatch):
    # at N = 2^20 the breakpoints of r = 1 take about 56 MB and fit in
    # 10^8 bytes; with the mark's byte per unit of a 10^8 range they do not
    monkeypatch.setattr(util, "CAPACITY", 10**8)
    with pytest.raises(CapacityError, match="exact mode at r=1") as refused:
        s = explicit_moduli([1, 10**8])
        bounds_mod._exact_z(s, 2**20, 1, bounds_mod._partition(s, 1), 1)
    need = int(str(refused.value).split(" needs ")[1].split()[0])
    assert 10**8 < need < 2 * 10**8


def test_exact_mode_reserves_for_every_worker(monkeypatch):
    # the window sum at r = 1 needs the most, 4,137,006 bytes per worker
    # (its exact-mode breakpoints need 1,210,352), so at two workers r = 1
    # is refused
    s = explicit_moduli([1, 10**4])
    whole = sieve_bracket(s, 16, mode="exact")
    monkeypatch.setattr(util, "CAPACITY", 4_137_006)
    assert sieve_bracket(s, 16, mode="exact", threads=1) == whole
    with pytest.raises(CapacityError, match="bracket terms at r=1 needs 8274012 "):
        sieve_bracket(s, 16, mode="exact", threads=2)


def test_exact_breakpoints_allocate_no_pair_matrix():
    s = primes_up_to_set(50000)
    tracemalloc.start()
    try:
        zs = bounds_mod._exact_z(s, 16, 2, bounds_mod._partition(s, 2), 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert zs.size > 0 and np.all(np.diff(zs) > 0)
    assert peak < 20 * 2**20  # the 5133^2 differences of one class take 200 MB


@pytest.mark.parametrize("threads", [1, 2])
def test_exact_mode_builds_one_partition_per_r(monkeypatch, threads):
    s = squares_in_octave(1000)
    want = sieve_bracket(s, 256, mode="exact")
    built = []
    partition = bounds_mod._partition

    def counted(s, r):
        built.append(r)
        return partition(s, r)

    monkeypatch.setattr(bounds_mod, "_partition", counted)
    assert sieve_bracket(s, 256, mode="exact", threads=threads) == want
    assert sorted(built) == list(range(1, 17))


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


def _crowding_by_frequencies(s, b, r, z, delta):
    """2 plus the window count of each divisor's class -b^-1*m mod k, one
    frequency m at a time, by the oracle."""
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
    return want


@pytest.mark.parametrize("b, r, delta, z_frac", [
    pytest.param(5, 12, 1e-6, 0.9, id="5-12"), pytest.param(7, 12, 1e-6, 0.9, id="7-12"),
    pytest.param(11, 30, 1e-6, 0.9, id="11-30"), pytest.param(1, 30, 1e-6, 0.9, id="1-30"),
    pytest.param(3, 8, 1e-6, 0.9, id="3-8"),
    # k = 1 rows: every divisor at r = 1, the r-dilate at r = 2
    pytest.param(0, 1, 1e-6, 0.9, id="0-1"), pytest.param(1, 2, 1e-6, 0.9, id="1-2"),
    # M = floor(3.6/t) is below k = 30/t at every divisor, and 0 from t = 5
    pytest.param(7, 30, 1e-6, 0.3, id="7-30-below-k"),
    # M = floor(12.48/t) is 2k at every divisor of 6
    pytest.param(5, 6, 4e-6, 0.52, id="5-6-multiple-of-k"),
])
def test_crowding_shape_equals_loop_over_frequencies(b, r, delta, z_frac):
    # uneven classes and windows narrower than a class, so both the
    # class each frequency meets and the window width matter; M =
    # floor(6*r*z*span/t) = a*k + b takes each side of the closed form
    rng = seeded_rng(r * 100 + b)
    el = rng.choice(np.arange(1001, 3001), size=300, replace=False)
    s = explicit_moduli(el, M=1000.0, span=2000.0)
    z = z_frac * math.sqrt(delta) / r
    assert farey_crowding_shape(s, b, r, z, delta) == _crowding_by_frequencies(s, b, r, z, delta)


def test_crowding_shape_equals_the_oracle_on_random_sets():
    # small offset sets dense in multiples of r's divisors, so that every
    # t-dilate holds elements; each (s, r) is asked at several (b, z) in
    # a row, as the cached partition serves them
    rng = seeded_rng(919)
    for trial in range(40):
        m_off, span = int(rng.integers(0, 300)), int(rng.integers(20, 400))
        size = int(rng.integers(1, min(span, 80) + 1))
        el = np.sort(rng.choice(np.arange(m_off + 1, m_off + span + 1), size, replace=False))
        s = explicit_moduli(el, M=float(m_off), span=float(span))
        r = int(rng.choice([4, 6, 9, 12, 18, 20, 24, 30]))
        for _ in range(3):
            b = int(rng.choice([b for b in range(r) if math.gcd(b, r) == 1]))
            delta = 10.0 ** rng.uniform(-6.0, math.log10(1.0 / (r * r)))
            z = delta * (math.sqrt(delta) / (r * delta)) ** rng.random()
            z = min(z, math.sqrt(delta) / r)
            want = _crowding_by_frequencies(s, b, r, z, delta)
            assert farey_crowding_shape(s, b, r, z, delta) == want, (trial, b, r, z, delta)


def test_crowding_shape_keeps_one_partition(monkeypatch):
    # equal elements, different spans: the cache is keyed on the set
    # itself, so each set gets its own widths and edges, and it holds one
    # (set, r) at a time
    el = np.arange(101, 401, 3)
    sets = [explicit_moduli(el, M=100.0, span=300.0),
            explicit_moduli(el, M=100.0, span=450.0)]
    plan = [(0, 6, 1, 2e-4), (0, 6, 5, 9e-4), (1, 6, 1, 2e-4), (1, 6, 5, 9e-4),
            (0, 10, 3, 3e-4), (0, 10, 7, 8e-4), (1, 10, 3, 3e-4), (1, 10, 9, 8e-4),
            (0, 6, 1, 2e-4), (1, 10, 3, 3e-4)]
    cache = bounds_mod._last_partition
    cache.cache_clear()
    got = []
    for i, r, b, z in plan:
        got.append(farey_crowding_shape(sets[i], b, r, z, 1e-4))
        assert cache.cache_info().currsize == 1
    assert cache.cache_info().hits == 4
    assert got[1] != got[3] and got[4] != got[6]  # the spans tell the sets apart
    monkeypatch.setattr(bounds_mod, "_last_partition", bounds_mod._partition)
    assert [farey_crowding_shape(sets[i], b, r, z, 1e-4) for i, r, b, z in plan] == got


def test_crowding_shape_on_kept_keys_equals_a_fresh_partition():
    # five (b, z, delta) in turn on each (set, r) count on the kept keys;
    # each equals, bit for bit, the value from a partition built afresh
    rng = seeded_rng(2028)
    sets = [squares_in_octave(10**4), primes_up_to_set(3000),
            explicit_moduli(np.arange(501, 1400, 7), M=500.0, span=900.0)]
    cache = bounds_mod._last_partition
    draws, kept = [], []
    for s in sets:
        for r in range(1, 68):
            cache.cache_clear()
            for _ in range(5):
                b = int(rng.choice([b for b in range(max(r, 2)) if math.gcd(b, r) == 1]))
                delta = 10.0 ** rng.uniform(-7.0, math.log10(0.5 / (r * r)))
                z = min(delta * (math.sqrt(delta) / (r * delta)) ** rng.random(),
                        math.sqrt(delta) / r)
                draws.append((s, b, r, z, delta))
                kept.append(farey_crowding_shape(s, b, r, z, delta))
            assert cache.cache_info().hits == 4
    fresh = []
    for args in draws:
        cache.cache_clear()
        fresh.append(farey_crowding_shape(*args))
    assert len(draws) >= 1000 and fresh == kept
    assert len(set(kept)) > 100


@pytest.mark.parametrize("call, capacity, need", [
    (lambda: farey_crowding_shape(squares_up_to(30), 1, 720720, 1 / (4 * 720720**2),
                                  1 / (4 * 720720**2)), 142_427, "r=720720 needs 142428 "),
    (lambda: sieve_bracket(squares_up_to(8), 4096, z_grid=2**21), 5 * 10**7,
     "r=1 needs 153224336 "),
], ids=["crowding", "bracket"])
def test_window_sums_reserve_before_they_count(monkeypatch, call, capacity, need):
    # the partition holds the window keys, but no window is counted
    # before the window sum's reservation refuses
    def fail(self, u_vec):
        raise AssertionError("windows counted before the reservation")

    monkeypatch.setattr(counting._ProfileKeys, "counts", fail)
    monkeypatch.setattr(util, "CAPACITY", capacity)
    with pytest.raises(CapacityError, match=f"bracket terms at {need}"):
        call()


def test_crowding_shape_refuses_before_it_builds(monkeypatch):
    # squares_up_to(30) makes 30 class rows at r = 720,720, one z and one
    # h: 48 * 30 + 128 * (30 + 30) + 56 * 30 + (2 * 30 + 16 * 31) + 2^17
    # = 142,428 bytes, one byte past the capacity, and the profile is
    # never built; at 10^6 bytes the call runs
    def fail(self, u_vec):
        raise AssertionError("window counts built before the reservation")

    s, r = squares_up_to(30), 720720
    delta = 1.0 / (4 * r * r)
    counts = counting._ProfileKeys.counts
    monkeypatch.setattr(counting._ProfileKeys, "counts", fail)
    monkeypatch.setattr(util, "CAPACITY", 142_427)
    with pytest.raises(CapacityError, match="at r=720720 needs 142428 "):
        farey_crowding_shape(s, 1, r, delta, delta)
    monkeypatch.setattr(counting._ProfileKeys, "counts", counts)
    monkeypatch.setattr(util, "CAPACITY", 10**6)
    assert farey_crowding_shape(s, 1, r, delta, delta) == 2.0


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
                      shapes={"classical": 13.0})
    rows = rep.csv_rows()
    assert rows[0] == ["name", "value", "ratio"]
    assert rows[1] == ["classical", "13", "0.30769230769230771"]
    assert len(rows) == 2


def test_report_refuses_a_non_positive_shape():
    with pytest.raises(ValueError, match="not positive"):
        BoundReport(N=4, Q=1.0, Q0=None, Z=1.0, lhs=4.0, shapes={"classical": 0.0})


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


def test_bracket_refuses_a_z_grid_past_one_gather_chunk(monkeypatch):
    def fail(*args):
        raise AssertionError("partition built before the z-grid check")

    monkeypatch.setattr(bounds_mod, "_partition", fail)
    with pytest.raises(CapacityError, match="4000000000 points"):
        sieve_bracket(primes_up_to_set(300), 4096, z_grid=4 * 10**9)


@pytest.mark.parametrize("threads", [0, -3])
def test_bracket_reserves_for_one_worker_below_one_thread(monkeypatch, threads):
    # at one thread r = 1 needs 19,137,680 bytes at 2^16 z; a thread count
    # below one must not scale that to nothing
    monkeypatch.setattr(util, "CAPACITY", 2 * 10**6)
    with pytest.raises(CapacityError, match="bracket terms at r=1 needs 19137680 "):
        sieve_bracket(squares_up_to(8), 16, z_grid=2**16, threads=threads)


@pytest.mark.parametrize("s, n, kw", [
    pytest.param(squares_up_to(8), 4096, {"z_grid": 2**12}, id="4096"),
    pytest.param(squares_up_to(8), 4096, {"z_grid": 2**14}, id="16384"),
    # r = 7 has 7 class rows (the primes in the 6 classes mod 7, and 7
    # itself in the 7-dilate) against phi(7) = 6, and its gather peaks
    pytest.param(primes_up_to_set(300), 81, {"z_grid": 2**16}, id="primes-r7"),
    # two elements at 15,001 exact-mode z (r = 2): the window profile's
    # own temporaries set the peak
    pytest.param(explicit_moduli([1, 10**4]), 16, {"mode": "exact"}, id="exact"),
])
def test_bracket_peak_stays_under_its_reservation(monkeypatch, s, n, kw):
    reserved = []
    reserve = util.reserve

    def spy(what, count, unit, bytes_each):
        if what.startswith("bracket terms"):
            reserved.append(count * bytes_each)
        reserve(what, count, unit, bytes_each)

    sieve_bracket(squares_up_to(2), 16, mode="exact")  # numpy's first-call allocations
    monkeypatch.setattr(util, "reserve", spy)
    tracemalloc.start()
    try:
        sieve_bracket(s, n, **kw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(reserved) == math.isqrt(n) and peak <= max(reserved)


def test_window_sum_peak_stays_under_its_reservation_at_a_wide_table(monkeypatch):
    # r = 720,720 has sigma(r) = 3,249,792 residues over its divisors,
    # but squares_up_to(30) makes 30 class rows: the sum counts the
    # frequencies at those rows alone, so it peaks under its reservation
    # and under 10^6 bytes
    s, r = squares_up_to(30), 720720
    delta = 1.0 / (4 * r * r)
    farey_crowding_shape(s, 1, 6, 1e-4, 1e-4)  # numpy's first-call allocations
    reserved = []
    reserve = util.reserve

    def spy(what, count, unit, bytes_each):
        reserved.append(count * bytes_each)
        reserve(what, count, unit, bytes_each)

    monkeypatch.setattr(util, "reserve", spy)
    tracemalloc.start()
    try:
        got = farey_crowding_shape(s, 1, r, delta, delta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == 2.0
    assert len(reserved) == 1 and peak <= reserved[0] and peak < 10**6


def test_bracket_h_chunks_do_not_change_b(monkeypatch):
    s = primes_up_to_set(300)
    whole = sieve_bracket(s, 4096, z_grid=8)
    monkeypatch.setattr(bounds_mod, "_BRACKET_CHUNK", 1)
    assert sieve_bracket(s, 4096, z_grid=8) == whole


def test_shapes_refuse_values_outside_the_floats():
    for eps in (1e300, -1e300, math.inf, math.nan):
        with pytest.raises(OutOfRangeError):
            bound_shapes(1024, 8, eps=eps)
