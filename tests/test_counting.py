"""Window counts, Farey crowding, progression pair counts, Dirichlet
approximation.  Every fast path is pinned to its brute-force oracle on
randomized inputs plus a few hand-checkable cases.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievelab import (WindowQuery, count_window_ap, counting, derive_subset,
                      dirichlet_approx, enumerate_farey, explicit_moduli,
                      k_delta, moduli, p_alpha, p_alpha_circular, pi_count,
                      primes_up_to_set, squares_up_to, util)
from sievelab.counting import window_count_profile
from sievelab.errors import (CapacityError, EmptyModuliWarning, InvalidDeltaError,
                             OutOfRangeError)
from sievelab import oracles
from sievelab.util import seeded_rng


def _set_from(elements, span):
    return explicit_moduli(elements, M=0.0, span=float(span))


def test_window_count_hand_case():
    s = _set_from([1, 2, 3, 10], 10)
    # u = 2.5 catches {1,2,3} in one window, never all four
    assert count_window_ap(s, WindowQuery(2.5, 1, 0)) == 3
    assert count_window_ap(s, WindowQuery(9.0, 1, 0)) == 3
    assert count_window_ap(s, WindowQuery(10.0, 1, 0)) == 4
    assert count_window_ap(s, WindowQuery(0.0, 1, 0)) == 0
    # a half-open unit window holds at most one integer
    s2 = _set_from([1, 2, 3], 3)
    assert count_window_ap(s2, WindowQuery(1.0, 1, 0)) == 1
    # length 4 cannot span both endpoints of the odd triple
    s3 = _set_from([1, 3, 5], 5)
    assert count_window_ap(s3, WindowQuery(4.0, 2, 1)) == 2


def test_window_count_respects_residue_class():
    s = _set_from([1, 2, 3, 4, 5, 6], 6)
    assert count_window_ap(s, WindowQuery(6.0, 2, 1)) == 3
    assert count_window_ap(s, WindowQuery(6.0, 3, 2)) == 2
    assert count_window_ap(s, WindowQuery(2.5, 3, 1)) == 1


def test_window_count_with_dilation():
    s = explicit_moduli([4, 8, 12, 16], M=0.0, span=16.0)
    # the 4-dilate {1,2,3,4} lives in (0, 4], the 3-dilate {4} in (0, 16/3]
    assert count_window_ap(s, WindowQuery(2.0, 1, 0, 4)) == 2
    assert count_window_ap(s, WindowQuery(4.0, 1, 0, 4)) == 4
    assert count_window_ap(s, WindowQuery(5.0, 1, 0, 3)) == 1
    assert count_window_ap(s, WindowQuery(5.0, 2, 1, 4)) == 2


def test_window_boundary_is_half_open():
    s = _set_from([5, 7], 12)
    # (y, y+2] with y = 5 contains 7 only; the left end is open
    assert count_window_ap(s, WindowQuery(2.0, 1, 0)) == 1
    s2 = _set_from([5, 7, 9], 12)
    assert count_window_ap(s2, WindowQuery(2.0, 1, 0)) == 1
    assert count_window_ap(s2, WindowQuery(2.0000001, 1, 0)) == 2


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_window_count_equals_oracle(data):
    n = data.draw(st.integers(1, 25))
    span = data.draw(st.integers(4, 60))
    el = data.draw(st.lists(st.integers(1, span), min_size=1, max_size=n,
                            unique=True))
    s = _set_from(el, span)
    t = data.draw(st.integers(1, 4))
    st_ = derive_subset(s, t)
    u = data.draw(st.one_of(st.floats(0.0, span * 1.1),
                            st.integers(0, span).map(float)))
    k = data.draw(st.integers(1, 12))
    reduced = [a for a in range(k) if math.gcd(a, k) == 1]
    l = data.draw(st.sampled_from(reduced))
    q = WindowQuery(u, k, l, t)
    assert count_window_ap(s, q) == oracles.count_window_oracle(st_, q, s.M, s.Q)


def test_crowding_hand_case():
    s = _set_from([2, 3], 3)
    # fractions: 1/3, 1/2, 2/3
    assert k_delta(s, 1 / 12) == 2
    assert k_delta(s, 0.5) == 3
    assert k_delta(s, 0.01) == 1
    assert k_delta(explicit_moduli([1]), 0.1) == 1
    # alpha = 1/2 sees all of 1/4, 1/2, 3/4 at distance <= 1/4
    assert k_delta(_set_from([2, 4], 4), 0.25) == 3


def test_crowding_rejects_bad_delta():
    s = _set_from([2], 2)
    with pytest.raises(InvalidDeltaError):
        k_delta(s, 0.0)
    with pytest.raises(InvalidDeltaError):
        k_delta(s, 0.51)
    fl = enumerate_farey(s)
    for count in (p_alpha, p_alpha_circular):
        for delta in (0.0, -0.1, math.nan):
            with pytest.raises(InvalidDeltaError):
                count(fl, 0.5, delta)


def test_crowding_wraps_around_the_circle():
    # 1/8 and 1/1 are 1/8 apart on the circle
    assert k_delta(explicit_moduli([1, 8]), 1 / 15) == 2


_WHOLE_LIST = 2**21  # one slab holds every fraction of squares up to 208


@pytest.mark.parametrize("delta, want", [(1e-4, 424), (1e-2, 36669),
                                         (0.25, 915453), (0.5, 1830773)])
def test_crowding_does_not_depend_on_the_slab_size(monkeypatch, delta, want):
    # want is the count of the whole-list evaluation that preceded the slabs
    big = squares_up_to(208)
    for size in (_WHOLE_LIST, 2**12, 2**16):
        monkeypatch.setattr(moduli, "_FAREY_SLAB", size)
        assert k_delta(big, delta) == want
    rng = seeded_rng(11)
    for _ in range(10):
        s = explicit_moduli(set(rng.integers(1, 100, size=int(rng.integers(1, 40))).tolist()))
        monkeypatch.setattr(moduli, "_FAREY_SLAB", _WHOLE_LIST)
        whole = k_delta(s, delta)
        for size in (1, 97, 2**16):
            monkeypatch.setattr(moduli, "_FAREY_SLAB", size)
            assert k_delta(s, delta) == whole


def _count_slab_builds(monkeypatch):
    builds = []
    values = moduli.FareySlabs.values
    monkeypatch.setattr(moduli.FareySlabs, "values",
                        lambda self, b: builds.append(b) or values(self, b))
    return builds


@pytest.mark.parametrize("delta, most", [(1e-4, 113), (1e-2, 115), (0.1, 135),
                                         (0.3, 180), (0.5, 122)])
def test_crowding_builds_few_slabs(monkeypatch, delta, most):
    # squares up to 208 make 112 slabs; `most` is the two-cursor walk's count
    builds = _count_slab_builds(monkeypatch)
    k_delta(squares_up_to(208), delta)
    assert len(builds) <= most


@pytest.mark.parametrize("delta", [0.0777, 0.123, 0.3])
def test_windows_past_the_look_ahead_share_their_slabs(monkeypatch, delta):
    # 922 slabs; the window's edges lie 143 to 553 slabs past the left slab
    monkeypatch.setattr(moduli, "_FAREY_SLAB", 48)
    s = squares_up_to(60)
    nslab = len(moduli.FareySlabs(s).edges) - 1
    builds = _count_slab_builds(monkeypatch)
    k_delta(s, delta)
    assert len(builds) <= 2 * nslab


def test_crowding_memory_is_bounded_by_the_slab():
    # the whole list of squares up to 208 alone takes 44 MB
    tracemalloc.start()
    try:
        assert k_delta(squares_up_to(208), 0.5) == 1830773
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


def test_crowding_of_an_empty_set_is_zero():
    with pytest.warns(EmptyModuliWarning):
        empty = explicit_moduli([])
    assert k_delta(empty, 0.1) == 0


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(1, 30), min_size=1, max_size=10, unique=True),
       st.floats(0.01, 0.5))
def test_crowding_equals_oracle(el, delta):
    s = _set_from(el, max(el))
    assert k_delta(s, delta) == oracles.k_delta_oracle(enumerate_farey(s), delta)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(1, 30), min_size=1, max_size=8, unique=True),
       st.floats(-0.3, 1.3), st.floats(0.001, 0.5))
def test_interval_count_equals_oracle(el, alpha, delta):
    fl = enumerate_farey(_set_from(el, max(el)))
    assert p_alpha(fl, alpha, delta) == oracles.p_alpha_oracle(fl, alpha, delta)


def test_interval_count_against_circular_variant():
    fl = enumerate_farey(explicit_moduli([1, 4]))
    # alpha near 0 sees 3/4 and 1/1 only through the wrap
    assert p_alpha(fl, 0.05, 0.2) == 1
    assert p_alpha_circular(fl, 0.05, 0.2) == 2
    assert p_alpha_circular(fl, 0.05, 0.31) == 3


def test_interval_count_hand_cases():
    fl = enumerate_farey(explicit_moduli([4]))
    assert p_alpha(fl, 0.25, 0.01) == 1
    assert p_alpha(fl, 0.5, 0.3) == 2
    assert p_alpha(fl, 0.5, 0.5) == len(fl)


def test_progression_pair_count_hand_case():
    s = _set_from([3, 4, 5], 5)
    # y=4, delta=1: q in {3,4,5}; r=1 makes every m = 0 mod 1 eligible
    got = pi_count(s, 1, 1, 1.0, 1.0, 4.0)
    want = oracles.pi_count_oracle(s, 1, 1, 1.0, 1.0, 4.0)
    assert got == want
    # the m-window [(y-4d)rz, (y+4d)rz] = [0, 8] holds m = 1..8 after
    # dropping m = 0, for each of the three eligible q
    assert got == 3 * 8
    # single odd-class pair: q=5 in [4,6], m=1 the only odd integer allowed
    s5 = _set_from([5], 5)
    assert pi_count(s5, 1, 2, 0.1, 1.0, 5.0) == 1
    assert pi_count(s5, 1, 2, 1e-9, 0.1, 5.0) == 0


def test_progression_pair_count_empty_interval():
    s = _set_from([3], 3)
    assert pi_count(s, 1, 2, -0.25, 0.5, 3.0) == \
        oracles.pi_count_oracle(s, 1, 2, -0.25, 0.5, 3.0)
    assert pi_count(s, 1, 2, 0.0, 0.5, 3.0) == 0  # z = 0 allows no m != 0


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=12, unique=True),
       st.integers(1, 12), st.floats(-0.4, 0.4), st.floats(0.05, 4.0),
       st.floats(0.0, 44.0))
def test_progression_pair_count_equals_oracle(el, r, z, delta, y):
    s = _set_from(el, max(el))
    b = 1 + (r // 3)
    if math.gcd(b, r) != 1:
        b = 1
    assert pi_count(s, b, r, z, delta, y) == \
        oracles.pi_count_oracle(s, b, r, z, delta, y)


def test_dirichlet_known_fractions():
    ap = dirichlet_approx(1 / 3, 10)
    assert (ap.b, ap.r) == (1, 3) and abs(ap.z) < 1e-12
    ap = dirichlet_approx(0.5, 7)
    assert (ap.b, ap.r) == (1, 2)
    ap = dirichlet_approx(3 / 7 + 1e-3, 7)
    assert (ap.b, ap.r) == (3, 7)
    assert ap.z == pytest.approx(1e-3, rel=1e-6)


def test_dirichlet_small_tau_lands_on_an_integer():
    ap = dirichlet_approx(0.9, 1.0)
    assert ap.r == 1
    assert abs(0.9 - ap.b) <= 1.0


@settings(max_examples=400)
@given(st.floats(0.0, 1.0, exclude_max=True), st.floats(1.0, 1000.0))
def test_dirichlet_postconditions(alpha, tau):
    ap = dirichlet_approx(alpha, tau)
    assert 1 <= ap.r <= tau
    assert math.gcd(ap.b, ap.r) == 1
    assert abs(ap.z) <= 1.0 / (ap.r * tau) + 1e-15
    assert abs(ap.b / ap.r + ap.z - alpha) <= 1e-12


def test_window_query_validation():
    with pytest.raises(ValueError):
        WindowQuery(1.0, 0, 0)
    with pytest.raises(ValueError):
        WindowQuery(-1.0, 1, 0)
    with pytest.raises(ValueError):
        WindowQuery(1.0, 2, 0, 0)


# ------------------------------------------------ window counts by ceil(u)

@pytest.mark.parametrize("case", ["integer", "below-one", "zero", "past-span",
                                  "offset"])
def test_window_counts_equal_oracle_at_the_edges_of_u(case):
    rng = seeded_rng(404)
    for trial in range(40):
        span = int(rng.integers(2, 90))
        m_off = int(rng.integers(1, 200)) if case == "offset" else 0
        count = int(rng.integers(1, min(span, 30) + 1))
        el = rng.choice(np.arange(m_off + 1, m_off + span + 1), count, replace=False)
        s = explicit_moduli(el, M=float(m_off), span=float(span))
        t = int(rng.integers(1, 4))
        st_ = derive_subset(s, t)
        lo, hi = s.M / t, (s.M + s.Q) / t
        us = {"integer": np.arange(0, span + 3, dtype=float),
              "below-one": rng.random(8) + 1e-12,
              "zero": np.zeros(2),
              "past-span": span * (1.0 + rng.random(6) * 4.0),
              "offset": np.concatenate([rng.random(10) * 1.2 * span,
                                        np.arange(0, span // t + 2, dtype=float)]),
              }[case]
        k = int(rng.integers(1, 9))
        classes = [l for l in range(k) if math.gcd(l, k) == 1]
        labels = st_.elements % k
        keep = np.isin(labels, classes)
        groups, grouped = window_count_profile(st_.elements[keep], us, lo, hi,
                                               labels=labels[keep])
        present = sorted(set(labels[keep].tolist()))
        assert groups.tolist() == present
        assert grouped.shape == (len(present), us.size)
        for l in classes:
            queries = [WindowQuery(float(u), k, l, t) for u in us]
            want = [oracles.count_window_oracle(st_, q, s.M, s.Q) for q in queries]
            assert [count_window_ap(s, q) for q in queries] == want
            if l in present:
                assert grouped[present.index(l)].tolist() == want


def test_window_count_profile_takes_widths_and_edges_per_group():
    # each group's row equals a call on that group alone, with its own
    # widths and interval, though the keys' stride spans every group
    rng = seeded_rng(77)
    for trial in range(40):
        c = np.unique(rng.integers(1, int(rng.integers(2, 3000)), int(rng.integers(1, 60))))
        labels = rng.integers(0, 6, c.size) * 7 + c % 3
        groups = np.unique(labels)
        us = rng.random((groups.size, 5)) * float(rng.choice([3.0, 40.0, 4000.0]))
        us[:, 0] = 0.0
        lo = rng.random(groups.size) * c.max()
        hi = lo + rng.random(groups.size) * c.max()
        got_groups, got = window_count_profile(c, us, lo, hi, labels)
        assert got_groups.tolist() == groups.tolist()
        for i, g in enumerate(groups):
            one = c[labels == g]
            _, want = window_count_profile(one, us[i], lo[i], hi[i], labels[labels == g])
            assert got[i].tolist() == want[0].tolist()


def test_window_count_profile_refuses_keys_past_int64():
    # keys run to groups * 2 * span: four groups over 2^60 pass int64, two fit
    c = np.array([1, 2, 3, 2**60])
    with pytest.raises(OutOfRangeError, match="int64 keys"):
        window_count_profile(c, [1.0], 0.0, 2.0**60, labels=np.arange(4))
    _, two = window_count_profile(c, [1.0, 2.0**61], 0.0, 2.0**60, labels=np.arange(4) % 2)
    assert two.tolist() == [[1, 2], [1, 2]]


def test_window_count_profile_of_nothing_is_zero():
    us = np.array([0.0, 1.0, 5.0])
    groups, none = window_count_profile(np.array([], dtype=np.int64), us, 0.0, 4.0,
                                        labels=np.array([], dtype=np.int64))
    assert groups.size == 0 and none.shape == (0, 3)


def test_count_window_ap_builds_no_square_matrix():
    s = primes_up_to_set(50000)
    assert s.size == 5133
    query = WindowQuery(500.0, 1, 0, 1)
    tracemalloc.start()
    try:
        count = count_window_ap(s, query)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 95
    assert peak < 2 * 2**20  # a 5133^2 difference matrix would take 200 MB


def test_count_window_ap_reserves_before_it_builds(monkeypatch):
    s = primes_up_to_set(10**6)
    query = WindowQuery(500.0, 1, 0, 1)
    need = counting.profile_bytes(s.size, 1)
    derived, profiled = [], []

    def derive(s, t):
        derived.append(t)
        return derive_subset(s, t)

    def profile(*args, **kwargs):
        profiled.append(args[0].size)
        return window_count_profile(*args, **kwargs)

    monkeypatch.setattr(counting, "derive_subset", derive)
    monkeypatch.setattr(counting, "window_count_profile", profile)
    monkeypatch.setattr(util, "CAPACITY", need - 1)
    with pytest.raises(CapacityError, match=f"window count needs {s.size} moduli"):
        count_window_ap(s, query)
    assert derived == profiled == []
    monkeypatch.setattr(util, "CAPACITY", need)
    tracemalloc.start()
    try:
        count_window_ap(s, query)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert profiled == [s.size] and peak <= need
