"""Kernel pair, Gauss sums, Poisson residuals, oscillatory integrals."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievelab import harmonic, util, verify
from sievelab import (gauss_sum, gauss_sum_row, linear_phase_integral,
                      oscillatory_integral, phi_hat_value, phi_value,
                      poisson_residual)
from sievelab.errors import (CapacityError, NotCoprimeError, OutOfRangeError,
                             QuadratureError)
from sievelab.harmonic import phi_pair
from sievelab.oracles import phi_hat_by_quadrature, sqrt_phase_integral


def test_kernel_special_values():
    assert phi_value(0.0) == math.pi**2 / 4
    assert phi_value(0.5) == 1.0
    assert phi_value(-0.5) == 1.0
    assert phi_hat_value(0.0) == math.pi**2 / 4
    assert phi_hat_value(1.0) == 0.0
    assert phi_hat_value(-2.5) == 0.0
    assert phi_hat_value(0.5) == math.pi**2 / 8


def test_kernel_dominates_one_on_the_core_window():
    xs = np.linspace(-0.5, 0.5, 1001)
    assert np.all(phi_value(xs) >= 1.0 - 1e-12)


def test_kernel_is_nonnegative_everywhere_sampled():
    xs = np.linspace(-20, 20, 5001)
    assert np.all(phi_value(xs) >= 0.0)


def test_kernel_pair_is_consistent():
    for x in (0.0, 0.3, 1.7, -2.2):
        v, h = phi_pair(x)
        assert v == phi_value(x)
        assert h == phi_hat_value(x)


@pytest.mark.parametrize("s", [0.0, 0.25, -0.25, 0.5, -0.5, 0.99, -0.99,
                               1.5, -1.5])
def test_transform_matches_quadrature(s):
    assert abs(phi_hat_by_quadrature(s) - phi_hat_value(s)) <= 1e-6


def test_gauss_sum_small_cases():
    assert gauss_sum(1, 0, 1) == 1.0 + 0j
    assert gauss_sum(1, 0, 4) == 2 + 2j
    assert abs(gauss_sum(1, 0, 3) - complex(0, math.sqrt(3))) < 1e-12
    with pytest.raises(NotCoprimeError):
        gauss_sum(2, 1, 4)


def test_gauss_sum_magnitude_cap_small_sweep():
    for c in range(1, 101):
        cap = math.sqrt(2 * c) + 1e-9
        for k in range(1, c + 1):
            if math.gcd(k, c) != 1:
                continue
            row = gauss_sum_row(k, c)
            assert row.shape == (c,)
            assert float(np.max(np.abs(row))) <= cap


def test_gauss_row_agrees_with_single_sums():
    for c, k in ((7, 3), (12, 5), (25, 4), (64, 63)):
        row = gauss_sum_row(k, c)
        for l in (0, 1, c // 2, c - 1):
            want = sum(cmath.exp(2j * cmath.pi * ((k * d * d + l * d) % c) / c)
                       for d in range(1, c + 1))
            assert abs(row[l] - want) <= 1e-9
            assert abs(gauss_sum(k, l, c) - want) <= 1e-9


def test_gauss_sums_past_the_int64_square_are_exact():
    # k*d^2 passes 2^63 here; G(-1, 0; c) is the conjugate of G(1, 0; c)
    c = 3_000_017
    want = gauss_sum(1, 0, c).conjugate()
    assert abs(abs(want) - math.sqrt(c)) <= 1e-6
    assert abs(gauss_sum(c - 1, 0, c) - want) <= 1e-6
    assert abs(gauss_sum_row(c - 1, c)[0] - want) <= 1e-6


@pytest.mark.parametrize("call", [lambda c: gauss_sum(1, 0, c), lambda c: gauss_sum_row(1, c)],
                         ids=["gauss_sum", "gauss_sum_row"])
def test_gauss_sums_over_the_capacity_are_refused(monkeypatch, call):
    monkeypatch.setattr(util, "CAPACITY", 41 * 1000 - 1)
    with pytest.raises(CapacityError, match=r"needs 1000 terms \(41000 bytes\)"):
        call(1000)
    monkeypatch.setattr(util, "CAPACITY", 41 * 1000)
    assert np.all(np.isfinite(call(1000)))


def test_poisson_residual_on_reference_points():
    for scale, shift in ((1.0, 0.0), (0.5, 0.25), (1 / 3, 0.7), (0.8, 1.0)):
        assert poisson_residual(scale, shift) <= 1e-6


def test_zero_frequency_integral_is_the_length():
    for q0 in (1.0, 17.5, 400.0):
        assert oscillatory_integral(0, 0, 1, 0.3, q0) == q0


@settings(max_examples=40, deadline=None)
@given(st.integers(-15, 15), st.floats(1e-5, 0.02), st.floats(10.0, 500.0))
def test_linear_phase_matches_closed_form(j, z, q0):
    if j == 0:
        return
    got = oscillatory_integral(j, 0, 1, z, q0)
    want = linear_phase_integral(j, z, q0)
    assert abs(got - want) <= 1e-6 * q0


def test_mixed_phase_integral_obeys_trivial_cap():
    for j, l, r_star, z, q0 in ((3, 7, 2, 0.01, 120.0), (-2, 9, 1, 0.005, 60.0),
                                (5, -12, 3, 0.02, 300.0)):
        val = abs(oscillatory_integral(j, l, r_star, z, q0))
        assert val <= q0 * (1 + 1e-9)


def test_quadrature_refuses_unreachable_tolerance(monkeypatch):
    # answers that never agree: each evaluation returns its panel count
    panels = []

    def disagreeing(*args):
        panels.append(args[-1])
        return complex(args[-1])

    monkeypatch.setattr(harmonic, "_osc_eval", disagreeing)
    with pytest.raises(QuadratureError, match="more than 1048576 panels"):
        oscillatory_integral(3, 11, 1, 0.07, 50.0)
    # ceil(cycles) = 43 panels, doubled until the next would pass 2^20
    assert panels == [43 * 2**i for i in range(15)]


def test_pure_sqrt_phase_decays_with_frequency():
    lo = abs(oscillatory_integral(0, 40, 1, 0.0, 200.0))
    hi = abs(oscillatory_integral(0, 2, 1, 0.0, 200.0))
    assert lo < hi


def _count_osc_evals(monkeypatch, fake=None):
    """Route harmonic._osc_eval through a counter; fake replaces its value."""
    calls = []
    real = harmonic._osc_eval

    def counted(*args):
        calls.append(args[-1])
        return fake if fake is not None else real(*args)

    monkeypatch.setattr(harmonic, "_osc_eval", counted)
    return calls


@pytest.mark.parametrize("z, q0", [(math.inf, 10.0), (-math.inf, 10.0), (math.nan, 10.0),
                                   (0.01, math.inf), (0.01, math.nan), (0.0, -math.inf)])
def test_non_finite_arguments_are_out_of_range(z, q0):
    for j, l in ((1, 0), (0, 3), (0, 0)):
        with pytest.raises(OutOfRangeError):
            oscillatory_integral(j, l, 1, z, q0)


@pytest.mark.parametrize("j, l, z", [(10**400, 0, 1.0), (10**400, 0, 0.0), (-10**400, 3, 0.5),
                                     (1, 10**400, 0.0), (0, -10**400, 0.0)])
def test_frequencies_past_float_range_are_out_of_range(monkeypatch, j, l, z):
    calls = _count_osc_evals(monkeypatch, fake=0j)
    with pytest.raises(OutOfRangeError, match="float range"):
        oscillatory_integral(j, l, 1, z, 10.0)
    assert calls == []


def test_panel_budget_is_checked_before_any_evaluation(monkeypatch):
    calls = _count_osc_evals(monkeypatch, fake=0j)
    with pytest.raises(QuadratureError, match="more than 1048576 panels"):
        oscillatory_integral(10**6, 0, 1, 1.0, 1e6)  # 10^12 cycles
    with pytest.raises(QuadratureError):
        oscillatory_integral(1, 0, 1, 1.0, 2.0**19 + 1)  # 2 * ceil(cycles) > 2^20
    assert calls == []
    # at 2^19 cycles the first doubling just fits the budget
    assert oscillatory_integral(1, 0, 1, 1.0, 2.0**19) == 0j
    assert calls == [2**19, 2**20]


def test_panels_start_at_one_per_cycle(monkeypatch):
    calls = _count_osc_evals(monkeypatch)
    oscillatory_integral(3, 0, 1, 0.0625, 320.0)  # 60 cycles
    oscillatory_integral(0, 1, 1, 0.0, 20.0)    # under 2 cycles: the floor of 16
    assert calls == [60, 120, 16, 32]


@pytest.mark.parametrize("q0", [1.0, 20.0, 517.3, 5e3, 5e4])
def test_integrals_match_both_closed_forms(q0):
    for l in (1, -3, 7, 40, -40):
        for r in (1, 2, 3, 4):
            got = oscillatory_integral(0, l, r, 0.0, q0)
            assert abs(got - sqrt_phase_integral(l, r, q0)) <= 1e-12 * q0
    for j in (1, -2, 7, 20):
        for z in (1e-5, 3e-4, 0.013, 0.05):
            got = oscillatory_integral(j, 0, 1, z, q0)
            assert abs(got - linear_phase_integral(j, z, q0)) <= 1e-12 * q0


def test_mixed_phase_with_a_stationary_point_matches_four_times_the_panels():
    for j, l, r, q0 in ((3, 7, 2, 120.0), (-2, 9, 1, 60.0), (5, -12, 3, 300.0),
                        (10, 40, 1, 1000.0), (-1, -1, 3, 50.0)):
        # the phase's derivative vanishes at y = 1.5 * Q0
        z = abs(l) / (2.0 * abs(j) * r * math.sqrt(1.5 * q0))
        cycles = abs(j * z) * q0 + abs(l) * (math.sqrt(2 * q0) - math.sqrt(q0)) / r
        panels = max(16, math.ceil(cycles))
        fine = harmonic._osc_eval(j, l, r, z, q0, 4 * panels)
        assert abs(oscillatory_integral(j, l, r, z, q0) - fine) <= 1e-12 * q0


def test_calibration_families_take_two_evaluations_each(monkeypatch):
    calls = _count_osc_evals(monkeypatch)
    per_integral = []
    real = harmonic.oscillatory_integral

    def counted(*args):
        before = len(calls)
        value = real(*args)
        per_integral.append(len(calls) - before)
        return value

    monkeypatch.setattr(harmonic, "oscillatory_integral", counted)
    verify.measure_vdc_constants(seed=20260822)
    assert per_integral == [2] * 300
