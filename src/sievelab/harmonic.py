"""Harmonic-analysis toolkit: the majorant kernel pair, quadratic Gauss
sums, a Poisson summation residual, and oscillatory phase integrals.

The kernel is phi(x) = (sin(pi*x)/(2*x))^2 with phi(0) = pi^2/4.  It
majorizes 1 on [-1/2, 1/2] and its Fourier transform (in the convention
fhat(s) = int f(y) e(s*y) dy) is the compactly supported triangle
phi_hat(s) = (pi^2/4) * max(1 - |s|, 0).

Gauss sums G(k, l; c) = sum_{d=1..c} e((k*d^2 + l*d)/c) are computed
over the full period with exact integer phase reduction; for coprime k
the modulus-c bound |G| <= sqrt(2*c) is attained (c=4, k=1, l=0 gives
|2+2i| = sqrt(8)).

The oscillatory integral here is int_{Q0}^{2*Q0} e(j*y*z - l*sqrt(y)/r) dy,
evaluated by 16-point Gauss-Legendre on max(16, ceil(cycles)) equal
panels, cycles being the phase's total variation in turns: no panel
holds more than about 1.21 turns, where the rule's error term is far
below double rounding.  The panels are then doubled until two
refinements agree, which certifies the value.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NotCoprimeError, OutOfRangeError, QuadratureError
from .util import cexp, index, reserve

_QUAD_NODES = 16
_PANEL_BUDGET = 1 << 20
_POISSON_TRUNC = 10**6  # poisson_residual's T: its direct side sums |n| <= T
# a term's arrays at the peak: 40.3 by tracemalloc at c = 10^6 + 3 for
# gauss_sum, 40.0 for gauss_sum_row.  Below about 10^5 terms cexp's block
# of temporaries (320 KiB) adds more, but only far under the capacity
_GAUSS_TERM_BYTES = 41


def phi_value(x):
    """The kernel phi, elementwise; phi(x) >= 1 for |x| <= 1/2."""
    x = np.asarray(x, dtype=np.float64)
    return (0.5 * np.pi * np.sinc(x)) ** 2


def phi_hat_value(s):
    """Fourier transform of phi: a triangle supported on [-1, 1]."""
    s = np.asarray(s, dtype=np.float64)
    return (np.pi**2 / 4.0) * np.maximum(1.0 - np.abs(s), 0.0)


def phi_pair(x: float) -> tuple[float, float]:
    """(phi(x), phi_hat(x)) at one point."""
    return float(phi_value(x)), float(phi_hat_value(x))


@functools.cache
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    # computed once per n, on first use: importing numpy.polynomial at
    # module load would slow every command's start-up
    return np.polynomial.legendre.leggauss(n)


def gauss_sum(k: int, l: int, c: int) -> complex:
    """G(k, l; c) = sum_{d=1}^{c} e((k*d^2 + l*d)/c), gcd(k, c) = 1."""
    k, l, c = index(k, "k"), index(l, "l"), index(c, "c")
    if c < 1:
        raise OutOfRangeError("modulus must be positive")
    if math.gcd(k, c) != 1:
        raise NotCoprimeError(f"k={k} shares a factor with c={c}")
    k %= c
    l %= c
    reserve("Gauss sum", c, "terms", _GAUSS_TERM_BYTES)
    d = np.arange(1, c + 1, dtype=np.int64)
    ph = (k * (d * d % c) + l * d) % c
    return complex(np.sum(cexp(ph / c)))


def gauss_sum_row(k: int, c: int) -> np.ndarray:
    """G(k, l; c) for all l = 0..c-1 at once.

    The row over l is the inverse-DFT (times c) of the quadratic phase
    vector e(k*d^2/c), which keeps full-sweep checks affordable.  Agrees
    with gauss_sum entry by entry.
    """
    k, c = index(k, "k"), index(c, "c")
    if c < 1:
        raise OutOfRangeError("modulus must be positive")
    if math.gcd(k, c) != 1:
        raise NotCoprimeError(f"k={k} shares a factor with c={c}")
    k %= c
    reserve("Gauss sum row", c, "terms", _GAUSS_TERM_BYTES)
    d = np.arange(c, dtype=np.int64)
    v = cexp(((k * (d * d % c)) % c) / c)
    return c * np.fft.ifft(v)


def poisson_residual(scale: float, shift: float) -> float:
    """|direct - transform| for Poisson summation of f(x) = phi((x-shift)/scale).

    Direct side truncated at |n| <= T = 10^6; with phi <= 1/(4*x^2) the
    discarded tail is below scale^2/(2*(T - |shift|)), under 1e-6 for
    unit-order scale.  Transform side sum_n scale * e(n*shift) *
    phi_hat(n*scale) is finite because phi_hat has compact support.
    """
    if not (0 < scale < math.inf and math.isfinite(shift)):
        raise OutOfRangeError("need a finite positive scale and a finite shift")
    n = np.arange(-_POISSON_TRUNC, _POISSON_TRUNC + 1, dtype=np.float64)
    direct = float(np.sum(phi_value((n - shift) / scale)))
    m_max = int(math.floor(1.0 / scale)) + 1
    m = np.arange(-m_max, m_max + 1, dtype=np.float64)
    transform = np.sum(scale * cexp(m * shift) * phi_hat_value(m * scale))
    return float(abs(direct - transform))


def linear_phase_integral(j: int, z: float, q0: float) -> complex:
    """Closed form of int_{Q0}^{2*Q0} e(w*y) dy for w = j*z != 0.

    With a = w*Q0 it is (e(2a) - e(a)) / (2*pi*i*w), which equals
    e(3a/2) * sin(pi*a) / (pi*w): the product has no cancellation at
    small a.  sin(pi*|a|) is the imaginary part of e(|a|/2), whose
    reduction in cexp is exact for a phase that is not negative.
    """
    w = j * z
    a = w * q0
    return complex(cexp(1.5 * a) * (cexp(0.5 * abs(a)).imag / (math.pi * abs(w))))


def oscillatory_integral(j: int, l: int, r_star: int, z: float, q0: float) -> complex:
    """int_{Q0}^{2*Q0} e(j*y*z - l*sqrt(y)/r_star) dy.

    Returns exactly Q0 when both frequencies vanish.  Otherwise the range
    is cut into P = max(16, ceil(cycles)) equal panels, each integrated
    with 16-point Gauss-Legendre, and P is doubled until two successive
    answers agree within 1e-6 * Q0 absolute, split across the
    comparison.

    Why one panel per cycle suffices: on [Q0, 2*Q0] the phase's
    derivative is at most |j*z| + |l|/(2*r_star*sqrt(Q0)), while
    cycles = |j*z|*Q0 + |l|*(sqrt(2*Q0) - sqrt(Q0))/r_star.  So a panel
    of width Q0/P spans at most 0.5/(sqrt(2) - 1) ~ 1.21 cycles, about
    7.6 radians.  For a linear phase the 16-point rule's error term there,
    width * 7.6^32 * (16!)^4 / (33 * (32!)^3), is about 5e-27 of the
    width, many orders below double rounding; the sqrt term bends the
    phase little over a panel at most Q0/16 wide.  The doubling stays as
    the convergence certificate; in practice it stops at 2P.

    Raises OutOfRangeError for a non-finite z or Q0, Q0 <= 0, r_star < 1
    or a j or l past float range, and QuadratureError, before any
    evaluation, when the first doubling would pass the panel budget, or
    later when the budget runs out.
    """
    if not (math.isfinite(z) and math.isfinite(q0)) or q0 <= 0 or r_star < 1:
        raise OutOfRangeError("need finite z, finite Q0 > 0 and r_star >= 1")
    if j == 0 and l == 0:
        return complex(q0)
    try:
        cycles = abs(j * z) * q0 + abs(l) * (math.sqrt(2 * q0) - math.sqrt(q0)) / r_star
    except OverflowError as exc:
        raise OutOfRangeError("frequencies j and l must lie in float range") from exc
    if cycles > _PANEL_BUDGET // 2:
        # the first doubling of max(16, ceil(cycles)) panels would pass the budget
        raise QuadratureError(f"oscillatory integral needs more than {_PANEL_BUDGET} panels")
    panels = max(16, math.ceil(cycles))
    prev = _osc_eval(j, l, r_star, z, q0, panels)
    while True:
        panels *= 2
        if panels > _PANEL_BUDGET:
            raise QuadratureError(f"oscillatory integral needs more than {_PANEL_BUDGET} panels")
        cur = _osc_eval(j, l, r_star, z, q0, panels)
        if abs(cur - prev) <= 0.5 * (1e-6 * q0):
            return cur
        prev = cur


def _osc_eval(j: int, l: int, r_star: int, z: float, q0: float, panels: int) -> complex:
    nodes, weights = _gl_nodes(_QUAD_NODES)
    width = q0 / panels
    total = 0.0 + 0.0j
    # chunk panels so the node matrix stays within memory
    chunk = max(1, (1 << 22) // _QUAD_NODES)
    for start in range(0, panels, chunk):
        stop = min(panels, start + chunk)
        left = q0 + width * np.arange(start, stop, dtype=np.float64)
        y = left[:, None] + 0.5 * width * (nodes[None, :] + 1.0)
        ph = j * z * y - l * np.sqrt(y) / r_star
        vals = cexp(ph)
        total += complex(np.sum(vals @ weights) * 0.5 * width)
    return total
