"""Brute-force reference implementations for cross-checking.

Every function here recomputes a fast-path quantity by the most literal
method available: per-point evaluation instead of bucketing, python
loops instead of vectorized scans, direct enumeration instead of
arithmetic shortcuts, numerical quadrature instead of closed forms.
Where a maximum over a continuum is involved the oracle rederives its
own candidate points.  Comparison predicates are kept textually
identical to the fast path so that float rounding cannot manufacture
spurious mismatches; only the mechanism differs.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .arith import divisors
from .bounds import _grid_z
from .counting import WindowQuery
from .errors import InvalidDeltaError, NotCoprimeError
from .harmonic import phi_value
from .moduli import FareyList, ModuliSet, derive_subset
from .sequences import CoefficientSequence, eval_exp_sum

# pi to 36 digits: np.pi is a double, 1.2e-16 short of pi
_PI_LONG = np.longdouble("3.14159265358979323846264338327950288")


def cexp_reference(x) -> np.ndarray:
    """exp(2*pi*i*t) for t = x % 1.0, elementwise, as complex long double.

    t is the double that numpy's remainder gives, the phase util.cexp
    evaluates; its own rounding (at most 2^-54, for negative x) is not
    counted here, as cexp's reduction is checked against x % 1.0 bit for
    bit.  Needs an 80-bit (x87) or wider long double, with at least 63
    mantissa bits: then 2*pi*t, cosl and sinl are each good to a few
    parts in 10^19, far below cexp's 1.5e-16.  Where long double is a
    plain double the reference is no better than cexp, so callers check
    np.finfo(np.longdouble).nmant first.
    """
    t = np.remainder(np.asarray(x, dtype=np.float64), 1.0).astype(np.longdouble)
    theta = 2 * _PI_LONG * t
    out = np.empty(t.shape, dtype=np.clongdouble)
    out.real = np.cos(theta)
    out.imag = np.sin(theta)
    return out


def naive_sieve_lhs(seq: CoefficientSequence, s: ModuliSet) -> float:
    """Double loop over moduli and reduced numerators, direct S(a/q)."""
    total = 0.0
    for q in s.elements:
        q = int(q)
        for a in range(1, q + 1):
            if math.gcd(a, q) == 1:
                total += abs(eval_exp_sum(seq, a / q)) ** 2
    return total


def direct_fold(values: np.ndarray, q: int) -> np.ndarray:
    """The residue-class sums of the whole array mod q: its whole rows
    of q summed in order, then the last partial row added."""
    full = values.size - values.size % q
    fold = values[:full].reshape(-1, q).sum(0)
    fold[: values.size - full] += values[full:]
    return fold


def reduced_power(fold: np.ndarray) -> float:
    """Sum of |S(a/q)|^2 over a mod q coprime to q, from one FFT of the
    length-q fold: the transform counterpart of bounds._modulus_term.

    Index i of the fold holds the a_n with n = i + 1 mod q, so numpy's
    forward FFT, sum_i b_i e(-i*k/q), is e(-a/q) S(a/q) at k = -a mod q,
    and a -> -a permutes the reduced residues: the sum runs over the
    indices coprime to q.  O(q log q); given direct_fold's fold it shares
    nothing with the sieve sum's streamed fold, lattice or Moebius
    refolds.  The FFT's twiddles are numpy's own, not util.cexp's.
    """
    x = np.fft.fft(fold)[_units_mask(fold.size)].view(np.float64)
    return float(np.sum(x * x))


def _units_mask(q: int) -> np.ndarray:
    """mask[k] = gcd(k, q) == 1 for k = 0..q-1: the multiples of each
    prime of q, found by trial division, struck out."""
    mask = np.ones(q, dtype=bool)
    m, p = q, 2
    while p * p <= m:
        if m % p == 0:
            mask[::p] = False
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        mask[::m] = False
    return mask


def count_window_oracle(s_t: ModuliSet, query: WindowQuery, m_off: float,
                        span: float) -> int:
    """Window count by scanning every candidate anchor one at a time."""
    t, u, k, l = query.t, query.u, query.k, query.l
    lo = m_off / t
    hi = (m_off + span) / t
    cls = [int(q) for q in s_t.elements if q % k == l % k]
    if not cls or u <= 0:
        return 0
    best = 0
    for y in (lo, hi):
        best = max(best, sum(1 for q in cls if y < q <= y + u))
    for qa in cls:
        if lo <= qa - u <= hi:
            best = max(best, sum(1 for q in cls if 0 <= qa - q < u))
    return best


def k_delta_oracle(farey: FareyList, delta: float) -> int:
    """Max circular crowding, one candidate window edge at a time.

    A window of circular width 2*delta attains its maximal content with
    the left edge on some fraction, so each fraction is tried as the
    edge and membership is tested by the wrapped offset.
    """
    if not 0.0 < delta <= 0.5:
        raise InvalidDeltaError(f"delta={delta} outside (0, 1/2]")
    vals = [float(v) for v in farey.values]
    best = 0
    for v in vals:
        cnt = 0
        for w in vals:
            # same float expressions as the doubled-array fast path
            if w >= v:
                cnt += w <= v + 2.0 * delta
            else:
                cnt += w + 1.0 <= v + 2.0 * delta
        best = max(best, cnt)
    return best


def p_alpha_oracle(farey: FareyList, alpha: float, delta: float) -> int:
    """Linear-scan count of fractions inside [alpha-delta, alpha+delta]."""
    lo = alpha - delta
    hi = alpha + delta
    return sum(1 for v in farey.values if lo <= v <= hi)


def pi_count_oracle(s: ModuliSet, b: int, r: int, z: float, delta: float,
                    y: float) -> int:
    """Direct double loop over set elements and integers m."""
    if r < 1:
        raise ValueError("need r >= 1")
    jlo = (y - 4.0 * delta) * r * z
    jhi = (y + 4.0 * delta) * r * z
    if jhi < jlo:
        return 0
    total = 0
    for q in s.elements:
        q = int(q)
        if not (y - delta <= q <= y + delta):
            continue
        m = math.ceil(jlo)
        while m <= jhi:
            if m != 0 and (m + b * q) % r == 0:
                total += 1
            m += 1
    return total


def gauss_sum_oracle(k: int, l: int, c: int) -> complex:
    """Term-by-term Gauss sum via cmath, no arrays."""
    if c < 1:
        raise ValueError("modulus must be positive")
    if math.gcd(k, c) != 1:
        raise NotCoprimeError(f"k={k} shares a factor with c={c}")
    total = 0j
    for d in range(1, c + 1):
        total += cmath.exp(2j * cmath.pi * (((k * d * d + l * d) % c) / c))
    return total


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


def quad_cong_roots_scan(g: int, l: int, k: int) -> tuple[int, list[int]]:
    """arith.quad_cong_roots by full scan of x mod k, O(k)."""
    if k < 1:
        raise ValueError("modulus must be positive")
    g %= k
    l %= k
    if 1 < k <= 1 << 21:
        # g*x*x stays under 2^63 here, so the scan can run on int64
        x = np.arange(k, dtype=np.int64)
        roots = np.nonzero((g * x * x - l) % k == 0)[0].tolist()
    else:
        roots = [x for x in range(k) if (g * x * x - l) % k == 0]
    return len(roots), roots


def phi_hat_by_quadrature(s: float, panels: int = 4000) -> float:
    """Independent numerical Fourier transform of phi at s.

    phi is even, so phi_hat(s) = 2 * int_0^inf phi(y) cos(2*pi*s*y) dy.
    The head [0, panels] is integrated with 32-point Gauss-Legendre per
    unit panel; the tail uses the expansion of phi into three cosine
    frequencies {|s|, |s|+1, ||s|-1|} against 1/(8*y^2), each handled by
    a four-term integration-by-parts series.  Avoid |s| so close to 1
    that a tail frequency nearly vanishes; the stock check points stay
    clear of that.
    """
    w = 2.0 * np.pi * abs(s)
    nodes, weights = np.polynomial.legendre.leggauss(32)
    starts = np.arange(panels, dtype=np.float64)
    y = starts[:, None] + 0.5 * (nodes[None, :] + 1.0)
    vals = phi_value(y) * np.cos(w * y)
    head = float(np.sum(vals @ weights) * 0.5)
    t = float(panels)
    tail = (_cos_tail(w, t) - 0.5 * _cos_tail(2 * np.pi + w, t)
            - 0.5 * _cos_tail(abs(2 * np.pi - w), t)) / 8.0
    return 2.0 * (head + tail)


def _cos_tail(omega: float, t: float) -> float:
    """int_t^inf cos(omega*y) / y^2 dy by parts, four terms."""
    if omega == 0.0:
        return 1.0 / t
    s_, c_ = math.sin(omega * t), math.cos(omega * t)
    # d/dy chains: each integration by parts trades one power of y for 1/omega
    return (-s_ / (omega * t**2)
            + 2.0 * c_ / (omega**2 * t**3)
            + 6.0 * s_ / (omega**3 * t**4)
            - 24.0 * c_ / (omega**4 * t**5))


def sqrt_phase_integral(l: int, r: int, q0: float) -> complex:
    """Closed form of int_{Q0}^{2*Q0} e(-l*sqrt(y)/r) dy for l != 0.

    Through s = sqrt(y) the integral is int 2*s*e^(i*beta*s) ds with
    beta = -2*pi*l/r, whose antiderivative is
    2*e^(i*beta*s)*(s/(i*beta) + 1/beta^2), taken over sqrt(Q0)..sqrt(2*Q0).
    """
    beta = -2.0 * math.pi * l / r

    def anti(s: float) -> complex:
        return 2.0 * cmath.exp(1j * beta * s) * (s / (1j * beta) + 1.0 / beta**2)

    return anti(math.sqrt(2.0 * q0)) - anti(math.sqrt(q0))


def bracket_oracle(s: ModuliSet, n: int) -> tuple[float, float]:
    """Exhaustive bracket maximum for desk-scale sets.

    Breakpoints of the piecewise-constant objective are rederived by
    plain loops, the frequency sum runs over every m individually, and
    each window count goes through count_window_oracle.  Only sensible
    for tiny N and sets; this is the ground truth for the fast bracket.
    """
    span = s.Q
    best = 0
    for r in range(1, math.isqrt(n) + 1):
        z_lo = 1.0 / n
        z_hi = 1.0 / (r * math.sqrt(n))
        pts = {z_lo, z_hi}
        for t in divisors(r):
            st = derive_subset(s, t)
            j = 1
            while j * t / (6.0 * r * span) < z_hi:
                z = j * t / (6.0 * r * span)
                if z > z_lo:
                    pts.add(z)
                j += 1
            lo = s.M / t
            elems = [int(q) for q in st.elements]
            for qa in elems:
                for qb in elems:
                    if qa > qb:
                        z = 2.0 * span / (t * n * (qa - qb))
                        if z_lo < z < z_hi:
                            pts.add(z)
                if qa > lo:
                    z = 2.0 * span / (t * n * (qa - lo))
                    if z_lo < z < z_hi:
                        pts.add(z)
        zs = sorted(pts)
        probes = list(zs)
        for i in range(len(zs) - 1):
            probes.append(0.5 * (zs[i] + zs[i + 1]))
        for z in probes:
            for h in range(r):
                if math.gcd(h, r) != 1:
                    continue
                tot = 0
                for t in divisors(r):
                    st = derive_subset(s, t)
                    k = r // t
                    u = 2.0 * span / (t * z * n)
                    m_max = int(math.floor(6.0 * r * z * span / t))
                    for m in range(-m_max, m_max + 1):
                        if m == 0 or math.gcd(m, k) != 1:
                            continue
                        tot += count_window_oracle(
                            st, WindowQuery(u, k, (h * m) % k, t), s.M, s.Q)
                best = max(best, tot)
    return float(best), float(n) * (1.0 + float(best))


def grid_bracket_oracle(s: ModuliSet, n: int, z_grid: int) -> tuple[float, float]:
    """Grid-mode bracket maximum by the direct loop over h.

    The z values are sieve_bracket's grid; at each one every frequency m
    is counted into its class mod k by a plain loop, each class's window
    count comes from count_window_oracle, and every reduced h sums count
    times window over the classes h*m.  A reference for grid mode at
    sizes the exhaustive bracket_oracle cannot reach.  It takes every
    unit h mod r, so it checks sieve_bracket's restriction to h <= r/2
    independently.
    """
    span = s.Q
    best = 0
    for r in range(1, math.isqrt(n) + 1):
        hs = [h for h in range(r) if math.gcd(h, r) == 1]
        for z in _grid_z(r, n, z_grid):
            tots = [0] * len(hs)
            for t in divisors(r):
                st = derive_subset(s, t)
                k = r // t
                u = 2.0 * span / (t * z * n)
                m_max = int(math.floor(6.0 * r * z * span / t))
                counts = {}
                for m in range(-m_max, m_max + 1):
                    if m != 0 and math.gcd(m, k) == 1:
                        counts[m % k] = counts.get(m % k, 0) + 1
                windows = {}
                for i, h in enumerate(hs):
                    for l, c in counts.items():
                        cls = (h * l) % k
                        if cls not in windows:
                            windows[cls] = count_window_oracle(
                                st, WindowQuery(u, k, cls, t), s.M, s.Q)
                        tots[i] += c * windows[cls]
            best = max(best, max(tots))
    return float(best), float(n) * (1.0 + float(best))
