"""Measured large-sieve sums and the named bound shapes they are held
against.

sieve_lhs measures the quantity itself: the sum of |S(a/q)|^2 over the
reduced fractions of every modulus in a set.  It never evaluates S: the
coefficients are folded into residue buckets mod q, Parseval turns the
bucket norm at each divisor d of q into the sum of |S(a/d)|^2 over all
a mod d, and Moebius inversion keeps the reduced fractions.
bound_shapes evaluates a registry of closed-form shapes (per unit of
the coefficient power Z), with all absolute constants set to 1, so the
report layer presents ratios rather than certified inequalities.  The
one exception is the classical shape N + span^2, which is a true
constant-free bound and is certified as such in the tests.

sieve_bracket evaluates the window-count bracket N*(1+B), where B is a
maximum over frequencies h and points z of one dilate window sum: the
window counts of each dilate's classes, weighted by how many
frequencies fall in each class.  Its exact mode finds the breakpoints
in z from the element differences that k divides.
farey_crowding_shape, which bounds how many fractions with moduli in
the set crowd a rational point b/r, is the same sum at h = -b and one z;
crowding_shape_estimates gives closed-form estimates for that count.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .counting import window_count_profile
from .errors import (CapacityError, InvalidRegimeError, NotCoprimeError,
                     OutOfRangeError, ShapeDomainError)
from .moduli import ModuliSet, derive_subset
from .sequences import CoefficientSequence
from .arith import divisors, factorize
from .util import fmt17

_REGIME_SLACK = 1e-12
_BRACKET_CHUNK = 1 << 22  # (h, row, z) entries one bracket gather may hold

SHAPE_NAMES = (
    "classical",
    "single_modulus",
    "squares_classical",
    "squares_summed",
    "zhao",
    "zhao_conjecture",
    "sparse_ap",
    "squares_refined",
    "squares_fourier",
    "elliott",
    "wolke",
)


def _fold(values: np.ndarray, q: int) -> np.ndarray:
    """Residue-class sums of values[i] over i mod q.

    values[i] holds a_{i+1}, so these are the buckets of n mod q shifted
    cyclically by one place; every norm taken of a fold is invariant
    under that shift.  The sequence is reshaped, not copied or indexed.
    """
    full = values.size - values.size % q
    fold = values[:full].reshape(-1, q).sum(0)
    fold[: values.size - full] += values[full:]
    return fold


def _modulus_term(values: np.ndarray, q: int) -> float:
    """Sum of |S(a/q)|^2 over a mod q coprime to q.

    Parseval at each divisor d of q gives sum over all a mod d of
    |S(a/d)|^2 = d * ||fold_d||^2, and Moebius inversion over the reduced
    fractions keeps the denominators equal to q: the result is the sum
    over squarefree m | q of mu(m) * (q/m) * ||fold_{q/m}||^2.  Each
    fold_{q/m} is refolded from the length-q fold.
    """
    fold = _fold(values, q)
    total = 0.0
    for m, sign in _squarefree_divisors(q):
        part = fold.reshape(m, q // m).sum(0)
        x = part.view(np.float64)
        total += sign * (q // m) * float(np.sum(x * x))
    return total


def _squarefree_divisors(q: int) -> list[tuple[int, int]]:
    """(m, mu(m)) for every squarefree m dividing q, m = 1 first."""
    out = [(1, 1)]
    for p, _ in factorize(q):
        out += [(m * p, -sign) for m, sign in out]
    return out


def sieve_lhs(seq: CoefficientSequence, s: ModuliSet, threads: int = 1,
              capacity: int = 10**8) -> float:
    """Sum over q in s and reduced a mod q of |S(a/q)|^2.

    Each modulus costs one pass over the sequence plus O(q * 2^omega(q))
    for its refolds; no transform is taken.  capacity caps the fold
    entries held at once, the largest modulus times the number of
    moduli in flight.  Work is split per modulus; partial sums are
    always reduced in element order, so the result is identical for
    every thread count.
    """
    qs = [int(q) for q in s.elements]
    entries = max(qs, default=0) * min(threads, len(qs))
    if entries > capacity:
        raise CapacityError(f"sieve sum folds need {16 * entries} bytes "
                            f"({entries} entries), over capacity {capacity} entries")
    if threads > 1 and len(qs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            terms = list(pool.map(lambda q: _modulus_term(seq.values, q), qs))
    else:
        terms = [_modulus_term(seq.values, q) for q in qs]
    total = 0.0
    for term in terms:
        total += term
    return total


def bound_shapes(n, q, *, s_count=None, eps: float = 0.0, x=None,
                 require=()) -> dict[str, float]:
    """Evaluate every applicable named shape at (n, q), per unit Z.

    n is the sequence length and q the headline modulus parameter of the
    shape family (for square moduli, the cap on the roots; otherwise the
    span).  s_count is the number of moduli in the set and feeds the
    sparse_ap and elliott shapes; x is the window well-distribution
    factor of sparse_ap.  Shapes whose inputs are missing or whose
    domain conditions fail are left out of the map; listing a name in
    require turns that omission into ShapeDomainError.

    All constants are 1 and eps exponents are applied literally, so the
    values are comparison shapes, not certified bounds.  Every value is
    a finite positive float: inputs that take a shape outside the floats
    (a huge or non-finite eps, say) raise OutOfRangeError.
    """
    n = float(n)
    q = float(q)
    if n <= 0 or q <= 0:
        raise OutOfRangeError("n and q must be positive")
    where = f"at n={n:g}, q={q:g}, eps={eps:g}"
    try:
        shapes = _shape_values(n, q, s_count, eps, x)
    except OverflowError as exc:
        raise OutOfRangeError(f"shapes overflow the floats {where}") from exc
    for name, val in shapes.items():
        if not 0.0 < val < math.inf:
            raise OutOfRangeError(f"shape {name} = {val} is not a finite "
                                  f"positive float {where}")
    missing = [name for name in require if name not in shapes]
    if missing:
        raise ShapeDomainError(f"required shapes unavailable here: {', '.join(missing)}")
    return shapes


def _shape_values(n: float, q: float, s_count, eps: float, x) -> dict[str, float]:
    shapes: dict[str, float] = {}
    shapes["classical"] = n + q * q
    shapes["single_modulus"] = n + q * q
    shapes["squares_classical"] = n + q**4
    shapes["squares_summed"] = q * (n + q * q)
    if q > 0.5:
        lg = math.log(2.0 * q)
        shapes["zhao"] = lg * (q**3 + (n * math.sqrt(q) + math.sqrt(n) * q * q) * n**eps)
        shapes["squares_refined"] = lg * n**eps * (q**3 + n + math.sqrt(n) * q * q)
    shapes["zhao_conjecture"] = q**eps * (q**3 + n)
    if q <= n ** (5.0 / 12.0):
        shapes["squares_fourier"] = q ** (0.6 + eps) * n
    else:
        shapes["squares_fourier"] = q ** (3.0 + eps)
    if s_count is not None:
        shapes["elliott"] = n + q * float(s_count)
        if x is not None:
            shapes["sparse_ap"] = n + q * float(x) * n**eps * (math.sqrt(n) + float(s_count))
    wolke = _wolke_shape(n, q)
    if wolke is not None:
        shapes["wolke"] = wolke
    return shapes


def _wolke_shape(n: float, q: float):
    # needs q >= 10 and n = q^(1+d) with 0 < d < 1
    if q < 10.0:
        return None
    d = math.log(n) / math.log(q) - 1.0
    if not 0.0 < d < 1.0:
        return None
    return q * q * math.log(math.log(q)) / ((1.0 - d) * math.log(q))


def _reduced_residues(k: int) -> np.ndarray:
    return np.flatnonzero(np.gcd(np.arange(k), k) == 1)


def _signed_class_counts(m_max: np.ndarray, k: int) -> np.ndarray:
    """(k, len(m_max)) array: how many m with 0 < |m| <= m_max[j] fall in
    each class l mod k, for every l.

    The positive m = l (mod k) up to M number (M - f)//k + 1, with f the
    least positive member of the class (l, or k for l = 0); the negative
    ones are the positive members of class -l.
    """
    first = (np.arange(k) - 1) % k + 1
    pos = (np.asarray(m_max, dtype=np.int64)[None, :] - first[:, None]) // k + 1
    return pos + pos[(-np.arange(k)) % k]


def _dilate_terms(s: ModuliSet, dilates: dict[int, ModuliSet], r: int,
                  zs: np.ndarray, width) -> list:
    """(k, classes, profiles, counts) for each divisor t of r, k = r/t,
    whose t-dilate has a nonempty class mod k coprime to k.

    Each such class gets one row of window counts over the widths
    width(t) (a function, so that each caller keeps its own float
    expression), all from one grouped pass; counts[m] holds how many
    frequencies 0 < |m'| <= 6*r*z*span/t lie in residue m, one column
    per z in zs (closed form).
    """
    span = s.Q
    terms = []
    for t in divisors(r):
        el = dilates[t].elements
        k = r // t
        cls = el % k
        keep = np.gcd(cls, k) == 1
        ls, prof = window_count_profile(el[keep], width(t), s.M / t, (s.M + span) / t,
                                        labels=cls[keep])
        if ls.size:
            counts = _signed_class_counts(np.floor(6.0 * r * zs * span / t).astype(np.int64), k)
            terms.append((k, ls, prof, counts))
    return terms


def _window_sum(terms: list, h: np.ndarray):
    """Dilate window sums at the frequencies h (a column), one row per h
    and one column per z: the sum over the terms of prof[l] *
    counts[h*l mod k].  0 when there are no terms."""
    return sum((counts[(h * ls) % k] * prof).sum(axis=1) for k, ls, prof, counts in terms)


def _bracket_eval(s: ModuliSet, n: int, r: int, zs: np.ndarray,
                  dilates: dict[int, ModuliSet]) -> int:
    """Max over z in zs and reduced h mod r of the bracket's window sum.

    For each divisor t of r, with k = r/t, the sum adds the window count
    (width 2*span/(t*z*N)) of the t-dilate's class h*m mod k over the
    frequencies m coprime to k with 0 < |m| <= m_max(z).  By class
    l = h*m that is the sum of prof[l] * counts[h^-1 * l]; since h runs
    over a group, writing h for h^-1 leaves the maximum unchanged, so
    _window_sum gathers through h*l mod k, in chunks over h that keep
    its (h, class, z) entries bounded.
    """
    span = s.Q
    terms = _dilate_terms(s, dilates, r, zs, lambda t: 2.0 * span / (t * zs * n))
    if not terms:
        return 0
    hs = _reduced_residues(r)
    step = max(1, _BRACKET_CHUNK // max(prof.size for _, _, prof, _ in terms))
    return max(int(_window_sum(terms, hs[start : start + step, None]).max())
               for start in range(0, hs.size, step))


def _grid_z(r: int, n: int, points: int) -> np.ndarray:
    z_lo = 1.0 / n
    z_hi = 1.0 / (r * math.sqrt(n))
    g = max(2, points)
    ratio = z_hi / z_lo
    # int/int true division is correctly rounded, so j/(g-1) and
    # (65*j)/(65*(g-1)) are the same float and coarse grids are exact
    # subsets of their refinements: bit-identical z values.
    return np.array([z_lo * ratio ** (j / (g - 1)) for j in range(g)])


def _exact_z(s: ModuliSet, n: int, r: int, dilates: dict[int, ModuliSet]) -> np.ndarray:
    """Breakpoints of the bracket objective in z, plus midpoints.

    The objective is piecewise constant in z: window counts change only
    where the width 2*span/(t*z*n) crosses a difference of two elements
    in one class mod k or an element's gap to the lower endpoint, and
    the m-range changes only where 6*r*z*span/t crosses an integer.  Two
    elements coprime to k share a class exactly when k divides their
    difference, so the widths are the differences c[i:] - c[:-i] that k
    divides, marked over [0, span] with no n x n array.  Evaluating at
    every breakpoint and between each adjacent pair covers every value
    the objective takes, so the result is the exact maximum.
    """
    span = s.Q
    z_lo = 1.0 / n
    z_hi = 1.0 / (r * math.sqrt(n))
    pts = []
    for t in divisors(r):
        k = r // t
        c = dilates[t].elements
        c = c[np.gcd(c, k) == 1]
        jmax = int(math.floor(6.0 * r * z_hi * span / t))
        pts.append(np.arange(1, jmax + 1) * t / (6.0 * r * span))
        if c.size == 0:
            continue
        mark = np.zeros(int(c[-1] - c[0]) + 1, dtype=bool)
        for i in range(1, c.size):
            d = c[i:] - c[:-i]
            mark[d[d % k == 0]] = True
        cf = c.astype(np.float64)
        widths = np.concatenate([np.flatnonzero(mark), cf[cf > s.M / t] - s.M / t])
        pts.append(2.0 * span / (t * n * widths))
    z = np.concatenate(pts)
    zs = np.unique(np.concatenate([[z_lo, z_hi], z[(z_lo < z) & (z < z_hi)]]))
    mids = 0.5 * (zs[1:] + zs[:-1])
    return np.unique(np.concatenate([zs, mids]))


def sieve_bracket(s: ModuliSet, n: int, z_grid: int = 64, mode: str = "grid",
                  threads: int = 1) -> tuple[float, float]:
    """(B, N*(1+B)) with B the bracket maximum over r <= sqrt(N).

    For each r the inner maximum runs over frequencies h coprime to r
    and over z in [1/N, 1/(r*sqrt(N))], summing window counts of every
    dilate of s by a divisor of r.  In grid mode z is sampled on a
    geometric grid of z_grid points including both endpoints, so B is a
    lower bound of the true supremum that never decreases under grid
    refinement (refined grids contain the coarse points exactly).  Exact
    mode enumerates the breakpoints of the piecewise-constant objective
    instead; it is the slow reference.
    """
    n = int(n)
    if n < 4:
        raise OutOfRangeError("bracket needs N >= 4")
    if mode not in ("grid", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    rs = range(1, math.isqrt(n) + 1)
    # the divisors of every r are 1..sqrt(N): build each dilate once, up
    # front, so that the workers only read them
    dilates = {t: derive_subset(s, t) for t in rs}

    def one(r: int) -> int:
        zs = _grid_z(r, n, z_grid) if mode == "grid" else _exact_z(s, n, r, dilates)
        return _bracket_eval(s, n, r, zs, dilates)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            vals = list(pool.map(one, rs))
    else:
        vals = [one(r) for r in rs]
    b = float(max(vals, default=0))
    return b, float(n) * (1.0 + b)


def _check_regime(r: int, z: float, delta: float) -> None:
    if not 0.0 < delta <= 0.5:
        raise InvalidRegimeError(f"delta={delta} outside (0, 1/2]")
    lo = delta * (1.0 - _REGIME_SLACK)
    hi = math.sqrt(delta) / r * (1.0 + _REGIME_SLACK)
    if not lo <= z <= hi:
        raise InvalidRegimeError(f"z={z} outside [delta, sqrt(delta)/r] for r={r}")


def farey_crowding_shape(s: ModuliSet, b: int, r: int, z: float,
                         delta: float) -> float:
    """Window-count bound for fractions a/q, q in s, crowding b/r + z.

    Requires gcd(b, r) = 1, delta in (0, 1/2] and z in [delta,
    sqrt(delta)/r].  The value is 2 plus the bracket's window sum at the
    one point z, width 2*delta*span/(t*z), and the one frequency
    h = -b mod r: for each divisor t of r, with k = r/t, the t-dilate's
    window counts in the classes -b^-1 * m mod k over the frequencies m
    coprime to k with 0 < |m| <= 6*r*z*span/t.  Class c meets the
    frequencies m = -b*c (mod k), which is h*c mod k as k divides r.
    """
    if math.gcd(b, r) != 1:
        raise NotCoprimeError(f"b={b} shares a factor with r={r}")
    _check_regime(r, z, delta)
    span = s.Q
    zs = np.array([z])
    dilates = {t: derive_subset(s, t) for t in divisors(r)}
    terms = _dilate_terms(s, dilates, r, zs, lambda t: 2.0 * delta * span / (t * zs))
    return 2.0 + float(np.sum(_window_sum(terms, np.array([[(-b) % r]]))))


def crowding_shape_estimates(r: int, z: float, delta: float, q0: float,
                             s_count: float, x: float,
                             eps: float = 0.0) -> dict[str, float]:
    """Closed-form estimates for the crowding count near b/r + z.

    well_distributed assumes window counts obey the well-distribution
    factor x; window_route and fourier_route are the two unconditional
    routes for square moduli in an octave (Q0, 2*Q0], and combined is
    their balanced merge.  Same regime requirements as
    farey_crowding_shape.
    """
    _check_regime(r, z, delta)
    if q0 <= 0:
        raise OutOfRangeError("q0 must be positive")
    damp = delta ** (-eps)
    return {
        "well_distributed": 1.0 + q0 * x * damp * (r * z + delta * s_count),
        "window_route": damp * (1.0 + q0 * r * z + q0**1.5 * delta),
        "fourier_route": damp * (q0**1.5 * delta
                                 + math.sqrt(q0) * delta / (math.sqrt(r) * z)
                                 + delta**-0.25),
        "combined": damp * (q0**1.5 * delta + delta**-0.25),
    }


@dataclass(frozen=True)
class BoundReport:
    """Measured sieve sum next to every applicable shape, with ratios."""

    N: int
    Q: float
    Q0: float | None
    Z: float
    lhs: float
    shapes: dict[str, float]
    ratios: dict[str, float]
    epsilon: float = 0.0
    X: float | None = None

    def __post_init__(self):
        for name, val in self.shapes.items():
            if not val > 0:
                raise ValueError(f"shape {name} is not positive: {val}")
            want = self.lhs / (val * self.Z)
            got = self.ratios[name]
            if abs(got - want) > 1e-12 * max(abs(want), 1.0):
                raise ValueError(f"ratio for {name} inconsistent with lhs/(shape*Z)")

    def to_json(self) -> str:
        return json.dumps({
            "N": self.N, "Q": self.Q, "Q0": self.Q0, "Z": self.Z,
            "lhs": self.lhs, "shapes": self.shapes, "ratios": self.ratios,
            "epsilon": self.epsilon, "X": self.X,
        }, indent=2, sort_keys=False)

    def csv_rows(self) -> list[list[str]]:
        """Header plus one row per applicable shape, full float precision."""
        rows = [["name", "value", "ratio"]]
        for name in SHAPE_NAMES:
            if name in self.shapes:
                rows.append([name, fmt17(self.shapes[name]),
                             fmt17(self.ratios[name])])
        return rows


def build_report(seq: CoefficientSequence | None, s: ModuliSet, *, n=None,
                 eps: float = 0.0, x=None, s_count=None,
                 threads: int = 1) -> BoundReport:
    """Measure the sieve sum over s and compare against every shape.

    The shape parameter q is the set's root cap for sets built as
    squares up to a cap, and the interval span otherwise.  Shapes are
    formula evaluations at the reported (N, Q), not certified bounds.
    With seq None nothing is measured: the report holds the shapes at
    length n, with lhs 0, Z 1 and every ratio 0.
    """
    if s_count is None:
        s_count = s.size
    q_shape = s.param if s.kind == "squares_up_to" else s.Q
    q0 = s.param if s.kind == "squares_in_octave" else None
    if seq is not None:
        n = seq.N
    shapes = bound_shapes(n, q_shape, s_count=s_count, eps=eps, x=x)
    if seq is None:
        lhs, z = 0.0, 1.0
    else:
        lhs, z = sieve_lhs(seq, s, threads=threads), seq.Z
    ratios = {name: lhs / (val * z) for name, val in shapes.items()}
    return BoundReport(N=n, Q=float(q_shape), Q0=q0, Z=z, lhs=lhs,
                       shapes=shapes, ratios=ratios, epsilon=eps,
                       X=None if x is None else float(x))
