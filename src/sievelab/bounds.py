"""Measured large-sieve sums and the named bound shapes they are held
against.

sieve_lhs measures the quantity itself: the sum of |S(a/q)|^2 over the
reduced fractions of every modulus in a set.  It never evaluates S: the
coefficients are folded into residue buckets mod q, Parseval turns the
bucket norm at each divisor d of q into the sum of |S(a/d)|^2 over all
a mod d, and Moebius inversion keeps the reduced fractions.  The
buckets form a lattice: the fold mod q is a refold of the fold mod any
multiple of q, so only hosts, the moduli that divide no larger member,
are folded from the sequence, each at a width of at least _MIN_WIDTH,
and every other modulus is refolded from its host's.
bound_shapes evaluates a registry of closed-form shapes (per unit of
the coefficient power Z), with all absolute constants set to 1, so the
report layer presents ratios rather than certified inequalities.  The
one exception is the classical shape N + span^2, which is a true
constant-free bound and is certified as such in the tests.

sieve_bracket evaluates the window-count bracket N*(1+B), where B is a
maximum over frequencies h and points z of one dilate window sum: the
window counts of each dilate's classes, weighted by how many
frequencies fall in each class.  Only the t-dilate's elements coprime
to k = r/t count, and those are the q/t with gcd(q, r) = t: one gcd
with r partitions the set over the divisors of r, no dilate is built,
and one grouped window pass counts the classes of every divisor.  Its
exact mode finds the breakpoints in z from the element differences
that k divides.
farey_crowding_shape, which bounds how many fractions with moduli in
the set crowd a rational point b/r, is the same sum at h = -b and one z,
and keeps the last (set, r) partition across calls, with its sorted
window-profile keys, so a further (b, z) only counts windows;
crowding_shape_estimates gives closed-form estimates for that count.
Both take the sum from one function, _window_max, which counts each
class row's frequencies in closed form, at the rows and frequencies it
gathers only, and reserves its arrays before it counts a window: the
window profile with its own temporaries and the partition's keys, the
(row, z) arrays and one chunk of the gather.
"""

from __future__ import annotations

import functools
import math
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .counting import _ProfileKeys, profile_bytes, window_count_profile
from .errors import CapacityError, InvalidRegimeError, NotCoprimeError, OutOfRangeError
from .moduli import ModuliSet
from .sequences import CoefficientSequence, _folds, pass_bytes
from .arith import divisors, squarefree_divisors
from . import util
from .util import fmt17

_REGIME_SLACK = 1e-12
_BRACKET_CHUNK = 1 << 22  # (h, row, z) entries one bracket gather may hold
_MAX_Z_GRID = _BRACKET_CHUNK  # a grid row of z values fits in one gather chunk
_FOLD_BYTES = 16  # one complex128 fold entry
_MIN_WIDTH = 1024  # the narrowest fold: below it numpy's per-row cost dominates
# A lattice fold adds each bucket's values in another grouping than a
# direct fold at width q; verify holds the two within this much times the
# mass sum |a_n| (integer-valued sequences agree exactly).
_LATTICE_RTOL = 1e-12
_POINT_BYTES = 32  # a candidate z of exact mode: built, held, concatenated, masked
_INSIDE_BYTES = 64  # and one inside (1/N, z_hi): its copies through unique and the midpoints

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


def _hosts(qs: list[int]) -> dict[int, int]:
    """The host of each q in qs: the largest member of qs that q divides.

    Each q either probes its multiples up to the largest member or tests
    the larger members, whichever is fewer: at most min(max/q, |qs|)
    probes.
    """
    have = set(qs)
    members = sorted(have)
    arr = np.array(members, dtype=np.int64)
    top = members[-1] if members else 0
    hosts = {}
    for i, q in enumerate(members):
        if top // q <= len(members) - i:
            hosts[q] = max(have.intersection(range(2 * q, top + 1, q)), default=q)
        else:
            hits = np.flatnonzero(arr[i + 1 :] % q == 0)
            hosts[q] = int(arr[i + 1 + hits[-1]]) if hits.size else q
    return hosts


def _lattice(qs: list[int]) -> dict[int, list[int]]:
    """Each q in qs under the width its host h folds at, widths increasing.

    The width h*ceil(_MIN_WIDTH/h) is h itself from _MIN_WIDTH on, and
    a multiple of every q that h hosts, so q's fold is a refold of it.
    """
    hosts = _hosts(qs)
    lattice: dict[int, list[int]] = {}
    for q in qs:
        h = hosts[q]
        lattice.setdefault(h * -(-_MIN_WIDTH // h), []).append(q)
    return dict(sorted(lattice.items()))


def _refold(fold: np.ndarray, q: int) -> np.ndarray:
    """The length-q fold from a fold whose width q divides: the same
    array when the widths agree, else a new one."""
    return fold if fold.size == q else fold.reshape(-1, q).sum(0)


def _modulus_term(fold: np.ndarray) -> float:
    """Sum of |S(a/q)|^2 over a mod q coprime to q, from the length-q fold.

    Parseval at each divisor d of q gives sum over all a mod d of
    |S(a/d)|^2 = d * ||fold_d||^2, and Moebius inversion over the reduced
    fractions keeps the denominators equal to q: the result is the sum
    over squarefree m | q of mu(m) * (q/m) * ||fold_{q/m}||^2.  Each
    fold_{q/m} is refolded from the length-q fold; at m = 1 it is that
    fold, so the temporaries never pass q entries.
    """
    q = fold.size
    total = 0.0
    for m, sign in squarefree_divisors(q):
        x = _refold(fold, q // m).view(np.float64)
        total += sign * (q // m) * float(np.sum(x * x))
    return total


def _batches(lattice: dict[int, list[int]], entries: int):
    """The lattice cut into consecutive runs of widths whose folds fit
    in the given entries; each q rides with its width."""
    batch, held = {}, 0
    for w, riders in lattice.items():
        if batch and held + w > entries:
            yield batch
            batch, held = {}, 0
        batch[w] = riders
        held += w
    if batch:
        yield batch


def _batch_terms(seq: CoefficientSequence, batch: dict, pool, workers: int) -> dict:
    """q -> its modulus term for every q in the batch, from one pass.

    Each worker refolds one q at a time, so a worker's temporaries stay
    within the widest fold: a refold to a proper divisor of the width is
    at most half of it, and _modulus_term's at most q more.
    """
    folds = _folds(seq, batch, pool, workers)
    jobs = [(q, folds[w]) for w, riders in batch.items() for q in riders]

    def term(job) -> float:
        q, fold = job
        return _modulus_term(_refold(fold, q))

    terms = pool.map(term, jobs) if pool else map(term, jobs)
    return {q: t for (q, _), t in zip(jobs, terms)}


def _pool(workers: int):
    """A pool of `workers` threads; for one worker a null context, so the
    `with` target is None and the caller runs its tasks in order itself."""
    if workers <= 1:
        return nullcontext()
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(workers)


def sieve_lhs(seq: CoefficientSequence, s: ModuliSet, threads: int = 1) -> float:
    """Sum over q in s and reduced a mod q of |S(a/q)|^2.

    The sequence streams past the folds in pieces, so memory is one
    piece per worker plus the folds, never N values, and no transform
    is taken.  Only hosts take pieces: a modulus's host is the largest
    member of s that it divides, and it is folded at a width of at least
    _MIN_WIDTH that every modulus it hosts divides.  Each modulus's fold
    is then refolded from its host's, and costs O(q * 2^omega(q)) for
    its Moebius refolds.

    Memory rule: the host folds of one pass take at most util.CAPACITY
    bytes less the pass's piece (sequences.pass_bytes); hosts whose
    folds together exceed that are taken in consecutive batches, one
    pass over the sequence each, and a batch's folds are dropped before
    the next pass.  Each worker's refold temporaries stay within the
    widest fold, and the workers' together (the widest fold,
    min(threads, |s|) times) and the piece must fit in util.CAPACITY,
    or nothing runs.

    Each host fold is built by one worker in element order, each refold
    is a fixed reshape sum, and the terms are reduced in element order,
    so the result is identical for every thread count.  The refolds
    group the additions differently from a direct fold at width q, so
    float sequences move in the last bits (see _LATTICE_RTOL), and
    integer-valued ones are exact.
    """
    qs = [int(q) for q in s.elements]
    workers = max(1, min(threads, len(qs)))
    lattice = _lattice(qs)
    piece = pass_bytes(seq.N, workers)
    util.reserve("sieve sum", max(lattice, default=0) * workers, "fold entries",
                 _FOLD_BYTES, piece)
    terms = {}
    with _pool(workers) as pool:
        for batch in _batches(lattice, (util.CAPACITY - piece) // _FOLD_BYTES):
            terms.update(_batch_terms(seq, batch, pool, workers))
    total = 0.0
    for q in qs:
        total += terms[q]
    return total


def bound_shapes(n, q, *, s_count=None, eps: float = 0.0, x=None) -> dict[str, float]:
    """Evaluate every applicable named shape at (n, q), per unit Z.

    n is the sequence length and q the headline modulus parameter of the
    shape family (for square moduli, the cap on the roots; otherwise the
    span).  s_count is the number of moduli in the set and feeds the
    sparse_ap and elliott shapes; x is the window well-distribution
    factor of sparse_ap.  Shapes whose inputs are missing or whose
    domain conditions fail are left out of the map, so a caller that
    needs one tests `name in shapes`.

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


def _unique(a: np.ndarray) -> np.ndarray:
    """np.unique(a) of a 1-D array without NaN, by one sort.  numpy's
    plain np.unique asks np.ma.is_masked, and importing numpy.ma costs a
    bracket process some 10 ms."""
    a = np.sort(a)
    keep = np.empty(a.size, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _partition(s: ModuliSet, r: int) -> tuple:
    """(c, labels, t, l, k, keys): the set split over the divisors of r.
    q is in the t-dilate as c = q/t, coprime to k = r/t, exactly when
    gcd(q, r) = t.  Each element's label t*r + (c mod k) orders the
    window-count rows by divisor, then class; t, l and k are per row, and
    keys are the rows' window-profile keys over the dilates' intervals,
    which any widths then count (_window_max charges their bytes).
    """
    g = np.gcd(s.elements, r)
    c = s.elements // g
    labels = g * r + c % (r // g)
    rows = _unique(labels)
    t = rows // r
    keys = _ProfileKeys(c, s.M / t, (s.M + s.Q) / t, labels)
    return c, labels, t, rows % r, r // t, keys


# farey_crowding_shape is asked at several (b, z) per (s, r) in turn, so
# it keeps the last partition, keys and all; a ModuliSet hashes by identity
_last_partition = functools.lru_cache(maxsize=1)(_partition)


def _window_max(s: ModuliSet, r: int, part: tuple, zs: np.ndarray, width, hs: np.ndarray,
                workers: int = 1) -> int:
    """Max over the frequencies hs and the points zs of the dilate window
    sum at r: the sum over the class rows of prof[row] times the number
    of m with 0 < |m| <= M = floor(6*r*z*span/t) in class j = h*l mod k,
    0 when there are no rows.

    prof holds a row of window counts per row of the partition part,
    over the widths width(t) with t a column of the rows' divisors (so
    each caller keeps its own float expression), counted on the
    partition's keys.
    With M = a*k + b, 0 <= b < k, a unit class j mod k (0 <= j < k)
    holds 2a + [j <= b] + [j >= k - b] of those m, less 1 when k = 1.
    So prof * (2a - [k = 1]) is summed once, free of h, and the gather
    compares each h*l mod k with b and k - b, in chunks over hs that
    keep its (h, row, z) entries bounded.  The profile, the (row, z)
    arrays and a chunk are reserved for each of the workers before any
    window is counted.
    """
    c, _, t, l, k, keys = part
    span = s.Q
    rows = t.size
    step = max(1, _BRACKET_CHUNK // max(1, rows * zs.size))
    h_chunk = min(hs.size, step)
    # bytes, from tracemalloc peaks: 48 a (row, z) for the widths, the
    # profile, a, b, k - b and the temporaries of the h-free sum; 128 a
    # row for the partition; the profile's own (counting.profile_bytes),
    # which the partition's keys are part of;
    # 2 an (h, row, z) of a gather chunk for the hits and a comparison,
    # and 16 an (h, row) and an (h, z) of it; and 128 KiB for small
    # arrays and einsum's cast buffer
    util.reserve(f"bracket terms at r={r}",
                 workers * (48 * rows * zs.size + 128 * rows + profile_bytes(c.size, zs.size)
                            + h_chunk * (2 * rows * zs.size + 16 * (rows + zs.size)) + 2**17),
                 "bytes of window-sum arrays", 1)
    prof = keys.counts(width(t[:, None]))
    a, b = np.divmod(np.floor(6.0 * r * zs * span / t[:, None]).astype(np.int64),
                     k[:, None])
    free = (prof * (2 * a - (k == 1)[:, None])).sum(axis=0)
    kb = k[:, None] - b
    best = 0
    for start in range(0, hs.size, step):
        j = ((hs[start : start + step, None] * l) % k)[:, :, None]
        hits = (j <= b).view(np.int8)  # a byte an entry: einsum casts it in buffers
        hits += j >= kb
        best = max(best, int((free + np.einsum("hrz,rz->hz", hits, prof)).max()))
        del hits  # before the next chunk's, so one is held at a time
    return best


def _grid_z(r: int, n: int, points: int) -> np.ndarray:
    z_lo = 1.0 / n
    z_hi = 1.0 / (r * math.sqrt(n))
    ratio = z_hi / z_lo
    # int/int true division is correctly rounded, so j/(points-1) and
    # (65*j)/(65*(points-1)) are the same float and coarse grids are exact
    # subsets of their refinements: bit-identical z values.
    return np.fromiter((z_lo * ratio ** (j / (points - 1)) for j in range(points)),
                       np.float64, points)


def _exact_z(s: ModuliSet, n: int, r: int, part: tuple, workers: int) -> np.ndarray:
    """Breakpoints of the bracket objective in z, plus midpoints.

    The objective is piecewise constant in z: window counts change only
    where the width 2*span/(t*z*n) crosses a difference of two elements
    in one class mod k or an element's gap to the lower endpoint, and
    the m-range changes only where 6*r*z*span/t crosses an integer.  Two
    elements coprime to k share a class exactly when k divides their
    difference, so the widths are the differences c[i:] - c[:-i] that k
    divides, marked over [0, span] with no n x n array.  Evaluating at
    every breakpoint and between each adjacent pair covers every value
    the objective takes, so the result is the exact maximum.  part is
    the partition of s at r, as _partition builds it.

    Each divisor gives jmax m-breakpoints, at most jmax - jlo + 1 of
    them inside (z_lo, z_hi), at most one width per pair or per unit of
    c's range (whichever is fewer), one gap per element, and a mark of a
    byte per unit of that range; all of it is reserved for every worker
    before any is built.
    """
    span = s.Q
    z_lo = 1.0 / n
    z_hi = 1.0 / (r * math.sqrt(n))
    c_all, labels, *_ = part
    parts, need, mark_bytes = [], 0, 0
    for t in divisors(r):
        k, c = r // t, c_all[labels // r == t]
        jmax = int(math.floor(6.0 * r * z_hi * span / t))
        jlo = int(math.floor(6.0 * r * z_lo * span / t))
        w = int(c[-1] - c[0]) + 1 if c.size else 0
        parts.append((t, k, c, jmax, w))
        widths = min(w, c.size * (c.size - 1) // 2) + c.size
        need += _POINT_BYTES * (jmax + widths) + _INSIDE_BYTES * (jmax - jlo + 1 + widths)
        mark_bytes = max(mark_bytes, w)
    util.reserve(f"exact mode at r={r}", workers * (need + mark_bytes),
                 "bytes of breakpoints and marks", 1)
    pts = []
    for t, k, c, jmax, w in parts:
        pts.append(np.arange(1, jmax + 1) * t / (6.0 * r * span))
        if c.size == 0:
            continue
        mark = np.zeros(w, dtype=bool)
        for i in range(1, c.size):
            d = c[i:] - c[:-i]
            mark[d[d % k == 0]] = True
        cf = c.astype(np.float64)
        widths = np.concatenate([np.flatnonzero(mark), cf[cf > s.M / t] - s.M / t])
        pts.append(2.0 * span / (t * n * widths))
    z = np.concatenate(pts)
    zs = _unique(np.concatenate([[z_lo, z_hi], z[(z_lo < z) & (z < z_hi)]]))
    mids = 0.5 * (zs[1:] + zs[:-1])
    return _unique(np.concatenate([zs, mids]))


def sieve_bracket(s: ModuliSet, n: int, z_grid: int = 64, mode: str = "grid",
                  threads: int = 1) -> tuple[float, float]:
    """(B, N*(1+B)) with B the bracket maximum over r <= sqrt(N).

    For each r the inner maximum runs over frequencies h coprime to r
    and over z in [1/N, 1/(r*sqrt(N))] of the window sum: for each
    divisor t of r, with k = r/t, the window counts (width
    2*span/(t*z*N)) of the t-dilate's class h*m mod k over the
    frequencies m coprime to k with 0 < |m| <= 6*r*z*span/t.  That
    range of m is symmetric, so h and r - h give the same sum and only
    the units h <= r/2 are evaluated.  In grid mode z is sampled on a
    geometric grid of z_grid points including both endpoints, so B is a
    lower bound of the true supremum that never decreases under grid
    refinement (refined grids contain the coarse points exactly).  Exact
    mode enumerates the breakpoints of the piecewise-constant objective
    instead; it is the slow reference.  A grid row of z values must fit
    in one gather chunk, so z_grid above _MAX_Z_GRID is refused before
    anything is built, and each r reserves its terms for every worker
    before building them.
    """
    n, z_grid = int(n), util.index(z_grid, "z_grid")
    if n < 4:
        raise OutOfRangeError("bracket needs N >= 4")
    if mode not in ("grid", "exact"):
        raise OutOfRangeError(f"unknown mode {mode!r}")
    if mode == "grid" and z_grid < 2:
        raise OutOfRangeError(f"a z-grid needs at least 2 points, not {z_grid}")
    if mode == "grid" and z_grid > _MAX_Z_GRID:
        raise CapacityError(f"a z-grid of {z_grid} points needs {8 * z_grid} bytes "
                            f"per (h, row), over the {_MAX_Z_GRID} entries "
                            f"one bracket gather holds")
    rs = range(1, math.isqrt(n) + 1)
    workers = max(1, min(threads, len(rs)))
    span = s.Q

    def one(r: int) -> int:
        part = _partition(s, r)
        zs = _grid_z(r, n, z_grid) if mode == "grid" else _exact_z(s, n, r, part, workers)
        # class l meets the frequencies h^-1*l; over all units h mod r,
        # gathering h*l instead leaves the maximum unchanged.  The m-range
        # is symmetric, so r - h meets the classes -h*l with the same
        # counts as h: the units h <= r/2 reach every sum
        hs = np.flatnonzero(np.gcd(np.arange(r // 2 + 1), r) == 1)
        return _window_max(s, r, part, zs, lambda t: 2.0 * span / (t * zs * n), hs, workers)

    with _pool(workers) as pool:
        b = float(max(pool.map(one, rs) if pool else map(one, rs)))
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
    b, r = util.index(b, "b"), util.index(r, "r")
    if math.gcd(b, r) != 1:
        raise NotCoprimeError(f"b={b} shares a factor with r={r}")
    _check_regime(r, z, delta)
    span = s.Q
    zs = np.array([z])
    return 2.0 + float(_window_max(s, r, _last_partition(s, r), zs,
                                   lambda t: 2.0 * delta * span / (t * zs),
                                   np.array([(-b) % r])))


def crowding_shape_estimates(r: int, z: float, delta: float, q0: float,
                             s_count: float, x: float,
                             eps: float = 0.0) -> dict[str, float]:
    """Closed-form estimates for the crowding count near b/r + z.

    well_distributed assumes window counts obey the well-distribution
    factor x; window_route and fourier_route are the two unconditional
    routes for square moduli in an octave (Q0, 2*Q0], and combined is
    their balanced merge.  Same regime requirements as
    farey_crowding_shape.  Inputs that take an estimate outside the
    floats raise OutOfRangeError, as in bound_shapes.
    """
    _check_regime(r, z, delta)
    if not (0 < q0 < math.inf and all(map(math.isfinite, (s_count, x, eps)))):
        raise OutOfRangeError("need a finite positive q0 and finite s_count, x and eps")
    where = f"at q0={q0:g}, s_count={s_count:g}, x={x:g}, eps={eps:g}"
    try:
        damp = delta ** (-eps)
        est = {
            "well_distributed": 1.0 + q0 * x * damp * (r * z + delta * s_count),
            "window_route": damp * (1.0 + q0 * r * z + q0**1.5 * delta),
            "fourier_route": damp * (q0**1.5 * delta
                                     + math.sqrt(q0) * delta / (math.sqrt(r) * z)
                                     + delta**-0.25),
            "combined": damp * (q0**1.5 * delta + delta**-0.25),
        }
    except OverflowError as exc:
        raise OutOfRangeError(f"crowding estimates overflow the floats {where}") from exc
    if not all(map(math.isfinite, est.values())):
        raise OutOfRangeError(f"crowding estimates overflow the floats {where}")
    return est


@dataclass(frozen=True)
class BoundReport:
    """Measured sieve sum next to every applicable shape, with ratios."""

    N: int
    Q: float
    Q0: float | None
    Z: float
    lhs: float
    shapes: dict[str, float]
    epsilon: float = 0.0
    X: float | None = None

    def __post_init__(self):
        for name, val in self.shapes.items():
            if not val > 0:
                raise ValueError(f"shape {name} is not positive: {val}")

    @property
    def ratios(self) -> dict[str, float]:
        """lhs / (shape * Z) for each shape, in the shapes' order."""
        return {name: self.lhs / (val * self.Z) for name, val in self.shapes.items()}

    def to_json(self) -> str:
        import json

        return json.dumps({
            "N": self.N, "Q": self.Q, "Q0": self.Q0, "Z": self.Z,
            "lhs": self.lhs, "shapes": self.shapes, "ratios": self.ratios,
            "epsilon": self.epsilon, "X": self.X,
        }, indent=2, sort_keys=False)

    def csv_rows(self) -> list[list[str]]:
        """Header plus one row per applicable shape, full float precision."""
        rows = [["name", "value", "ratio"]]
        ratios = self.ratios
        for name in SHAPE_NAMES:
            if name in self.shapes:
                rows.append([name, fmt17(self.shapes[name]), fmt17(ratios[name])])
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
    return BoundReport(N=n, Q=float(q_shape), Q0=q0, Z=z, lhs=lhs, shapes=shapes,
                       epsilon=eps, X=None if x is None else float(x))
