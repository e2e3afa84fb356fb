"""Library operations of the crowding workload: public API calls in-process.

Run one operation and print its results, one instance per line:

    python bench/library_ops.py crowding_shape 0

Instances are drawn from the workload seed.  Continuous parameters use
stratified draws (one uniform per stratum, then shuffled), so the total
work of an operation barely changes from seed to seed while the
instances do.  API functions are looked up on the package at call time,
so a tracer that rebinds them sees every call.
"""

from __future__ import annotations

import math
import sys
import zlib

import numpy as np

import sievelab as sl

# Draws per stratum; each operation takes about a second on a 2-core box.
CROWDING_DRAWS = 5          # per (delta, r)
CLASS_COUNT_DRAWS = 30      # dilations t per modulus k
QUAD_ROOTS_DRAWS = 24       # (g, l) pairs per modulus k
QUADRATURE_PER_REGIME = 150

CROWDING_DELTAS = (1e-2, 1e-3, 1e-4)
CROWDING_Q0 = 10**6
CLASS_COUNT_T_MAX, CLASS_COUNT_K_MAX = 40, 100
QUAD_ROOTS_K_MAX = 4096


def _rng(seed: int, op: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(op.encode())])


def _strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniforms in [0, 1), one per stratum [i/n, (i+1)/n), shuffled."""
    return rng.permutation((np.arange(n) + rng.random(n)) / n)


def _g(x: float) -> str:
    return format(float(x), ".17g")


def crowding_shape(seed: int) -> list[str]:
    """farey_crowding_shape on the squares in (10^6, 2*10^6].

    For each delta and each r <= delta^(-1/2), draws b coprime to r and z
    log-uniform in [delta, sqrt(delta)/r].  Line: delta r b z value.
    """
    rng = _rng(seed, "crowding_shape")
    s = sl.squares_in_octave(CROWDING_Q0)
    lines = []
    for delta in CROWDING_DELTAS:
        for r in range(1, math.isqrt(round(1.0 / delta)) + 1):
            lo, hi = delta, math.sqrt(delta) / r
            for u in _strata(rng, CROWDING_DRAWS):
                b = 0 if r == 1 else int(rng.integers(1, r))
                while math.gcd(b, r) != 1:
                    b = int(rng.integers(1, r))
                z = min(hi, lo * (hi / lo) ** float(u))
                value = sl.farey_crowding_shape(s, b, r, z, delta)
                lines.append(f"{_g(delta)} {r} {b} {_g(z)} {_g(value)}")
    return lines


def class_count(seed: int) -> list[str]:
    """square_class_count(t, k, l) for every l mod k.

    For each k <= 100, draws dilations t <= 40.  Line: t k count(l=0) ...
    """
    rng = _rng(seed, "class_count")
    lines = []
    for k in range(1, CLASS_COUNT_K_MAX + 1):
        for t in rng.integers(1, CLASS_COUNT_T_MAX + 1, CLASS_COUNT_DRAWS):
            t = int(t)
            counts = [sl.square_class_count(t, k, l) for l in range(k)]
            lines.append(f"{t} {k} " + " ".join(map(str, counts)))
    return lines


def quad_roots(seed: int) -> list[str]:
    """quad_cong_roots(g, l, k) for every k <= 4096.

    For each k, draws g in [1, k] and l in [0, k).  Line: g l k count roots...
    """
    rng = _rng(seed, "quad_roots")
    ks = np.repeat(np.arange(1, QUAD_ROOTS_K_MAX + 1), QUAD_ROOTS_DRAWS)
    gs = 1 + (rng.random(ks.size) * ks).astype(np.int64)
    ls = (rng.random(ks.size) * ks).astype(np.int64)
    lines = []
    for g, l, k in zip(gs.tolist(), ls.tolist(), ks.tolist()):
        count, roots = sl.quad_cong_roots(g, l, k)
        lines.append(f"{g} {l} {k} {count} " + " ".join(map(str, roots)))
    return lines


def _signed(rng: np.random.Generator, hi: int) -> int:
    return int(rng.integers(1, hi + 1)) * (1 if rng.random() < 0.5 else -1)


def quadrature(seed: int) -> list[str]:
    """oscillatory_integral over the three regimes of the VDC calibration.

    linear: l = 0; sqrt: j = 0; mixed: both, with every other instance at
    a stationary point of the phase.  Line: regime j l r z q0 re im.
    """
    rng = _rng(seed, "quadrature")
    n = QUADRATURE_PER_REGIME
    lines = []

    def emit(regime, j, l, r, z, q0):
        v = sl.oscillatory_integral(j, l, r, z, q0)
        lines.append(f"{regime} {j} {l} {r} {_g(z)} {_g(q0)} "
                     f"{_g(v.real)} {_g(v.imag)}")

    for uz, uq in zip(_strata(rng, n), _strata(rng, n)):
        emit("linear", _signed(rng, 20), 0, 1, 1e-4 + uz * (0.05 - 1e-4),
             20.0 + uq * 780.0)
    for uq in _strata(rng, n):
        emit("sqrt", 0, _signed(rng, 40), int(rng.integers(1, 5)), 0.0,
             20.0 + uq * 780.0)
    for i, (uz, uq) in enumerate(zip(_strata(rng, n), _strata(rng, n))):
        j, l, r = _signed(rng, 10), _signed(rng, 40), int(rng.integers(1, 4))
        q0 = 50.0 + uq * 950.0
        if i % 2 == 0:
            z = abs(l) / (2.0 * abs(j) * r * math.sqrt(1.5 * q0))
        else:
            z = 1e-5 + uz * (0.05 - 1e-5)
        emit("mixed", j, l, r, z, q0)
    return lines


OPS = {f.__name__: f for f in (crowding_shape, class_count, quadrature, quad_roots)}


def main(argv) -> int:
    if len(argv) != 2 or argv[0] not in OPS:
        print(f"usage: library_ops.py {{{','.join(OPS)}}} SEED", file=sys.stderr)
        return 2
    lines = OPS[argv[0]](int(argv[1]))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
