"""Correctness checks on the outputs of benchmark operations.

Each operation's output is parsed into named fields.  Against the stored
references (refs.json, recorded at the default seed):

- a field whose reference is written as an integer must match exactly
  (k_delta, a_count, bracket B and shape, the lhs of `ones`, crowding and
  class counts, every integer-valued shape);
- a float field must lie within FLOAT_RTOL of its reference, relative to
  max(|reference|, scale), where scale is the integral's Q0 for the
  quadrature and 1 elsewhere;
- large integer outputs are compared as a digest of their fields.

At other seeds only the seed-independent fields are compared, and every
seed is checked by certified inequalities (the classical large sieve
lhs <= (N + Q^2) Z with Q the largest modulus, lhs >= 0, brute-force
recounts of congruence roots, |integral| <= Q0).  Thread byte-identity
is checked by the runner.  Each problem is returned as one line.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

from workloads import ALL_OPS, Op

REFS_PATH = Path(__file__).resolve().parent / "refs.json"
DEFAULT_SEED = 0
FLOAT_RTOL = 1e-9


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _is_int(text: str) -> bool:
    return text.lstrip("-").isdigit()


# -- parsing -----------------------------------------------------------------

def _parse_sweep(text: str) -> dict[str, str]:
    rows = list(csv.reader(io.StringIO(text)))
    head, out = rows[0], {}
    for row in rows[1:]:
        rec = dict(zip(head, row))
        key = f"{rec['n']}/{rec['q']}/{rec['seq']}"
        for col, val in rec.items():
            if col not in ("n", "q", "seq"):
                out[f"{key}.{col}"] = val
    return out


def _parse_words(names):
    def parse(text: str) -> dict[str, str]:
        return dict(zip(names, text.split()))
    return parse


def _parse_lines(names):
    def parse(text: str) -> dict[str, str]:
        out = {}
        for i, line in enumerate(text.splitlines()):
            for name, val in zip(names, line.split()):
                out[f"{i}.{name}"] = val
        return out
    return parse


def _parse_int_lines(text: str) -> dict[str, str]:
    ints = " ".join(text.split())
    return {"int_digest": digest(ints.encode())}


PARSERS = {
    "sweep": _parse_sweep,
    "sieve_wide": _parse_words(["lhs"]),
    "sweep_long": _parse_sweep,
    "sweep_shapes": _parse_sweep,
    "bracket_octave": _parse_words(["B", "shape"]),
    "bracket_primes": _parse_words(["B", "shape"]),
    "a_count": _parse_words(["count"]),
    "k_delta": _parse_words(["count"]),
    "crowding_shape": _parse_lines(["delta", "r", "b", "z", "value"]),
    "class_count": _parse_int_lines,
    "quad_roots": _parse_int_lines,
    "quadrature": _parse_lines(["regime", "j", "l", "r", "z", "q0", "re", "im"]),
}


def _seed_free(op: Op, key: str) -> bool:
    """Whether a field's value cannot depend on the seed."""
    if op.name.startswith("sweep"):
        row, col = key.rsplit(".", 1)
        return col != "seed" and (row.endswith("/ones") or row.endswith("/")
                                  or col.startswith("shape_"))
    return op.name in ("bracket_octave", "bracket_primes", "a_count", "k_delta")


# -- certified checks ----------------------------------------------------------

def _check_sweep(op: Op, fields, text: str) -> list[str]:
    bad = []
    for row in csv.DictReader(io.StringIO(text)):
        shapes = {c[6:]: float(v) for c, v in row.items()
                  if c.startswith("shape_") and v}
        if any(v <= 0 for v in shapes.values()):
            bad.append(f"non-positive shape in row n={row['n']}")
        if not row["lhs"]:
            continue
        n, q = int(row["n"]), int(row["q"])
        z, lhs = float(row["Z"]), float(row["lhs"])
        largest = q * q  # squares up to q: the largest modulus is q^2
        if not 0.0 <= lhs <= (n + largest**2) * z * (1 + 1e-12):
            bad.append(f"lhs {lhs} outside [0, (N+Q^2)Z] at n={n} q={q}")
        for name, shape in shapes.items():
            want = lhs / (shape * z)
            got = float(row[f"ratio_{name}"])
            if abs(got - want) > FLOAT_RTOL * max(abs(want), 1e-300):
                bad.append(f"ratio_{name} {got} != lhs/(shape Z) {want}")
    return bad


def _check_sieve_wide(op: Op, fields, text: str) -> list[str]:
    n, q0 = int(op.flag("--n")), int(op.flag("--q0"))
    largest = math.isqrt(2 * q0) ** 2
    lhs = float(fields["lhs"])
    # random_phases coefficients are unimodular, so Z = N up to rounding
    if not 0.0 <= lhs <= (n + largest**2) * n * (1 + 1e-9):
        return [f"lhs {lhs} outside [0, (N+Q^2)Z]"]
    return []


def _check_bracket(op: Op, fields, text: str) -> list[str]:
    n = int(op.flag("--n"))
    b, shape = float(fields["B"]), float(fields["shape"])
    if b < 0 or b != math.floor(b) or shape != n * (1.0 + b):
        return [f"bracket B={b} shape={shape} inconsistent with N={n}"]
    return []


def _check_count(op: Op, fields, text: str) -> list[str]:
    low = 1 if op.name == "k_delta" else 0
    if not _is_int(fields["count"]) or int(fields["count"]) < low:
        return [f"count {fields['count']} is not an integer >= {low}"]
    return []


def _check_crowding(op: Op, fields, text: str) -> list[str]:
    bad = []
    for i, line in enumerate(text.splitlines()):
        delta, r, b, z, value = line.split()
        delta, r, b, z, value = float(delta), int(r), int(b), float(z), float(value)
        slack = 1e-12
        if math.gcd(b, r) != 1 or not delta * (1 - slack) <= z <= math.sqrt(delta) / r * (1 + slack):
            bad.append(f"line {i}: instance outside the crowding regime")
        if value < 2 or value != math.floor(value):
            bad.append(f"line {i}: crowding value {value} is not an integer >= 2")
    return bad


def _square_profile_g(t: int) -> int:
    f, m, p = 1, t, 2
    while p * p <= m:
        v = 0
        while m % p == 0:
            m //= p
            v += 1
        f *= p ** ((v + 1) // 2)
        p += 1
    if m > 1:
        f *= m
    return f * f // t


def _check_class_count(op: Op, fields, text: str) -> list[str]:
    bad = []
    for i, line in enumerate(text.splitlines()):
        t, k, *counts = map(int, line.split())
        x = np.arange(k, dtype=np.int64)
        want = np.bincount((_square_profile_g(t) % k) * x * x % k, minlength=k)
        if counts != want.tolist():
            bad.append(f"line {i}: class counts for t={t} k={k} differ from a full scan")
    return bad


def _check_quad_roots(op: Op, fields, text: str) -> list[str]:
    by_k = defaultdict(list)
    for line in text.splitlines():
        g, l, k, count, *roots = map(int, line.split())
        if count != len(roots):
            return [f"root count {count} of {g}x^2={l} mod {k} != {len(roots)} roots"]
        by_k[k].append((g, l, roots))
    bad = []
    for k, rows in by_k.items():
        x = np.arange(k, dtype=np.int64)
        g = np.array([r[0] % k for r in rows], dtype=np.int64)[:, None]
        l = np.array([r[1] for r in rows], dtype=np.int64)[:, None]
        want = (g * x * x - l) % k == 0
        got = np.zeros_like(want)
        for i, (_, _, roots) in enumerate(rows):
            got[i, roots] = True
        if not np.array_equal(got, want):
            bad.append(f"roots mod {k} differ from a full scan")
    return bad


def _check_quadrature(op: Op, fields, text: str) -> list[str]:
    bad = []
    for i, line in enumerate(text.splitlines()):
        regime, j, l, r, z, q0, re, im = line.split()
        j, z, q0 = int(j), float(z), float(q0)
        v = complex(float(re), float(im))
        if not abs(v) <= q0 * (1 + 1e-9):
            bad.append(f"line {i}: |integral| {abs(v)} exceeds Q0 {q0}")
        if regime == "linear":
            om = 2j * math.pi * j * z
            exact = (np.exp(om * 2 * q0) - np.exp(om * q0)) / om
            if abs(v - exact) > 1e-6 * q0:
                bad.append(f"line {i}: linear-phase integral off its closed form")
    return bad


CERTIFY = {
    "sweep": _check_sweep,
    "sieve_wide": _check_sieve_wide,
    "sweep_long": _check_sweep,
    "sweep_shapes": _check_sweep,
    "bracket_octave": _check_bracket,
    "bracket_primes": _check_bracket,
    "a_count": _check_count,
    "k_delta": _check_count,
    "crowding_shape": _check_crowding,
    "class_count": _check_class_count,
    "quad_roots": _check_quad_roots,
    "quadrature": _check_quadrature,
}


# -- references ------------------------------------------------------------------

def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def compare(op: Op, fields: dict[str, str], ref: dict[str, str],
            seed_free_only: bool) -> list[str]:
    """Problems of fields against reference fields."""
    bad = []
    scale_key = "q0" if op.name == "quadrature" else None
    for key, want in ref.items():
        if seed_free_only and not _seed_free(op, key):
            continue
        got = fields.get(key)
        if got is None:
            bad.append(f"{key}: missing (reference {want})")
        elif _is_int(want) or not _is_float(want):
            if got != want:
                bad.append(f"{key}: {got} != reference {want}")
        else:
            scale = 1.0
            if scale_key:
                scale = float(ref[key.split(".")[0] + "." + scale_key])
            g, w = float(got), float(want)
            if not abs(g - w) <= FLOAT_RTOL * max(abs(w), scale):
                bad.append(f"{key}: {got} not within {FLOAT_RTOL:g} of reference {want}")
    if not seed_free_only and len(fields) != len(ref):
        bad.append(f"{len(fields)} fields, reference has {len(ref)}")
    return bad


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _parse_and_certify(op_name: str, data: bytes):
    op = ALL_OPS[op_name]
    text = data.decode()
    fields = PARSERS[op_name](text)
    return op, fields, CERTIFY[op_name](op, fields, text)


def certify(op_name: str, data: bytes) -> list[str]:
    """Problems found by the certified checks alone (no references)."""
    try:
        bad = _parse_and_certify(op_name, data)[2]
    except (ValueError, KeyError, IndexError, UnicodeDecodeError) as exc:
        bad = [f"unparseable output: {exc!r}"]
    return [f"{op_name}: {b}" for b in bad]


def check_output(op_name: str, seed: int, data: bytes, refs: dict) -> list[str]:
    """Every problem found in one operation's output (empty when correct)."""
    ref = refs["ops"][op_name]["fields"]
    try:
        op, fields, bad = _parse_and_certify(op_name, data)
        bad += compare(op, fields, ref, seed_free_only=seed != refs["seed"])
    except (ValueError, KeyError, IndexError, UnicodeDecodeError) as exc:
        bad = [f"unparseable output: {exc!r}"]
    return [f"{op_name}: {b}" for b in bad]


def reference_entry(op_name: str, data: bytes) -> dict:
    return {"sha256": digest(data), "fields": PARSERS[op_name](data.decode())}
