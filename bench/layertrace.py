"""Layer tracing for the benchmark's traced run.

The layers are sievelab's modules.  The tracer rebinds each listed
public function in every sievelab namespace that holds it (the modules
import by name, so `bounds` holds its own `window_count_profile` and
`cli` its own `sieve_lhs`), and records one span per call: name, start,
end and parent, in memory.  Counts are derived from the call arguments.
tracemalloc measures the peak allocation inside count_window_ap,
window_count_profile, enumerate_farey and eval_at_modulus (numpy reports
its allocations to tracemalloc, so array buffers count).  Spans are written when the operation
ends; self times are derived from them afterwards.

Run one traced operation (stdout carries the operation's own output):

    python bench/layertrace.py OP SEED SPANS.npz
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import math
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

import numpy as np

# Public functions traced per layer (module).
LAYERS = {
    "cli": ("parse_args", "main"),
    "sequences": ("make_sequence", "eval_at_modulus"),
    "moduli": ("build_moduli_set", "enumerate_farey", "derive_subset"),
    "counting": ("window_count_profile", "count_window_ap", "k_delta"),
    "bounds": ("sieve_lhs", "build_report", "bound_shapes", "sieve_bracket",
               "farey_crowding_shape"),
    "arith": ("factorize", "quad_cong_roots"),
    "harmonic": ("oscillatory_integral",),
}

# Computed, not measured: a folded element reads one complex128
# coefficient (16 B) and one int64 residue index (8 B).
FOLD_BYTES_PER_ELEMENT = 24

MB = 1 << 20

# Every per-layer metric, in report order, with its unit.
PER_LAYER = (
    ("cli.parse_s", "s"),
    ("cli.self_s", "s"),
    ("sequences.make_sequence_s", "s"),
    ("sequences.eval_at_modulus_s", "s"),
    ("sequences.eval_at_modulus_calls", "count"),
    ("sequences.folded_elements", "count"),
    ("sequences.root_products", "count"),
    ("sequences.fold_bytes", "bytes"),
    ("sequences.eval_at_modulus.peak_mb", "MB"),
    ("bounds.sieve_lhs_s", "s"),
    ("bounds.sieve_lhs.self_s", "s"),
    ("bounds.reduced_share", "ratio"),
    ("bounds.build_report_s", "s"),
    ("bounds.bound_shapes_s", "s"),
    ("bounds.sieve_bracket_s", "s"),
    ("bounds.sieve_bracket.self_s", "s"),
    ("bounds.bracket_cells", "count"),
    ("bounds.bracket_cells_per_s", "1/s"),
    ("bounds.farey_crowding_shape_s", "s"),
    ("bounds.farey_crowding_shape.self_s", "s"),
    ("counting.window_count_profile_s", "s"),
    ("counting.window_count_profile.calls", "count"),
    ("counting.window_count_profile.pairs", "count"),
    ("counting.window_count_profile.peak_mb", "MB"),
    ("counting.count_window_ap_s", "s"),
    ("counting.count_window_ap.calls", "count"),
    ("counting.count_window_ap.pairs", "count"),
    ("counting.count_window_ap.peak_mb", "MB"),
    ("counting.k_delta_s", "s"),
    ("moduli.enumerate_farey_s", "s"),
    ("moduli.farey_fractions", "count"),
    ("moduli.enumerate_farey.peak_mb", "MB"),
    ("moduli.derive_subset_s", "s"),
    ("moduli.derive_subset.calls", "count"),
    ("moduli.derive_subset.repeat_share", "ratio"),
    ("arith.factorize_s", "s"),
    ("arith.factorize_calls", "count"),
    ("arith.factorize.repeat_share", "ratio"),
    ("arith.quad_cong_roots_s", "s"),
    ("arith.quad_cong_roots.calls", "count"),
    ("harmonic.oscillatory_integral_s", "s"),
    ("harmonic.oscillatory_integral.calls", "count"),
    ("proc.startup_share", "ratio"),
    ("trace.overhead_share", "ratio"),
)


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


class Tracer:
    """Span recorder over the sievelab namespaces; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.t0: list[float] = []
        self.t1: list[float] = []
        self.parent: list[int] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.peak_mb: dict[str, float] = {}
        self.work_record: dict[str, int] = {}
        self.seen: dict[str, set] = defaultdict(set)
        self.lhs_moduli: list[list[int]] = []
        self.brackets: list[tuple[int, int, str]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def wrap(self, name: str, fn):
        """fn wrapped so each call records a span named name."""
        nid = len(self.names)
        self.names.append(name)
        attr = name.replace(".", "_")
        count = getattr(self, "_count_" + attr, None)
        work_of = getattr(self, "_work_" + attr, None)
        span_name, t0s, t1s, parents, stack = (
            self.span_name, self.t0, self.t1, self.parent, self.stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work = measure = None
            if work_of is not None:
                # allocation in these functions grows with their work, so
                # measuring each call that sets a new work record finds the
                # largest peak without tracing every call
                work = work_of(args, kwargs)
                if work >= self.work_record.get(name, -1):
                    self.work_record[name] = work
                    measure = not tracemalloc.is_tracing()
            idx = len(t0s)
            span_name.append(nid)
            parents.append(stack[-1] if stack else -1)
            t0s.append(0.0)
            t1s.append(0.0)
            stack.append(idx)
            if measure:
                tracemalloc.start()
            t0s[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1s[idx] = perf_counter()
                if measure:
                    peak = tracemalloc.get_traced_memory()[1] / MB
                    tracemalloc.stop()
                    self.peak_mb[name] = max(self.peak_mb.get(name, 0.0), peak)
                stack.pop()
            if count is not None:
                count(args, kwargs, result, work)
            return result

        return traced

    def install(self) -> None:
        """Rebind every listed function in every sievelab namespace."""
        for layer in LAYERS:
            importlib.import_module(f"sievelab.{layer}")
        spaces = [m for n, m in sys.modules.items()
                  if n == "sievelab" or n.startswith("sievelab.")]
        for layer, fnames in LAYERS.items():
            home = sys.modules[f"sievelab.{layer}"]
            for fname in fnames:
                fn = getattr(home, fname)
                traced = self.wrap(f"{layer}.{fname}", fn)
                for space in spaces:
                    if getattr(space, fname, None) is fn:
                        self._restore.append((space, fname, fn))
                        setattr(space, fname, traced)

    def uninstall(self) -> None:
        for space, fname, fn in self._restore:
            setattr(space, fname, fn)
        self._restore.clear()

    # -- counts from call arguments ---------------------------------------

    def _repeat(self, name, key) -> None:
        seen = self.seen[name]
        self.counts[name + ".repeats"] += key in seen
        seen.add(key)

    def _work_sequences_eval_at_modulus(self, args, kwargs):
        q = int(_arg(args, kwargs, 1, "q"))
        return _arg(args, kwargs, 0, "seq").N + min(q * q, 1 << 22)

    def _count_sequences_eval_at_modulus(self, args, kwargs, result, work):
        n = _arg(args, kwargs, 0, "seq").N
        q = int(_arg(args, kwargs, 1, "q"))
        self.counts["sequences.folded_elements"] += n
        self.counts["sequences.root_products"] += q * q
        self.counts["sequences.fold_bytes"] += FOLD_BYTES_PER_ELEMENT * n

    def _count_bounds_sieve_lhs(self, args, kwargs, result, work):
        s = _arg(args, kwargs, 1, "s")
        self.lhs_moduli.append([int(q) for q in s.elements])

    def _count_bounds_sieve_bracket(self, args, kwargs, result, work):
        from sievelab.bounds import sieve_bracket
        call = inspect.signature(sieve_bracket).bind(*args, **kwargs)
        call.apply_defaults()
        a = call.arguments
        self.brackets.append((int(a["n"]), int(a["z_grid"]), str(a["mode"])))

    def _work_counting_window_count_profile(self, args, kwargs):
        c = _arg(args, kwargs, 0, "c")
        return c.size**2 * np.size(_arg(args, kwargs, 1, "u_vec"))

    def _count_counting_window_count_profile(self, args, kwargs, result, work):
        self.counts["counting.window_count_profile.pairs"] += work

    def _work_counting_count_window_ap(self, args, kwargs):
        s_t = _arg(args, kwargs, 0, "s_t")
        query = _arg(args, kwargs, 1, "query")
        return int(np.count_nonzero(s_t.elements % query.k == query.l % query.k)) ** 2

    def _count_counting_count_window_ap(self, args, kwargs, result, work):
        self.counts["counting.count_window_ap.pairs"] += work

    def _work_moduli_enumerate_farey(self, args, kwargs):
        return int(_arg(args, kwargs, 0, "s").elements.sum())

    def _count_moduli_enumerate_farey(self, args, kwargs, result, work):
        self.counts["moduli.farey_fractions"] += len(result)

    def _count_moduli_derive_subset(self, args, kwargs, result, work):
        s = _arg(args, kwargs, 0, "s")
        t = int(_arg(args, kwargs, 1, "t"))
        digest = hashlib.blake2b(s.elements.tobytes(), digest_size=16).digest()
        self._repeat("moduli.derive_subset", (digest, s.M, s.Q, t))

    def _count_arith_factorize(self, args, kwargs, result, work):
        self._repeat("arith.factorize", int(_arg(args, kwargs, 0, "n")))

    # -- output ----------------------------------------------------------

    def save(self, path: str, op: str) -> None:
        meta = {"op": op, "names": self.names, "counts": self.counts,
                "peak_mb": self.peak_mb, "lhs_moduli": self.lhs_moduli,
                "brackets": self.brackets}
        np.savez(path, name=np.array(self.span_name, dtype=np.int32),
                 t0=np.array(self.t0), t1=np.array(self.t1),
                 parent=np.array(self.parent, dtype=np.int64),
                 meta=np.array(json.dumps(meta)))


def load(path) -> dict:
    """A saved trace: span arrays plus the metadata."""
    with np.load(path, allow_pickle=False) as z:
        out = {k: z[k] for k in ("name", "t0", "t1", "parent")}
        out.update(json.loads(str(z["meta"])))
    return out


def self_times(parent: np.ndarray, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    The traced run is single-threaded, so the children of one span never
    overlap and the time they cover is the sum of their durations.
    """
    dur = t1 - t0
    covered = np.zeros_like(dur)
    has = parent >= 0
    np.add.at(covered, parent[has], dur[has])
    return dur - covered


def _phi(n: int) -> int:
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


def bracket_cells(n: int, z_grid: int, mode: str) -> int:
    """(r, h, z) cells of one grid-mode bracket: sum of phi(r) over r <= sqrt(N)
    times the z-grid size; exact mode has no fixed grid and counts 0."""
    if mode != "grid":
        return 0
    return sum(_phi(r) for r in range(1, math.isqrt(n) + 1)) * max(2, z_grid)


def op_summary(tr: dict) -> dict:
    """Inclusive time, self time and calls per span name, and self per layer."""
    names = tr["names"]
    dur = tr["t1"] - tr["t0"]
    own = self_times(tr["parent"], tr["t0"], tr["t1"])
    k = len(names)
    total = np.bincount(tr["name"], weights=dur, minlength=k)
    self_ = np.bincount(tr["name"], weights=own, minlength=k)
    calls = np.bincount(tr["name"], minlength=k)
    layers = defaultdict(float)
    for i, name in enumerate(names):
        layers[name.split(".")[0]] += float(self_[i])
    return {"total": dict(zip(names, total.tolist())),
            "self": dict(zip(names, self_.tolist())),
            "calls": dict(zip(names, calls.tolist())),
            "layer_self": dict(layers)}


def per_layer_metrics(traces: list[dict], startup_share: float,
                      overhead_share: float) -> dict[str, float]:
    """Every PER_LAYER metric, summed (or maxed, for peaks) over the ops."""
    total, self_, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    counts, peak = defaultdict(int), defaultdict(float)
    phi_sum = q_sum = cells = 0
    for tr in traces:
        summ = op_summary(tr)
        for name in tr["names"]:
            total[name] += summ["total"][name]
            self_[name] += summ["self"][name]
            calls[name] += summ["calls"][name]
        for key, val in tr["counts"].items():
            counts[key] += val
        for key, val in tr["peak_mb"].items():
            peak[key] = max(peak[key], val)
        for qs in tr["lhs_moduli"]:
            phi_sum += sum(_phi(q) for q in qs)
            q_sum += sum(qs)
        cells += sum(bracket_cells(*b) for b in tr["brackets"])

    def share(num, den):
        return num / den if den else 0.0

    m = {
        "cli.parse_s": total["cli.parse_args"],
        "cli.self_s": self_["cli.main"],
        "sequences.make_sequence_s": total["sequences.make_sequence"],
        "sequences.eval_at_modulus_s": total["sequences.eval_at_modulus"],
        "sequences.eval_at_modulus_calls": calls["sequences.eval_at_modulus"],
        "sequences.eval_at_modulus.peak_mb": peak["sequences.eval_at_modulus"],
        "bounds.sieve_lhs_s": total["bounds.sieve_lhs"],
        "bounds.sieve_lhs.self_s": self_["bounds.sieve_lhs"],
        "bounds.reduced_share": share(phi_sum, q_sum),
        "bounds.build_report_s": total["bounds.build_report"],
        "bounds.bound_shapes_s": total["bounds.bound_shapes"],
        "bounds.sieve_bracket_s": total["bounds.sieve_bracket"],
        "bounds.sieve_bracket.self_s": self_["bounds.sieve_bracket"],
        "bounds.bracket_cells": cells,
        "bounds.bracket_cells_per_s": share(cells, total["bounds.sieve_bracket"]),
        "bounds.farey_crowding_shape_s": total["bounds.farey_crowding_shape"],
        "bounds.farey_crowding_shape.self_s": self_["bounds.farey_crowding_shape"],
        "counting.k_delta_s": total["counting.k_delta"],
        "moduli.enumerate_farey_s": total["moduli.enumerate_farey"],
        "moduli.enumerate_farey.peak_mb": peak["moduli.enumerate_farey"],
        "moduli.derive_subset_s": total["moduli.derive_subset"],
        "moduli.derive_subset.calls": calls["moduli.derive_subset"],
        "moduli.derive_subset.repeat_share": share(
            counts["moduli.derive_subset.repeats"], calls["moduli.derive_subset"]),
        "arith.factorize_s": total["arith.factorize"],
        "arith.factorize_calls": calls["arith.factorize"],
        "arith.factorize.repeat_share": share(
            counts["arith.factorize.repeats"], calls["arith.factorize"]),
        "arith.quad_cong_roots_s": total["arith.quad_cong_roots"],
        "arith.quad_cong_roots.calls": calls["arith.quad_cong_roots"],
        "harmonic.oscillatory_integral_s": total["harmonic.oscillatory_integral"],
        "harmonic.oscillatory_integral.calls": calls["harmonic.oscillatory_integral"],
        "proc.startup_share": startup_share,
        "trace.overhead_share": overhead_share,
    }
    for key in ("sequences.folded_elements", "sequences.root_products",
                "sequences.fold_bytes", "moduli.farey_fractions",
                "counting.window_count_profile.pairs",
                "counting.count_window_ap.pairs"):
        m[key] = counts[key]
    for fn in ("counting.window_count_profile", "counting.count_window_ap"):
        m[fn + "_s"] = total[fn]
        m[fn + ".calls"] = calls[fn]
        m[fn + ".peak_mb"] = peak[fn]
    return {name: m[name] for name, _ in PER_LAYER}


def main(argv) -> int:
    from workloads import ALL_OPS

    if len(argv) != 3 or argv[0] not in ALL_OPS:
        print("usage: layertrace.py OP SEED SPANS.npz", file=sys.stderr)
        return 2
    op, seed, path = ALL_OPS[argv[0]], int(argv[1]), argv[2]
    tracer = Tracer()
    tracer.install()
    try:
        if op.is_cli:
            rc = sys.modules["sievelab.cli"].main(op.cli_argv(seed, 1))
        else:
            import library_ops
            rc = library_ops.main([op.name, str(seed)])
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    tracer.save(path, op.name)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
