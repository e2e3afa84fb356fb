"""Command-line front end: single computations, sweeps, verification.

One coordinator process parses flags (optionally merged over a JSON
config file, flags winning), dispatches to the computational modules,
and writes every output byte itself.  All randomness is derived from
the single --seed value, so a fixed configuration produces identical
bytes no matter the thread count.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from .bounds import (SHAPE_NAMES, BoundReport, bound_shapes, build_report,
                     sieve_bracket, sieve_lhs)
from .counting import WindowQuery, count_window_ap, k_delta
from .errors import ConfigError, SequenceFileError, SieveLabError
from .harmonic import gauss_sum
from .moduli import (ModuliSet, build_moduli_set, derive_subset,
                     enumerate_farey)
from .sequences import make_sequence
from .util import fmt17
from .verify import run_verify

_COMMANDS = ("sieve-sum", "k-delta", "a-count", "farey", "gauss", "bracket",
             "shapes", "verify", "sweep")

_MODULI_ALIASES = {"squares": "squares_up_to", "octave": "squares_in_octave",
                   "primes": "primes_up_to"}

_DEFAULTS = {
    "cmd": None, "seq": "ones", "n": 1024, "seed": 0, "n0": None, "beta": None,
    "moduli": "squares", "q": 8, "q0": None, "m": None,
    "eps": 0.0, "x": None, "s_count": None,
    "z_grid": 64, "mode": "grid",
    "grid_n": None, "grid_q": None, "q_exp": None,
    "delta": 0.25, "u": 1.0, "k": 1, "l": 0, "t": 1, "c": 4,
    "no_lhs": False, "quick": False,
    "out": None, "format": "csv", "threads": 1,
}


def _parse_int_list(text):
    if isinstance(text, (list, tuple)):
        return [int(v) for v in text]
    try:
        return [int(p) for p in str(text).split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad integer list {text!r}") from exc


def _load_config_file(path: str, actions: dict) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    out = {}
    for key, val in raw.items():
        norm = key.replace("-", "_")
        if norm not in _DEFAULTS:
            raise ConfigError(f"config {path}: unknown key {key!r}")
        out[norm] = _coerce(actions[norm], val, f"config {path}: {key}")
    return out


def _coerce(action, val, where: str):
    """A config value converted and checked as its flag's argument would be."""
    if val is None:
        if _DEFAULTS[action.dest] is not None:
            raise ConfigError(f"{where} must not be null")
        return None
    kind = action.type
    if kind is not None:
        if isinstance(val, bool) or not isinstance(val, (str, int, float)):
            raise ConfigError(f"{where}={val!r} is not a valid {kind.__name__}")
        try:
            out = kind(val)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"{where}={val!r} is not a valid {kind.__name__}") from exc
        if kind is int and isinstance(val, float) and out != val:
            raise ConfigError(f"{where}={val!r} is not a valid int")
        val = out
    if action.choices is not None and val not in action.choices:
        raise ConfigError(f"{where}={val!r} is not one of {', '.join(action.choices)}")
    return val


def parse_args(argv) -> dict:
    """Merged configuration: defaults, then config file, then flags."""
    p = argparse.ArgumentParser(
        prog="sievelab",
        description="Measure trigonometric-polynomial sieve sums over sparse "
                    "moduli sets and compare them with the catalogued bound "
                    "shapes.")
    p.add_argument("--cmd", choices=_COMMANDS)
    p.add_argument("--config", help="JSON file of defaults; flags override")
    p.add_argument("--seq", help="sequence kind, comma list for sweep, "
                                 "or file:PATH")
    p.add_argument("--n", type=int, help="sequence length N")
    p.add_argument("--seed", type=int, help="master RNG seed")
    p.add_argument("--n0", type=int, help="position for the delta sequence")
    p.add_argument("--beta", type=float, help="focus point for the focused kind")
    p.add_argument("--moduli", help="squares | octave | primes | file:PATH")
    p.add_argument("--q", type=int, help="moduli size parameter")
    p.add_argument("--q0", type=float, help="octave left endpoint")
    p.add_argument("--m", type=float, help="interval offset for file moduli")
    p.add_argument("--eps", type=float, help="epsilon exponent in shapes")
    p.add_argument("--x", type=float, help="well-distribution parameter")
    p.add_argument("--s-count", dest="s_count", type=int,
                   help="override the moduli count used in shapes")
    p.add_argument("--z-grid", dest="z_grid", type=int,
                   help="geometric grid size for the bracket")
    p.add_argument("--mode", choices=("grid", "exact"),
                   help="bracket maximization mode")
    p.add_argument("--grid-n", dest="grid_n", help="comma list of N for sweep")
    p.add_argument("--grid-q", dest="grid_q",
                   help="comma list of Q for sweep (length 1 broadcasts)")
    p.add_argument("--q-exp", dest="q_exp", type=float,
                   help="sweep Q = floor(N**exp) instead of --grid-q")
    p.add_argument("--delta", type=float, help="window half-width")
    p.add_argument("--u", type=float, help="window length for a-count")
    p.add_argument("--k", type=int, help="residue modulus (a-count, gauss)")
    p.add_argument("--l", type=int, help="residue class (a-count, gauss)")
    p.add_argument("--t", type=int, help="dilation factor for a-count")
    p.add_argument("--c", type=int, help="Gauss sum modulus")
    p.add_argument("--no-lhs", dest="no_lhs", action="store_const", const=True,
                   help="sweep shapes only, skip the sieve sums")
    p.add_argument("--quick", action="store_const", const=True,
                   help="reduced verification sweep sizes")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--threads", type=int, help="worker threads")
    args = p.parse_args(argv)

    cfg = dict(_DEFAULTS)
    if args.config:
        actions = {a.dest: a for a in p._actions}
        cfg.update(_load_config_file(args.config, actions))
    for key, val in vars(args).items():
        if key != "config" and val is not None:
            cfg[key] = val
    if cfg["cmd"] is None:
        raise ConfigError("no command given (--cmd or config file)")
    if cfg["threads"] < 1:
        raise ConfigError("--threads must be >= 1")
    return cfg


def _build_sequence(cfg, kind=None, n=None):
    kind = cfg["seq"] if kind is None else kind
    if isinstance(kind, (list, tuple)):
        if len(kind) != 1:
            raise ConfigError("this command needs a single sequence kind")
        kind = kind[0]
    n = int(cfg["n"] if n is None else n)
    try:
        if isinstance(kind, str) and kind.startswith("file:"):
            return make_sequence("from_file", n, path=kind[5:])
        return make_sequence(kind, n, n0=cfg["n0"], seed=cfg["seed"],
                             beta=cfg["beta"])
    except SequenceFileError:
        raise
    except (ValueError, SieveLabError) as exc:
        raise ConfigError(f"cannot build sequence: {exc}") from exc


def _build_moduli(cfg, q=None) -> ModuliSet:
    kind = cfg["moduli"]
    try:
        if isinstance(kind, str) and kind.startswith("file:"):
            return build_moduli_set("file", path=kind[5:], M=cfg["m"])
        kind = _MODULI_ALIASES.get(kind, kind)
        if kind == "squares_in_octave":
            q0 = cfg["q0"] if q is None else q
            if q0 is None:
                raise ConfigError("octave moduli need --q0")
            return build_moduli_set(kind, q0=q0)
        if kind in ("squares_up_to", "primes_up_to"):
            return build_moduli_set(kind, q=cfg["q"] if q is None else q)
        raise ConfigError(f"unknown moduli kind {cfg['moduli']!r}")
    except ConfigError:
        raise
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"cannot build moduli set: {exc}") from exc


def emit_report(report: BoundReport, fmt: str) -> bytes:
    """Serialize a report: JSON field-for-field, or name/value/ratio CSV."""
    if fmt == "json":
        return (report.to_json() + "\n").encode()
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerows(report.csv_rows())
    return buf.getvalue().encode()


def _deliver(payload: bytes, out: str | None) -> None:
    if out:
        try:
            with open(out, "wb") as fh:
                fh.write(payload)
        except OSError as exc:
            raise SequenceFileError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(payload.decode())


def _skeleton_report(n, s, cfg) -> BoundReport:
    q_shape = s.param if s.kind == "squares_up_to" else s.Q
    q0 = s.param if s.kind == "squares_in_octave" else None
    shapes = bound_shapes(n, q_shape, s_count=cfg["s_count"] or len(s),
                          eps=cfg["eps"], x=cfg["x"])
    ratios = {name: 0.0 for name in shapes}
    return BoundReport(N=n, Q=q_shape, Q0=q0, Z=1.0, lhs=0.0, shapes=shapes,
                       ratios=ratios, epsilon=cfg["eps"], X=cfg["x"])


def _cmd_shapes(cfg) -> int:
    s = _build_moduli(cfg)
    if cfg["no_lhs"]:
        rep = _skeleton_report(int(cfg["n"]), s, cfg)
    else:
        seq = _build_sequence(cfg)
        rep = build_report(seq, s, eps=cfg["eps"], x=cfg["x"],
                           s_count=cfg["s_count"], threads=cfg["threads"])
    _deliver(emit_report(rep, cfg["format"]), cfg["out"])
    return 0


def _cmd_sweep(cfg) -> int:
    if not cfg["grid_n"]:
        raise ConfigError("sweep needs a non-empty --grid-n")
    grid_n = _parse_int_list(cfg["grid_n"])
    if cfg["grid_q"] is not None:
        grid_q = _parse_int_list(cfg["grid_q"])
        if len(grid_q) == 1:
            grid_q = grid_q * len(grid_n)
        if len(grid_q) != len(grid_n):
            raise ConfigError("--grid-q must match --grid-n or broadcast")
    elif cfg["q_exp"] is not None:
        grid_q = [int(math.floor(n ** float(cfg["q_exp"]))) for n in grid_n]
    else:
        raise ConfigError("sweep needs --grid-q or --q-exp")
    kinds = cfg["seq"] if isinstance(cfg["seq"], (list, tuple)) \
        else [k for k in str(cfg["seq"]).split(",") if k]
    if not kinds:
        raise ConfigError("sweep needs at least one sequence kind")

    head = (["n", "q", "seq", "seed", "Z", "lhs"]
            + [f"shape_{nm}" for nm in SHAPE_NAMES]
            + [f"ratio_{nm}" for nm in SHAPE_NAMES])
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(head)
    for n, q in zip(grid_n, grid_q):
        if cfg["no_lhs"]:
            s = _build_moduli(cfg, q=q)
            rep = _skeleton_report(n, s, cfg)
            row = [str(n), str(q), "", str(cfg["seed"]), "", ""]
            for nm in SHAPE_NAMES:
                row.append(fmt17(rep.shapes[nm]) if nm in rep.shapes else "")
            row.extend("" for _ in SHAPE_NAMES)
            w.writerow(row)
            continue
        for kind in kinds:
            s = _build_moduli(cfg, q=q)
            seq = _build_sequence(cfg, kind=kind, n=n)
            rep = build_report(seq, s, eps=cfg["eps"], x=cfg["x"],
                               s_count=cfg["s_count"], threads=cfg["threads"])
            row = [str(n), str(q), kind, str(cfg["seed"]),
                   fmt17(rep.Z), fmt17(rep.lhs)]
            for nm in SHAPE_NAMES:
                row.append(fmt17(rep.shapes[nm]) if nm in rep.shapes else "")
            for nm in SHAPE_NAMES:
                row.append(fmt17(rep.ratios[nm]) if nm in rep.ratios else "")
            w.writerow(row)
            # drop this row's sequence before the next one is built
            del seq, rep
    _deliver(buf.getvalue().encode(), cfg["out"])
    return 0


def _cmd_verify(cfg) -> int:
    results = run_verify(quick=bool(cfg["quick"]), seed=int(cfg["seed"]))
    lines = []
    failed_groups = 0
    for r in results:
        total = r.passed + r.failed
        if r.ok:
            lines.append(f"[PASS] {r.group}: {total} checks")
        else:
            failed_groups += 1
            detail = f"; first: {r.notes[0]}" if r.notes else ""
            lines.append(f"[FAIL] {r.group}: {r.failed} of {total} failed{detail}")
    lines.append(f"verify: {len(results)} groups, {failed_groups} failed")
    _deliver(("\n".join(lines) + "\n").encode(), cfg["out"])
    return 0 if failed_groups == 0 else 1


def run_experiment(cfg) -> int:
    cmd = cfg["cmd"]
    if cmd == "sieve-sum":
        seq = _build_sequence(cfg)
        s = _build_moduli(cfg)
        val = sieve_lhs(seq, s, threads=int(cfg["threads"]))
        _deliver((fmt17(val) + "\n").encode(), cfg["out"])
        return 0
    if cmd == "k-delta":
        fl = enumerate_farey(_build_moduli(cfg))
        _deliver((str(k_delta(fl, float(cfg["delta"]))) + "\n").encode(),
                 cfg["out"])
        return 0
    if cmd == "a-count":
        try:
            query = WindowQuery(float(cfg["u"]), int(cfg["k"]), int(cfg["l"]),
                                int(cfg["t"]))
        except ValueError as exc:
            raise ConfigError(f"bad window query: {exc}") from exc
        s = _build_moduli(cfg)
        st = derive_subset(s, query.t)
        _deliver((str(count_window_ap(st, query, s.M, s.Q)) + "\n").encode(),
                 cfg["out"])
        return 0
    if cmd == "farey":
        fl = enumerate_farey(_build_moduli(cfg))
        if cfg["out"]:
            buf = io.StringIO()
            w = csv.writer(buf, lineterminator="\n")
            w.writerow(["num", "den", "value"])
            for a, q, v in zip(fl.numerators, fl.denominators, fl.values):
                w.writerow([str(int(a)), str(int(q)), fmt17(v)])
            _deliver(buf.getvalue().encode(), cfg["out"])
        else:
            sys.stdout.write(str(len(fl)) + "\n")
        return 0
    if cmd == "gauss":
        g = gauss_sum(int(cfg["k"]), int(cfg["l"]), int(cfg["c"]))
        line = f"{fmt17(g.real)} {fmt17(g.imag)} {fmt17(abs(g))}"
        _deliver((line + "\n").encode(), cfg["out"])
        return 0
    if cmd == "bracket":
        s = _build_moduli(cfg)
        b, shape = sieve_bracket(s, int(cfg["n"]), z_grid=int(cfg["z_grid"]),
                                 mode=cfg["mode"], threads=int(cfg["threads"]))
        _deliver((f"{fmt17(b)} {fmt17(shape)}\n").encode(), cfg["out"])
        return 0
    if cmd == "shapes":
        return _cmd_shapes(cfg)
    if cmd == "verify":
        return _cmd_verify(cfg)
    return _cmd_sweep(cfg)


def main(argv=None) -> int:
    try:
        cfg = parse_args(sys.argv[1:] if argv is None else argv)
        return run_experiment(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SieveLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
