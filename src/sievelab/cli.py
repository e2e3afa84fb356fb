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
import itertools
import math
import sys
import warnings
from typing import NamedTuple

from .bounds import (SHAPE_NAMES, BoundReport, build_report, sieve_bracket,
                     sieve_lhs)
from .counting import WindowQuery, count_window_ap, k_delta
from .errors import ConfigError, InputError, SieveLabError
from .moduli import FareySlabs, ModuliSet, build_moduli_set
from .sequences import make_sequence, sequence_from_file
from .util import fmt17

_COMMANDS = ("sieve-sum", "k-delta", "a-count", "farey", "gauss", "bracket",
             "shapes", "verify", "sweep")

_MODULI_ALIASES = {"squares": "squares_up_to", "octave": "squares_in_octave",
                   "primes": "primes_up_to"}
MAX_THREADS = 64  # worker threads one run may start: above the 8 of criterion 12


class Option(NamedTuple):
    """One option: --name-with-dashes as a flag, name as a config key.

    type is int, float, str or bool (a flag taking no value), or a
    one-item list such as [int] for a comma-separated list.  check is a
    tuple of choices, a lower bound or a range (of each item), or None.
    """

    name: str
    type: object
    default: object
    check: object
    help: str | None

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    def coerce(self, val, where: str):
        """val, flag text or a JSON value, converted and checked."""
        out = _convert(self.type, val, where)
        for v in out if isinstance(self.type, list) else (out,):
            if isinstance(self.check, tuple) and v not in self.check:
                raise ConfigError(f"{where}={v!r} is not one of "
                                  f"{', '.join(self.check)}")
            if isinstance(self.check, int) and v < self.check:
                raise ConfigError(f"{where} must be >= {self.check}")
            if isinstance(self.check, range) and v not in self.check:
                raise ConfigError(f"{where} must be from {self.check[0]} to {self.check[-1]}")
        return out


OPTIONS = (
    Option("cmd", str, None, _COMMANDS, None),
    Option("seq", [str], ("ones",), None,
           "sequence kind, comma list for sweep, or file:PATH"),
    Option("n", int, 1024, 1, "sequence length N"),
    Option("seed", int, 0, 0, "master RNG seed"),
    Option("n0", int, None, None, "position for the delta sequence"),
    Option("beta", float, None, None, "focus point for the focused kind"),
    Option("moduli", str, "squares", None, "squares | octave | primes | file:PATH"),
    Option("q", int, 8, None, "moduli size parameter"),
    Option("q0", float, None, None, "octave left endpoint"),
    Option("m", float, None, None, "interval offset for file moduli"),
    Option("eps", float, 0.0, None, "epsilon exponent in shapes"),
    Option("x", float, None, None, "well-distribution parameter"),
    Option("s_count", int, None, 0, "override the moduli count used in shapes"),
    Option("z_grid", int, 64, 2, "geometric grid size for the bracket"),
    Option("mode", str, "grid", ("grid", "exact"), "bracket maximization mode"),
    Option("grid_n", [int], None, 1, "comma list of N for sweep"),
    Option("grid_q", [int], None, None,
           "comma list of Q for sweep (length 1 broadcasts)"),
    Option("q_exp", float, None, None, "sweep Q = floor(N**exp) instead of --grid-q"),
    Option("delta", float, 0.25, None, "window half-width"),
    Option("u", float, 1.0, None, "window length for a-count"),
    Option("k", int, 1, None, "residue modulus (a-count, gauss)"),
    Option("l", int, 0, None, "residue class (a-count, gauss)"),
    Option("t", int, 1, None, "dilation factor for a-count"),
    Option("c", int, 4, 1, "Gauss sum modulus"),
    Option("no_lhs", bool, False, None, "sweep shapes only, skip the sieve sums"),
    Option("quick", bool, False, None, "reduced verification sweep sizes"),
    Option("out", str, None, None, "output path (default stdout)"),
    Option("format", str, "csv", ("csv", "json"), None),
    Option("threads", int, 1, range(1, MAX_THREADS + 1), "worker threads"),
)

_OPTION_BY_NAME = {opt.name: opt for opt in OPTIONS}


def _convert(kind, val, where: str):
    """val as an option of type kind takes it.

    Text converts as on the command line.  Otherwise a bool option takes
    only true/false, a str option only a string, a number option a
    number (an int one only an integral number), and a list option an
    array of its items or one item.
    """
    if isinstance(kind, list):
        if isinstance(val, str):
            val = [p for p in val.split(",") if p.strip()]
        elif not isinstance(val, list):
            val = [val]
        return tuple(_convert(kind[0], v, where) for v in val)
    if kind is bool or kind is str:
        if not isinstance(val, kind):
            want = "true or false" if kind is bool else "a string"
            raise ConfigError(f"{where}={val!r} is not {want}")
        return val
    if isinstance(val, bool) or not isinstance(val, (str, int, float)):
        raise ConfigError(f"{where}={val!r} is not a valid {kind.__name__}")
    try:
        out = kind(val)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}={val!r} is not a valid {kind.__name__}") from exc
    if kind is int and isinstance(val, float) and out != val:
        raise ConfigError(f"{where}={val!r} is not a valid int")
    return out


def _load_config_file(path: str) -> dict:
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    out = {}
    for key, val in raw.items():
        opt = _OPTION_BY_NAME.get(key.replace("-", "_"))
        if opt is None:
            raise ConfigError(f"config {path}: unknown key {key!r}")
        if val is None and opt.default is not None:
            raise ConfigError(f"config {path}: {key} must not be null")
        out[opt.name] = None if val is None else opt.coerce(val, f"config {path}: {key}")
    return out


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def parse_args(argv) -> dict:
    """Merged configuration: defaults, then config file, then flags."""
    p = _Parser(
        prog="sievelab",
        description="Measure trigonometric-polynomial sieve sums over sparse "
                    "moduli sets and compare them with the catalogued bound "
                    "shapes.")
    p.add_argument("--config", help="JSON file of defaults; flags override")
    for opt in OPTIONS:
        if opt.type is bool:
            p.add_argument(opt.flag, action="store_const", const=True,
                           help=opt.help)
        else:
            choices = opt.check if isinstance(opt.check, tuple) else None
            p.add_argument(opt.flag, choices=choices, help=opt.help)
    args = vars(p.parse_args(argv))
    # converted here, not as argparse types: argparse would swallow the
    # ConfigError, a ValueError, into its own message
    flags = {opt.name: opt.coerce(args[opt.name], opt.flag) for opt in OPTIONS
             if args[opt.name] is not None}

    cfg = {opt.name: opt.default for opt in OPTIONS}
    if args["config"]:
        cfg.update(_load_config_file(args["config"]))
    cfg.update(flags)
    if cfg["cmd"] is None:
        raise ConfigError("no command given (--cmd or config file)")
    return cfg


def _build_sequence(cfg, kind=None, n=None):
    if kind is None:
        if len(cfg["seq"]) != 1:
            raise ConfigError("this command needs a single sequence kind")
        kind = cfg["seq"][0]
    n = cfg["n"] if n is None else n
    if kind.startswith("file:"):
        return sequence_from_file(kind[5:])
    return make_sequence(kind, n, n0=cfg["n0"], seed=cfg["seed"], beta=cfg["beta"])


def _build_moduli(cfg, q=None) -> ModuliSet:
    kind = cfg["moduli"]
    if kind.startswith("file:"):
        return build_moduli_set("file", path=kind[5:], M=cfg["m"])
    if cfg["m"] is not None:
        raise ConfigError(f"--m sets the offset of file: moduli, not of {kind}")
    kind = _MODULI_ALIASES.get(kind, kind)
    if kind == "squares_in_octave":
        q0 = cfg["q0"] if q is None else q
        if q0 is None:
            raise ConfigError("octave moduli need --q0")
        return build_moduli_set(kind, q0=q0)
    if kind in ("squares_up_to", "primes_up_to"):
        return build_moduli_set(kind, q=cfg["q"] if q is None else q)
    raise ConfigError(f"unknown moduli kind {cfg['moduli']!r}")


def emit_report(report: BoundReport, fmt: str) -> bytes:
    """Serialize a report: JSON field-for-field, or name/value/ratio CSV."""
    if fmt == "json":
        return (report.to_json() + "\n").encode()
    return _csv(report.csv_rows()).encode()


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _deliver(text, out: str | None) -> None:
    """Write text, a string or an iterable of strings, to out or stdout."""
    chunks = [text] if isinstance(text, str) else text
    if out:
        with open(out, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode())
    else:
        for chunk in chunks:
            sys.stdout.write(chunk)


def _report(cfg, s: ModuliSet, n: int, kind=None) -> BoundReport:
    """The shapes over s at length n, beside the sieve sum of the kind
    sequence unless --no-lhs is set.  A file: sequence has its own
    length, which replaces n whether or not it is measured; under
    --no-lhs that is the kind given, or the only --seq kind."""
    if cfg["no_lhs"]:
        seq = None
        if kind is None and len(cfg["seq"]) == 1:
            kind = cfg["seq"][0]
        if kind is not None and kind.startswith("file:"):
            n = _build_sequence(cfg, kind).N
    else:
        seq = _build_sequence(cfg, kind, n)
    return build_report(seq, s, n=n, eps=cfg["eps"], x=cfg["x"],
                        s_count=cfg["s_count"], threads=cfg["threads"])


def _sweep(cfg) -> str:
    grid_n = cfg["grid_n"]
    if not grid_n:
        raise ConfigError("sweep needs a non-empty --grid-n")
    if cfg["grid_q"] is not None and cfg["q_exp"] is not None:
        raise ConfigError("--grid-q and --q-exp both set Q: give one")
    if cfg["grid_q"] is not None:
        grid_q = cfg["grid_q"]
        if len(grid_q) == 1:
            grid_q = grid_q * len(grid_n)
        if len(grid_q) != len(grid_n):
            raise ConfigError("--grid-q must match --grid-n or broadcast")
    elif cfg["q_exp"] is not None:
        q_exp = cfg["q_exp"]
        # N**q_exp must be a float; 1023 leaves room for rounding of the log
        if not (math.isfinite(q_exp) and q_exp * math.log2(max(grid_n)) < 1023):
            raise ConfigError(f"--q-exp={q_exp} takes N**q_exp outside the floats")
        grid_q = [math.floor(n ** q_exp) for n in grid_n]
    else:
        raise ConfigError("sweep needs --grid-q or --q-exp")
    if not cfg["seq"]:
        raise ConfigError("sweep needs at least one sequence kind")

    measured = not cfg["no_lhs"]
    rows = [["n", "q", "seq", "seed", "Z", "lhs"]
            + [f"shape_{nm}" for nm in SHAPE_NAMES]
            + [f"ratio_{nm}" for nm in SHAPE_NAMES]]
    for n, q in zip(grid_n, grid_q):
        s = _build_moduli(cfg, q=q)
        for kind in cfg["seq"] if measured else (None,):
            rep = _report(cfg, s, n, kind)
            rows.append([str(rep.N), str(q), kind or "", str(cfg["seed"])]
                        + ([fmt17(rep.Z), fmt17(rep.lhs)] if measured else ["", ""])
                        + _cells(rep.shapes)
                        + _cells(rep.ratios if measured else {}))
    return _csv(rows)


def _cells(values: dict) -> list[str]:
    return [fmt17(values[nm]) if nm in values else "" for nm in SHAPE_NAMES]


def _cmd_verify(cfg) -> int:
    from .verify import run_verify

    results = run_verify(quick=cfg["quick"], seed=cfg["seed"])
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
    _deliver("\n".join(lines) + "\n", cfg["out"])
    return 0 if failed_groups == 0 else 1


def run_experiment(cfg) -> int:
    cmd = cfg["cmd"]
    if cmd == "verify":
        return _cmd_verify(cfg)
    if cmd == "sieve-sum":
        text = fmt17(sieve_lhs(_build_sequence(cfg), _build_moduli(cfg),
                               threads=cfg["threads"])) + "\n"
    elif cmd == "k-delta":
        text = f"{k_delta(_build_moduli(cfg), cfg['delta'])}\n"
    elif cmd == "a-count":
        query = WindowQuery(cfg["u"], cfg["k"], cfg["l"], cfg["t"])
        text = f"{count_window_ap(_build_moduli(cfg), query)}\n"
    elif cmd == "farey":
        slabs = FareySlabs(_build_moduli(cfg))
        if cfg["out"]:
            text = itertools.chain(
                ["num,den,value\n"],
                (_csv(zip(fl.numerators.tolist(), fl.denominators.tolist(),
                          map(fmt17, fl.values.tolist()))) for fl in slabs))
        else:
            text = f"{len(slabs)}\n"
    elif cmd == "gauss":
        from .harmonic import gauss_sum

        g = gauss_sum(cfg["k"], cfg["l"], cfg["c"])
        text = f"{fmt17(g.real)} {fmt17(g.imag)} {fmt17(abs(g))}\n"
    elif cmd == "bracket":
        b, shape = sieve_bracket(_build_moduli(cfg), cfg["n"], z_grid=cfg["z_grid"],
                                 mode=cfg["mode"], threads=cfg["threads"])
        text = f"{fmt17(b)} {fmt17(shape)}\n"
    elif cmd == "shapes":
        rep = _report(cfg, _build_moduli(cfg), cfg["n"])
        text = emit_report(rep, cfg["format"]).decode()
    else:
        text = _sweep(cfg)
    _deliver(text, cfg["out"])
    return 0


def main(argv=None) -> int:
    with warnings.catch_warnings():
        # a warning that the filters let through is one stderr line too
        warnings.showwarning = lambda message, *_: _fail("warning", message, 0)
        try:
            cfg = parse_args(sys.argv[1:] if argv is None else argv)
            return run_experiment(cfg)
        except InputError as exc:
            return _fail("config error", exc, 2)
        except SieveLabError as exc:
            return _fail("error", exc, 1)
        except OSError as exc:
            return _fail("io error", exc, 1)
        except MemoryError as exc:
            return _fail("error", str(exc) or "out of memory", 1)


def _fail(prefix: str, exc: object, code: int) -> int:
    """Print exc as one stderr line, whatever text it echoes; return code."""
    print(f"{prefix}: {exc}".replace("\n", "\\n"), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
