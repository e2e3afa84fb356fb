"""The benchmark's workloads and the operations each one runs.

Every operation runs in a fresh process, one after another (a closed
loop with one client).  CLI operations are `python -m sievelab ...` as a
user types it; library operations run `library_ops.py`, which calls the
public API in-process.  Each workload has four operations.

Why these workloads:

- sieve: sequence folding, the dense q x q transform and the sieve sum,
  through the CLI.  sieve_wide (N << q) is nearly all transform and
  sweep_long (eight small moduli at N = 2^22) nearly all folding, so a
  change that helps one shape of input at the cost of the other shows.
  sweep_shapes is the shapes-only report path.
- bracket: the bracket evaluator, window counting and Farey enumeration,
  through the CLI, with no sequence work.  The octave bracket has tiny
  residue classes (Python loop cost), the prime bracket large ones
  (window-profile cost); a_count is one huge class and k_delta a
  1.8 M-fraction Farey list.
- crowding: the paper's crowding machinery, quadratic congruences and
  oscillatory quadrature, which no CLI command reaches.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Op:
    """One benchmark operation.

    args holds the CLI flags for a CLI operation and is empty for a
    library operation.  threaded marks the sweeps and brackets, whose
    --threads reaches the thread pool of sieve_lhs or sieve_bracket; they
    also run at two threads, and their output must not change.  repeat
    runs a short operation several times per visit, so that its median
    rests on about a second of work.
    """

    name: str
    args: tuple[str, ...] = ()
    threaded: bool = False
    repeat: int = 1

    @property
    def is_cli(self) -> bool:
        return bool(self.args)

    def flag(self, name: str) -> str:
        """Value of a CLI flag of this operation."""
        return self.args[self.args.index(name) + 1]

    def cli_argv(self, seed: int, threads: int) -> list[str]:
        """Arguments after `python -m sievelab`."""
        argv = [*self.args, "--seed", str(seed)]
        if self.threaded:
            argv += ["--threads", str(threads)]
        return argv

    def argv(self, python: str, seed: int, threads: int) -> list[str]:
        if self.is_cli:
            return [python, "-m", "sievelab", *self.cli_argv(seed, threads)]
        return [python, str(BENCH_DIR / "library_ops.py"), self.name, str(seed)]


def _cli(name: str, flags: str, threaded: bool = False, repeat: int = 1) -> Op:
    return Op(name, tuple(flags.split()), threaded, repeat)


WORKLOADS: dict[str, tuple[Op, ...]] = {
    "sieve": (
        _cli("sweep", "--cmd sweep --grid-n 4096,65536,1048576 --q-exp 0.29 "
                      "--moduli squares --seq ones,random_phases", True),
        _cli("sieve_wide", "--cmd sieve-sum --seq random_phases --n 4096 "
                           "--moduli octave --q0 2048"),
        _cli("sweep_long", "--cmd sweep --grid-n 4194304 --grid-q 8 "
                           "--moduli squares --seq ones,random_phases", True),
        _cli("sweep_shapes", "--cmd sweep --grid-n 100000000 --q-exp 0.29 "
                             "--no-lhs --moduli squares", repeat=5),
    ),
    "bracket": (
        _cli("bracket_octave", "--cmd bracket --moduli octave --q0 1024 "
                               "--n 65536 --z-grid 64", True),
        _cli("bracket_primes", "--cmd bracket --moduli primes --q 5000 "
                               "--n 16384 --z-grid 32", True),
        _cli("a_count", "--cmd a-count --moduli primes --q 50000 --u 500 "
                        "--k 1 --l 0 --t 1", repeat=2),
        _cli("k_delta", "--cmd k-delta --moduli squares --q 208 --delta 0.0001"),
    ),
    "crowding": (
        Op("crowding_shape"),
        Op("class_count"),
        Op("quadrature"),
        Op("quad_roots"),
    ),
}

ALL_OPS: dict[str, Op] = {op.name: op for ops in WORKLOADS.values() for op in ops}
