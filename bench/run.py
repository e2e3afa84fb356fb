"""sievelab benchmark: end-to-end timings per workload, layer trace on request.

Run from the root of a source checkout (sievelab is imported from src/):

    python3 bench/run.py --workload sieve --seed 0 --seconds 40 --trace 0

--trace 0 measures the workload with tracing off.  Each operation runs
in a fresh process, one at a time (a closed loop with one client), at
--threads 1 and, for the sweeps and brackets, again at --threads 2.  The
operations are visited round-robin while the next visit is expected to
end within --seconds, so every run spreads its samples over the whole
time.  Latency is wall time from spawn to exit; peak RSS comes from the
child's rusage.

- wall_s: the sum over the operations of their median latency at one
  thread; wall_s_t2 the same with the threaded operations at two threads
  (the crowding workload has none, so there it equals wall_s).
- peak_rss_mb: the largest median peak RSS of any operation at one
  thread (at two, the sweep's peak depends on how its threads interleave).
- setup_s: median seconds from spawning an interpreter until
  `import sievelab` returns, sampled at the start and before each visit.

The timings are scaled to a reference host by a probe sampled beside
set-up (see PROBE_REF_S); the log gives the scale and the unscaled
samples.  Each operation's unscaled latency (median, tail percentile and
count) is logged, not reported as a metric: a single operation's latency
spreads from run to run by more than a bound that would catch a
regression, while a sum over the workload averages that out.

--trace 1 makes one untraced and one traced pass over the operations of
every workload, at one thread, and reports the per-layer metrics (see
layertrace.py) and each operation's untraced latency, op.<name>_s.  The
seed does not change which operations run.

Every output is checked (see checks.py); a failed check, a crash, a
thread-count or run-to-run byte difference counts as a failed
operation and makes the run exit 1.  The last line of stdout is one JSON
object: correct, attempted, failed and metrics.

Record the references of the current code at the default seed with
--record-refs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import stats
import layertrace
from workloads import ALL_OPS, BENCH_DIR, WORKLOADS, Op

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 5
PYTHON = sys.executable

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "wall_s_t2": "s",
                    "peak_rss_mb": "MB"}
# The traced run also reports each operation's untraced latency.
PER_LAYER = (*layertrace.PER_LAYER, *((f"op.{name}_s", "s") for name in ALL_OPS))


@dataclass
class Result:
    """One child process: wall time, peak RSS, stdout and problems found."""

    wall: float
    rss_mb: float
    out: bytes
    problems: list[str] = field(default_factory=list)


class Runner:
    """Spawns operation processes inside one run's deadline."""

    def __init__(self, out_dir: Path, deadline: float):
        self.out_dir = out_dir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def spawn(self, argv: list[str], tag: str) -> Result:
        out_path = self.out_dir / f"{tag}.out"
        err_path = self.out_dir / f"{tag}.err"
        timeout = max(1.0, self.remaining())
        killed = threading.Event()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=ROOT)

            def kill():
                killed.set()
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        res = Result(wall, usage.ru_maxrss / 1024.0, out_path.read_bytes())
        if killed.is_set():
            res.problems.append(f"{tag}: killed after {timeout:.0f} s")
        elif proc.returncode != 0:
            tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
            res.problems.append(f"{tag}: exit {proc.returncode} {' '.join(tail)}")
        return res

    def op(self, op: Op, seed: int, threads: int) -> Result:
        return self.spawn(op.argv(PYTHON, seed, threads), f"{op.name}.t{threads}")

    def traced(self, op: Op, seed: int) -> tuple[Result, Path]:
        spans = self.out_dir / f"{op.name}.spans.npz"
        argv = [PYTHON, str(BENCH_DIR / "layertrace.py"), op.name, str(seed), str(spans)]
        return self.spawn(argv, f"{op.name}.traced"), spans


def _startup(env, module: str) -> float:
    """Seconds from spawning a fresh interpreter until `import module` returns."""
    code = f"import {module}, time; print(time.monotonic())"
    t0 = time.monotonic()
    out = subprocess.run([PYTHON, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return float(out) - t0


# The host's speed drifts by a quarter and more from minute to minute,
# and process start-up tracks that drift: a run's median set-up time and
# its latencies move together.  The probe, a fresh interpreter importing
# numpy, is start-up work that no change to sievelab can alter.  Timings
# are reported in seconds of a host on which the probe's median is
# PROBE_REF_S (about its median on a 2-vCPU Xeon VM, Python 3.11, numpy
# 2.4): each is scaled by PROBE_REF_S / the probe's median in the run.
PROBE_REF_S = 0.13


def host_sample(env, host: dict[str, list[float]]) -> None:
    """Adds a set-up sample (import sievelab) and a probe sample to host."""
    host["setup_s"].append(_startup(env, "sievelab"))
    host["probe_s"].append(_startup(env, "numpy"))


def preflight(env) -> str | None:
    """Why sievelab cannot be run from this checkout, or None."""
    if not (SRC / "sievelab" / "__init__.py").is_file():
        return f"no sievelab sources under {SRC}"
    code = "import sievelab; print(sievelab.__file__)"
    proc = subprocess.run([PYTHON, "-c", code], env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        return f"cannot import sievelab: {proc.stderr.strip()[-300:]}"
    if Path(proc.stdout.strip()).resolve().parent != (SRC / "sievelab").resolve():
        return f"sievelab imported from {proc.stdout.strip()}, not from {SRC}"
    return None


def machine_facts() -> dict:
    import numpy

    facts = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
             "python": platform.python_version(), "numpy": numpy.__version__}
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        facts["git_describe"] = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10).stdout.strip() or "unavailable"
    except (OSError, subprocess.SubprocessError):
        facts["git_describe"] = "unavailable"
    best = (0, "unknown")
    for idx in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((idx / "level").read_text())
            size = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        best = max(best, (level, f"L{level} {size}"))
    facts["llc"] = best[1]
    return facts


class Tally:
    """Attempted and failed operation runs, with the problems seen."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def add(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems


def check_first(op: Op, seed: int, res: Result, refs: dict, log) -> list[str]:
    """Problems of an operation's first output; logs its digest."""
    if res.problems:
        return res.problems
    sha = checks.digest(res.out)
    note = ""
    if seed == refs["seed"]:
        same = sha == refs["ops"][op.name]["sha256"]
        note = " (reference bytes)" if same else " (bytes differ from reference)"
    log(f"digest {op.name} sha256 {sha}{note}")
    return checks.check_output(op.name, seed, res.out, refs)


def checked_run(runner: Runner, op: Op, seed: int, threads: int, first: dict,
                refs: dict, tally: Tally, log) -> Result | None:
    """Run an operation and check its output; None if the run failed.

    The first output of each operation is checked in full; every later
    one, at either thread count, must repeat its bytes exactly.
    """
    res = runner.op(op, seed, threads)
    if res.problems:
        problems = res.problems
    elif op.name not in first:
        problems = check_first(op, seed, res, refs, log)
        first[op.name] = res.out
    elif res.out != first[op.name]:
        problems = [f"{op.name}: output at --threads {threads} differs from the first run"]
    else:
        problems = []
    return res if tally.add(problems) else None


def timed_run(workload: str, seed: int, seconds: float, runner: Runner,
              refs: dict, host: dict[str, list[float]], log) -> tuple[Tally, dict]:
    """Visit the workload's (operation, threads) pairs round-robin until
    --seconds is used up.

    The threaded operations appear once per thread count.  Each visit
    adds a set-up and a probe sample to host, then spawns the operation
    op.repeat times.  A visit starts only while it is expected, from the
    pair's last latency, to end within --seconds, and every pair is
    visited at least once.  Returns the tally and the results per pair;
    the results are empty once an operation has failed.
    """
    ops = WORKLOADS[workload]
    visits = [(op, t) for op in ops for t in ((1, 2) if op.threaded else (1,))]
    tally = Tally()
    lat: dict[tuple[str, int], list[Result]] = {(op.name, t): [] for op, t in visits}
    first: dict[str, bytes] = {}
    start = time.monotonic()
    for i in itertools.count():
        op, threads = visits[i % len(visits)]
        key = (op.name, threads)
        if i >= len(visits):
            expected = op.repeat * lat[key][-1].wall
            if (time.monotonic() - start + expected > seconds
                    or runner.remaining() < 2 * expected):
                break
        host_sample(runner.env, host)
        for _ in range(op.repeat):
            res = checked_run(runner, op, seed, threads, first, refs, tally, log)
            if res is None:
                return tally, {}
            lat[key].append(res)
    return tally, lat


def end_to_end(ops, host: dict[str, list[float]], lat: dict) -> dict[str, float]:
    """The end-to-end metrics from a timed run's samples.

    Timings are scaled to the reference host by the run's probe median.
    """
    scale = PROBE_REF_S / statistics.median(host["probe_s"])
    median = {key: scale * statistics.median(r.wall for r in runs)
              for key, runs in lat.items()}
    return {
        "setup_s": scale * statistics.median(host["setup_s"]),
        "wall_s": sum(median[(op.name, 1)] for op in ops),
        "wall_s_t2": sum(median[(op.name, 2 if op.threaded else 1)] for op in ops),
        "peak_rss_mb": max(statistics.median(r.rss_mb for r in lat[(op.name, 1)])
                           for op in ops),
    }


def traced_run(seed: int, runner: Runner, refs: dict, setup_s: float,
               log) -> tuple[Tally, dict[str, float]]:
    ops = list(ALL_OPS.values())
    tally = Tally()
    plain: dict[str, Result] = {}
    for op in ops:
        res = runner.op(op, seed, 1)
        tally.add(check_first(op, seed, res, refs, log))
        plain[op.name] = res
    traces, traced_wall = [], 0.0
    for op in ops:
        res, spans = runner.traced(op, seed)
        problems = res.problems or (
            [] if res.out == plain[op.name].out
            else [f"{op.name}: traced output differs from untraced output"])
        if not problems:
            tr = layertrace.load(spans)
            summ = layertrace.op_summary(tr)
            covered = sum(summ["layer_self"].values())
            layers = ", ".join(f"{k} {v:.4f}" for k, v in sorted(summ["layer_self"].items()))
            log(f"trace {op.name}: wall {res.wall:.4f} s (untraced "
                f"{plain[op.name].wall:.4f} s, peak RSS {plain[op.name].rss_mb:.1f} MB), "
                f"layer self s: {layers}")
            if covered > res.wall:
                problems = [f"{op.name}: layer self times {covered:.4f} s exceed op wall"]
            traces.append(tr)
        traced_wall += res.wall
        tally.add(problems)
    plain_wall = sum(r.wall for r in plain.values())
    metrics = layertrace.per_layer_metrics(
        traces, startup_share=setup_s * len(ops) / plain_wall,
        overhead_share=traced_wall / plain_wall - 1.0)
    metrics.update({f"op.{name}_s": r.wall for name, r in plain.items()})
    return tally, metrics


def record_refs(runner: Runner) -> int:
    seed = checks.DEFAULT_SEED
    refs = {"seed": seed, "ops": {}}
    for op in ALL_OPS.values():
        res = runner.op(op, seed, 1)
        bad = res.problems or checks.certify(op.name, res.out)
        if bad:
            print("\n".join(bad), file=sys.stderr)
            return 1
        refs["ops"][op.name] = checks.reference_entry(op.name, res.out)
        print(f"recorded {op.name}: {refs['ops'][op.name]['sha256']}")
    with open(checks.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-refs", action="store_true",
                   help="rewrite refs.json from the current code and exit")
    args = p.parse_args(argv)
    if args.workload is None and not args.record_refs:
        p.error("--workload is required")

    deadline = time.monotonic() + RUN_LIMIT_S
    tag = "refs" if args.record_refs else f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = OUT_ROOT / tag
    runner = Runner(out_dir, deadline)
    why = preflight(runner.env)
    if why:
        print(f"bench: {why}", file=sys.stderr)
        return 2
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.record_refs:
        return record_refs(runner)
    try:
        refs = checks.load_refs()
    except (OSError, ValueError) as exc:
        print(f"bench: cannot read references: {exc}", file=sys.stderr)
        return 2

    def log(line: str) -> None:
        print(line, flush=True)

    log("machine " + json.dumps(machine_facts()))
    log("counts and bytes in the trace are computed from call arguments, not measured")
    host: dict[str, list[float]] = {"setup_s": [], "probe_s": []}
    for _ in range(SETUP_SAMPLES):
        host_sample(runner.env, host)
    setup_s = statistics.median(host["setup_s"])

    if args.trace:
        tally, layer = traced_run(args.seed, runner, refs, setup_s, log)
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        tally, lat = timed_run(args.workload, args.seed, args.seconds,
                               runner, refs, host, log)
        for (name, threads), runs in lat.items():
            log(stats.describe(f"{name} at --threads {threads}", "s",
                               [r.wall for r in runs]))
        for name, values in host.items():
            log(stats.describe(f"{name} (unscaled)", "s", values))
        metrics = {}
        if lat:
            values = end_to_end(WORKLOADS[args.workload], host, lat)
            log(f"timings scaled by {PROBE_REF_S} / probe median "
                f"{statistics.median(host['probe_s']):.6g} s")
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}
        samples = {**host, **{
            f"{name}.t{threads}": [[r.wall, r.rss_mb] for r in runs]
            for (name, threads), runs in lat.items()}}
        (out_dir / "samples.json").write_text(json.dumps(samples) + "\n")
    for problem in tally.problems:
        log(f"FAIL {problem}")
    log(f"fail_share {tally.failed}/{tally.attempted}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
