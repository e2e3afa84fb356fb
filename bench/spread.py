"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py --workload bracket --seeds 1-10

Runs are made one after another.  For each end-to-end metric it prints
the median of the per-run values and their spread, the distance between
the first and third quartile (statistics.quantiles) as a share of the
median, next to the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import stats
from workloads import BENCH_DIR, WORKLOADS


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = p.parse_args(argv)
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=BENCH_DIR.parent)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()),
              flush=True)
    if len(args.seeds) < 2:
        return 0
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        spread = stats.quartile_spread(xs)
        print(f"{m['name']:12s} median {statistics.median(xs):10.4f} {m['unit']:3s} "
              f"spread {spread:.3f} bound {m['bound']} "
              f"({'below a third' if spread < m['bound'] / 3 else 'within' if spread <= m['bound'] else 'OVER'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
