"""Self-tests of the benchmark harness.

    python3 -m pytest bench/selftest.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
from workloads import ALL_OPS, WORKLOADS  # noqa: E402


# -- percentile rule ---------------------------------------------------------

@pytest.mark.parametrize("n, p", [(20, 50.0), (39, 50.0), (40, 75.0),
                                  (100, 90.0), (199, 90.0), (200, 95.0),
                                  (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    samples = list(range(n, 0, -1))
    got_p, value = stats.tail_percentile(samples)
    assert got_p == p
    assert sum(s > value for s in samples) >= 10
    higher = [q for q in stats.TAIL_LADDER if q > p]
    for q in higher:
        _, v = stats.nearest_rank(samples, q)
        assert sum(s > v for s in samples) < 10


def test_tail_percentile_absent_below_twenty_samples():
    assert stats.tail_percentile(list(range(19))) is None
    assert stats.summarize([3.0, 1.0, 2.0]) == {"median": 2.0, "tail_p": None,
                                                "tail": None, "n": 3}


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    # 0: [0, 10] root; 1: [1, 6] child; 2: [2, 4] grandchild; 3: [7, 9] child
    parent = np.array([-1, 0, 1, 0])
    t0 = np.array([0.0, 1.0, 2.0, 7.0])
    t1 = np.array([10.0, 6.0, 4.0, 9.0])
    own = layertrace.self_times(parent, t0, t1)
    assert own.tolist() == [3.0, 3.0, 2.0, 2.0]
    assert own.sum() == pytest.approx(10.0)  # self times tile the root span


def test_tracer_records_nested_spans_through_module_namespaces(capsys):
    import sievelab.bounds
    import sievelab.cli

    original = sievelab.bounds.window_count_profile
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        rc = sievelab.cli.main(["--cmd", "bracket", "--moduli", "octave",
                                "--q0", "64", "--n", "256", "--z-grid", "4"])
    finally:
        tracer.uninstall()
    assert rc == 0 and capsys.readouterr().out
    assert sievelab.bounds.window_count_profile is original
    names = [tracer.names[i] for i in tracer.span_name]
    assert names[0] == "cli.main"
    assert "counting.window_count_profile" in names  # called from bounds
    assert "arith.factorize" in names  # called through divisors
    tr = {"names": tracer.names, "name": np.array(tracer.span_name),
          "t0": np.array(tracer.t0), "t1": np.array(tracer.t1),
          "parent": np.array(tracer.parent)}
    summ = layertrace.op_summary(tr)
    root = tracer.t1[0] - tracer.t0[0]
    assert sum(summ["layer_self"].values()) == pytest.approx(root)
    sb = names.index("bounds.sieve_bracket")
    assert tracer.parent[sb] == 0
    assert all(tracer.parent[i] >= 0 for i in range(1, len(names)))
    # 16 r values, 4 grid points: sum of phi(r) for r <= 16 is 80
    assert tracer.brackets == [(256, 4, "grid")]
    assert layertrace.bracket_cells(256, 4, "grid") == 80 * 4
    assert tracer.peak_mb["counting.window_count_profile"] > 0


# -- failure counting --------------------------------------------------------

def test_tally_counts_failed_runs_against_attempted():
    tally = run.Tally()
    assert tally.add([])
    assert not tally.add(["a_count: 94 != reference 95", "second problem"])
    assert tally.add([])
    assert (tally.attempted, tally.failed) == (3, 1)
    assert len(tally.problems) == 2


def test_nonzero_exit_is_a_failed_run(tmp_path):
    runner = run.Runner(tmp_path, deadline=time.monotonic() + 60)
    res = runner.spawn([sys.executable, "-c", "import sys; print('x'); sys.exit(3)"], "boom")
    assert res.out == b"x\n"
    assert res.problems and "exit 3" in res.problems[0]
    assert res.rss_mb > 0 and res.wall > 0


def test_end_to_end_sums_median_latencies_scaled_by_the_probe():
    def res(wall, rss=10.0):
        return run.Result(wall, rss, b"")

    ops = WORKLOADS["bracket"]
    lat = {(op.name, t): [res(1.0), res(3.0), res(2.0)]
           for op in ops for t in ((1, 2) if op.threaded else (1,))}
    lat[("bracket_octave", 2)] = [res(5.0, rss=199.0)]
    lat[("k_delta", 1)] = [res(2.0, rss=99.0)]
    host = {"setup_s": [0.3, 0.1, 0.2], "probe_s": [run.PROBE_REF_S] * 3}
    m = run.end_to_end(ops, host, lat)
    assert m == pytest.approx({"setup_s": 0.2, "wall_s": 8.0, "wall_s_t2": 11.0,
                               "peak_rss_mb": 99.0})
    # a host running at half speed reports the same timings and memory
    host = {"setup_s": [0.6, 0.2, 0.4], "probe_s": [2 * run.PROBE_REF_S] * 3}
    slow = {key: [res(2 * r.wall, r.rss_mb) for r in runs] for key, runs in lat.items()}
    assert run.end_to_end(ops, host, slow) == pytest.approx(m)


@pytest.fixture(scope="module")
def refs():
    return checks.load_refs()


def test_integer_outputs_must_match_exactly(refs):
    good = refs["ops"]["k_delta"]["fields"]["count"]
    assert checks.check_output("k_delta", 7, f"{good}\n".encode(), refs) == []
    bad = checks.check_output("k_delta", 7, f"{int(good) + 1}\n".encode(), refs)
    assert len(bad) == 1 and "reference" in bad[0]


def test_float_outputs_must_match_within_tolerance(refs):
    want = float(refs["ops"]["sieve_wide"]["fields"]["lhs"])
    seed = refs["seed"]
    near = format(want * (1 + 0.1 * checks.FLOAT_RTOL), ".17g")
    far = format(want * (1 + 10 * checks.FLOAT_RTOL), ".17g")
    assert checks.check_output("sieve_wide", seed, f"{near}\n".encode(), refs) == []
    assert checks.check_output("sieve_wide", seed, f"{far}\n".encode(), refs)


def test_other_seeds_are_held_to_certified_bounds(refs):
    # above (N + Q^2) * Z with N = 4096 and Q = 4096
    assert checks.check_output("sieve_wide", 7, b"1e12\n", refs)
    assert checks.check_output("sieve_wide", 7, b"-1\n", refs)
    assert checks.check_output("sieve_wide", 7, b"143025549.3\n", refs) == []
    assert checks.check_output("quad_roots", 7, b"1 1 8 2 1 3\n", refs)
    assert checks.check_output("class_count", 7, b"1 4 1 1 0 0\n", refs)
    assert checks.check_output("k_delta", 7, b"oops\n", refs)


# -- benchmark definition ----------------------------------------------------

def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(len(ops) == 4 for ops in WORKLOADS.values())
    assert set(checks.PARSERS) == set(checks.CERTIFY) == set(ALL_OPS)
