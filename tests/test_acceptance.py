"""Acceptance gate: one printed pass/fail line per numbered criterion.

Run as  pytest tests/test_acceptance.py -v -s  to see the lines.  The
criteria exercise the full-size sweeps, so the module takes a couple of
minutes end to end.  Criterion 10b is a known-failing ordering kept
visible as a strict xfail rather than weakened.
"""

import json
import math
import time
from pathlib import Path

import pytest

from sievelab.bounds import bound_shapes
from sievelab.cli import main
from sievelab.verify import (
    VDC_CALIBRATION,
    CheckResult,
    bracket_checks,
    classical_bound_trials,
    dirichlet_trials,
    gauss_bound_sweep,
    kdelta_oracle_trials,
    kernel_checks,
    oscillatory_checks,
    p_alpha_oracle_trials,
    parseval_trials,
    quad_roots_sweep,
    square_window_sweep,
    window_oracle_trials,
)

SEED = 20260822

FULL_Q0_LIST = (10, 50, 100, 500, 1000, 5000, 10**4, 5 * 10**4, 10**5)

# Shape values at N = 10**8 for the two caps floor(N**0.29) = 208 and
# floor(N**0.42) = 2290, frozen from a hand-checked run.  Logs are
# natural throughout.
FROZEN_SHAPES = {
    (10**8, 208): {
        "squares_classical": 1971773696.0,
        "squares_summed": 20808998912.0,
        "zhao": 11360963249.778973,
        "squares_refined": 3266453802.9823475,
        "squares_fourier": 2459450017.499877,
    },
    (10**8, 2290): {
        "squares_classical": 27500684810000.0,
        "squares_summed": 241008989000.0,
        "zhao": 583616499112.75952,
        "squares_refined": 544121180863.33929,
        "squares_fourier": 12008989000.0,
    },
}


def _crit(num, desc: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"{tag} criterion {num}: {desc}{detail}")
    assert ok, f"criterion {num}: {desc}{detail}"


def _crit_group(num, desc: str, res: CheckResult) -> None:
    detail = ""
    if not res.ok:
        total = res.passed + res.failed
        first = res.notes[0] if res.notes else ""
        detail = f" [{res.failed} of {total} failed; first: {first}]"
    _crit(num, desc, res.ok, detail)


def test_criterion_01_gauss_magnitude_sweep():
    t0 = time.monotonic()
    res = gauss_bound_sweep(512, SEED + 1)
    dt = time.monotonic() - t0
    if dt > 60.0:
        res.expect(False, f"sweep took {dt:.1f}s, budget is 60s")
    _crit(1, "quadratic exponential sums stay within the square-root "
             "magnitude cap for every modulus up to 512",
          res.ok, f" ({dt:.1f}s)" if res.ok else f" [{res.notes[0]}]")


def test_criterion_02_classical_inequality():
    _crit_group(2, "measured sieve sums obey the classical inequality "
                   "on 200 random sequence/set draws",
                classical_bound_trials(200, SEED + 2))


def test_criterion_03_parseval():
    _crit_group(3, "mean square of the exponential sum over a full period "
                   "equals the coefficient energy (50 trials)",
                parseval_trials(50, SEED + 3))


def test_criterion_04_quadratic_roots():
    _crit_group(4, "fast quadratic congruence root counts agree with "
                   "exhaustive scans for moduli up to 4096, and square class "
                   "counts up to 100",
                quad_roots_sweep(4096, 20, SEED + 4, 100))


def test_criterion_05_counting_oracles():
    groups = [window_oracle_trials(200, SEED + 5),
              kdelta_oracle_trials(200, SEED + 55),
              p_alpha_oracle_trials(200, SEED + 555)]
    merged = CheckResult("counting-oracles")
    for g in groups:
        merged.passed += g.passed
        merged.failed += g.failed
        merged.notes.extend(g.notes)
    _crit_group(5, "window, spacing, and fraction counters agree with "
                   "brute-force oracles (200 trials each)", merged)


def test_criterion_06_rational_approximation():
    _crit_group(6, "a reduced fraction at the guaranteed approximation "
                   "quality exists for every input tried (10000 trials)",
                dirichlet_trials(10**4, SEED + 6))


def test_criterion_07_kernel():
    _crit_group(7, "smoothing kernel matches its pinned values, stays "
                   "nonnegative, and its transform agrees with quadrature",
                kernel_checks(3000))


def test_criterion_08_oscillatory_calibration():
    fixture = Path(__file__).parent / "fixtures" / "vdc_constants.json"
    stored = json.loads(fixture.read_text(encoding="utf-8"))
    res = oscillatory_checks(50, SEED + 8, per_regime=100)
    for name, val in VDC_CALIBRATION.items():
        res.expect(stored.get(name) == val,
                   f"fixture drifted from in-code table at {name}")
    _crit_group(8, "oscillatory integral magnitudes stay inside the frozen "
                   "calibration envelopes and the fixture matches the table",
                res)


def test_criterion_09_square_window_envelope():
    _crit_group(9, "square-root window counts stay inside the analytic "
                   "envelope across nine scales, t <= 20, k <= 50",
                square_window_sweep(FULL_Q0_LIST, 20, 50))


def test_criterion_10_frozen_shape_table():
    ok = True
    detail = ""
    for (n, q), table in FROZEN_SHAPES.items():
        got = bound_shapes(n, q)
        for name, want in table.items():
            rel = abs(got[name] - want) / want
            if rel > 1e-12:
                ok = False
                detail = f" [{name} at q={q}: {got[name]!r} vs {want!r}]"
    lo = bound_shapes(10**8, 208)
    hi = bound_shapes(10**8, 2290)
    orderings = [
        (lo["squares_refined"] < lo["zhao"], "refined < zhao at 208"),
        (lo["squares_refined"] < lo["squares_summed"], "refined < summed at 208"),
        (lo["squares_fourier"] < lo["squares_refined"], "fourier < refined at 208"),
        (hi["squares_fourier"] < hi["squares_classical"], "fourier < classical at 2290"),
        (hi["squares_fourier"] < hi["zhao"], "fourier < zhao at 2290"),
        (hi["squares_fourier"] < hi["squares_summed"], "fourier < summed at 2290"),
        (hi["squares_refined"] < hi["squares_classical"], "refined < classical at 2290"),
    ]
    for holds, label in orderings:
        if not holds:
            ok = False
            detail += f" [ordering broke: {label}]"
    _crit(10, "frozen shape table at N=1e8 reproduces to 1e-12 and the "
              "dominance orderings hold", ok, detail)


@pytest.mark.xfail(strict=True, reason="the refined square-set shape does "
                   "not drop below the plain fourth-power shape at the "
                   "lower cap; kept visible rather than weakened")
def test_criterion_10b_refined_vs_plain_at_lower_cap():
    lo = bound_shapes(10**8, 208)
    ok = lo["squares_refined"] < lo["squares_classical"]
    _crit("10b", "refined square-set shape undercuts the plain "
                 "fourth-power shape at the lower cap", ok,
          "" if ok else f" [{lo['squares_refined']:.6e} >= "
                        f"{lo['squares_classical']:.6e}]")


def test_criterion_11_bracket():
    _crit_group(11, "bracket bound: refining the grid never loosens it and "
                    "grid mode never beats exact mode (20 instances)",
                bracket_checks(20, SEED + 11))


def _sweep_bytes(tmp_path, tag: str, threads: int, extra) -> bytes:
    out = tmp_path / f"{tag}-t{threads}.csv"
    argv = ["--cmd", "sweep", "--moduli", "squares",
            "--threads", str(threads), "--out", str(out)] + extra
    assert main(argv) == 0
    return out.read_bytes()


def test_criterion_12_thread_identical_reports(tmp_path):
    t0 = time.monotonic()
    jobs = {
        "lowcap": ["--grid-n", "100000000", "--q-exp", "0.29", "--no-lhs"],
        "highcap": ["--grid-n", "100000000", "--q-exp", "0.42", "--no-lhs"],
        "measured": ["--grid-n", "1024,2048,4096,8192,16384",
                     "--q-exp", "0.3", "--seq", "ones,random_phases"],
    }
    ok = True
    detail = ""
    blobs = {}
    for tag, extra in jobs.items():
        one = _sweep_bytes(tmp_path, tag, 1, extra)
        eight = _sweep_bytes(tmp_path, tag, 8, extra)
        blobs[tag] = one
        if one != eight:
            ok = False
            detail += f" [{tag} differs between 1 and 8 threads]"
    # the shapes-only sweeps must reproduce the frozen table through the CLI
    if b"1971773696" not in blobs["lowcap"]:
        ok = False
        detail += " [lowcap sweep lost the frozen fourth-power value]"
    if b"12008989000" not in blobs["highcap"]:
        ok = False
        detail += " [highcap sweep lost the frozen cube value]"
    dt = time.monotonic() - t0
    if dt > 600.0:
        ok = False
        detail += f" [took {dt:.0f}s, budget is 600s]"
    _crit(12, "sweep reports are byte-identical across thread counts and "
              "reproduce the frozen values through the command line",
          ok, detail if detail else f" ({dt:.1f}s)")


def test_sweep_spot_values(tmp_path):
    """Companion spot check: the measured sweep carries exact Z columns."""
    out = tmp_path / "spot.csv"
    argv = ["--cmd", "sweep", "--grid-n", "1024", "--q-exp", "0.3",
            "--moduli", "squares", "--seq", "ones", "--out", str(out)]
    assert main(argv) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["n"] == "1024" and row["seq"] == "ones"
    assert row["Z"] == "1024"
    assert int(row["q"]) == int(math.floor(1024 ** 0.3))
    assert float(row["lhs"]) > 0.0
