"""Command-line behavior: flag/config merging, outputs, exit codes."""

import contextlib
import hashlib
import io
import json
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievelab import SHAPE_NAMES, BoundReport, cli, counting, util
from sievelab.cli import OPTIONS, emit_report, main, parse_args
from sievelab.errors import (CapacityError, ConfigError, InputError,
                             InvalidDeltaError, InvalidRegimeError,
                             NotCoprimeError, NotInvertibleError,
                             OutOfRangeError, QuadratureError,
                             SequenceFileError)
from sievelab.verify import CheckResult

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_flags_override_config_file(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"cmd": "gauss", "c": 4, "k": 1, "l": 0}),
                       encoding="utf-8")
    cfg = parse_args(["--config", str(cfgfile), "--c", "8"])
    assert cfg["cmd"] == "gauss"
    assert cfg["c"] == 8
    assert cfg["k"] == 1


def test_config_rejects_unknown_keys(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"cmd": "gauss", "species": "finch"}),
                       encoding="utf-8")
    with pytest.raises(ConfigError):
        parse_args(["--config", str(cfgfile)])


def test_missing_command_is_a_config_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 2
    assert "config error" in err


def test_unreadable_config_is_a_config_error(capsys):
    code, _, err = run_cli(capsys, "--config", "/absent/none.json")
    assert code == 2


def test_config_value_of_the_wrong_type_exits_2(capsys, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"cmd": "sieve-sum", "n": "abc"}),
                       encoding="utf-8")
    code, out, err = run_cli(capsys, "--config", str(cfgfile))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("config error")


def test_config_values_are_coerced_like_their_flags(capsys, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"cmd": "shapes", "threads": "4"}),
                       encoding="utf-8")
    code, out, _ = run_cli(capsys, "--config", str(cfgfile))
    assert code == 0
    assert parse_args(["--config", str(cfgfile)])["threads"] == 4
    assert (code, out) == run_cli(capsys, "--cmd", "shapes", "--threads", "4")[:2]


def test_invalid_window_query_exits_2(capsys):
    code, out, err = run_cli(capsys, "--cmd", "a-count", "--k", "4", "--l", "2")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("config error")


def test_sieve_sum_prints_exact_zero(capsys, tmp_path):
    mods = tmp_path / "m.txt"
    mods.write_text("2\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "--cmd", "sieve-sum", "--seq", "ones",
                           "--n", "2", "--moduli", f"file:{mods}")
    assert code == 0
    assert out == "0\n"


def test_gauss_line_has_three_numbers(capsys):
    code, out, _ = run_cli(capsys, "--cmd", "gauss", "--k", "1", "--l", "0",
                           "--c", "4")
    assert code == 0
    assert out.split() == ["2", "2", "2.8284271247461903"]


def test_k_delta_counts_fractions(capsys, tmp_path):
    mods = tmp_path / "m.txt"
    mods.write_text("2\n3\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "--cmd", "k-delta", "--moduli",
                           f"file:{mods}", "--delta", "0.5")
    assert code == 0
    assert out.strip() == "3"


def test_a_count_command(capsys, tmp_path):
    mods = tmp_path / "m.txt"
    mods.write_text("1\n2\n3\n10\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "--cmd", "a-count", "--moduli",
                           f"file:{mods}", "--u", "2.5", "--k", "1",
                           "--l", "0", "--t", "1")
    assert code == 0
    assert out.strip() == "3"


def test_farey_table_written_to_file(capsys, tmp_path):
    mods = tmp_path / "m.txt"
    mods.write_text("5\n", encoding="utf-8")
    dest = tmp_path / "farey.csv"
    code, _, _ = run_cli(capsys, "--cmd", "farey", "--moduli", f"file:{mods}",
                         "--out", str(dest))
    assert code == 0
    lines = dest.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "num,den,value"
    assert lines[1] == "1,5,0.20000000000000001"
    assert len(lines) == 5


def test_farey_table_bytes_at_size(capsys, tmp_path):
    # squares up to 208: 1,830,773 rows, the sha256 of the table as the
    # whole-list enumeration wrote it
    dest = tmp_path / "farey.csv"
    code, out, _ = run_cli(capsys, "--cmd", "farey", "--moduli", "squares",
                           "--q", "208", "--out", str(dest))
    assert code == 0 and out == ""
    assert hashlib.sha256(dest.read_bytes()).hexdigest() == \
        "a4ef445bc29c05c78bc02259771ea6654533f1f28f79a5a1996462fe5a062a59"
    code, out, _ = run_cli(capsys, "--cmd", "farey", "--moduli", "squares",
                           "--q", "1000")
    assert (code, out) == (0, "202870719\n")  # sum of q * phi(q), none enumerated


def test_bracket_command_empty_set(capsys, tmp_path):
    mods = tmp_path / "m.txt"
    mods.write_text("", encoding="utf-8")
    code, out, err = run_cli(capsys, "--cmd", "bracket", "--moduli",
                             f"file:{mods}", "--n", "32")
    assert code == 0
    assert out.split() == ["0", "32"]
    assert err == "warning: constructed moduli set is empty\n"


@pytest.mark.parametrize("moduli", [["primes", "--q", "1"], ["octave", "--q0", "0.3"]],
                         ids=["primes", "octave"])
def test_a_warning_is_one_stderr_line(capsys, moduli):
    code, out, err = run_cli(capsys, "--cmd", "bracket", "--moduli", *moduli,
                             "--n", "16")
    assert (code, out) == (0, "0 16\n")
    assert err == "warning: constructed moduli set is empty\n"


def test_shapes_json_report(capsys, tmp_path):
    dest = tmp_path / "rep.json"
    code, _, _ = run_cli(capsys, "--cmd", "shapes", "--seq", "ones", "--n",
                         "64", "--moduli", "squares", "--q", "3",
                         "--format", "json", "--out", str(dest))
    assert code == 0
    rep = json.loads(dest.read_text(encoding="utf-8"))
    assert rep["N"] == 64
    assert rep["Q"] == 3.0  # root cap, not the span of the covering interval
    assert rep["Z"] == 64.0
    assert rep["shapes"]["classical"] == 64 + 9


def test_shapes_skeleton_without_sequences(capsys):
    code, out, _ = run_cli(capsys, "--cmd", "shapes", "--no-lhs", "--n", "4",
                           "--moduli", "squares", "--q", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,value,ratio"
    assert any(ln.startswith("classical,5,0") for ln in lines)


def test_emit_report_header_only_when_no_shapes():
    rep = BoundReport(N=4, Q=1.0, Q0=None, Z=1.0, lhs=0.0, shapes={})
    assert emit_report(rep, "csv") == b"name,value,ratio\n"


def test_emit_report_golden_row():
    rep = BoundReport(N=4, Q=1.0, Q0=None, Z=1.0, lhs=4.0,
                      shapes={"classical": 13.0})
    body = emit_report(rep, "csv").decode()
    assert body == "name,value,ratio\nclassical,13,0.30769230769230771\n"


def test_emit_report_json_round_trip():
    rep = BoundReport(N=4, Q=1.0, Q0=None, Z=1.0, lhs=4.0,
                      shapes={"classical": 13.0})
    parsed = json.loads(emit_report(rep, "json").decode())
    assert parsed == json.loads(rep.to_json())


def test_sweep_has_fixed_column_grid(capsys, tmp_path):
    dest = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "--cmd", "sweep", "--grid-n", "1024,4096",
                         "--q-exp", "0.3", "--moduli", "squares", "--seq",
                         "ones", "--out", str(dest))
    assert code == 0
    lines = dest.read_text(encoding="utf-8").splitlines()
    cols = lines[0].split(",")
    assert len(cols) == 6 + 11 + 11
    assert cols[:6] == ["n", "q", "seq", "seed", "Z", "lhs"]
    assert cols[6] == "shape_classical"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1024" and first[2] == "ones"
    assert first[4] == "1024"  # Z of the ones sequence


def test_sweep_broadcasts_single_q(capsys, tmp_path):
    dest = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "--cmd", "sweep", "--grid-n", "64,128",
                         "--grid-q", "3", "--moduli", "squares", "--seq",
                         "ones,random_signs", "--out", str(dest))
    assert code == 0
    lines = dest.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 5
    assert [ln.split(",")[1] for ln in lines[1:]] == ["3", "3", "3", "3"]
    assert [ln.split(",")[2] for ln in lines[1:]] == \
        ["ones", "random_signs", "ones", "random_signs"]


def test_sweep_requires_grids(capsys):
    code, _, err = run_cli(capsys, "--cmd", "sweep", "--grid-n", "64")
    assert code == 2
    code, _, err = run_cli(capsys, "--cmd", "sweep", "--q-exp", "0.3")
    assert code == 2


def test_quick_verify_passes_on_a_fresh_build(capsys):
    code, out, _ = run_cli(capsys, "--cmd", "verify", "--quick")
    assert code == 0
    lines = out.splitlines()
    assert all(ln.startswith("[PASS]") for ln in lines[:-1])
    assert lines[-1].endswith("0 failed")


def test_verify_reporting_and_exit_codes(capsys, monkeypatch):
    import sievelab.verify as verify_mod

    def fake_ok(quick=True, seed=0):
        return [CheckResult("alpha", passed=3)]

    def fake_bad(quick=True, seed=0):
        return [CheckResult("alpha", passed=3),
                CheckResult("beta", passed=1, failed=2, notes=["boom"])]

    monkeypatch.setattr(verify_mod, "run_verify", fake_ok)
    code, out, _ = run_cli(capsys, "--cmd", "verify")
    assert code == 0
    assert "[PASS] alpha: 3 checks" in out

    monkeypatch.setattr(verify_mod, "run_verify", fake_bad)
    code, out, _ = run_cli(capsys, "--cmd", "verify")
    assert code == 1
    assert "[FAIL] beta: 2 of 3 failed; first: boom" in out
    assert out.rstrip().endswith("2 groups, 1 failed")


def _shape_values_of_report(out):
    rows = [ln.split(",") for ln in out.splitlines()[1:]]
    return {name: value for name, value, _ in rows}


def _shape_values_of_sweep(out):
    head, row = (ln.split(",") for ln in out.splitlines())
    return {col[len("shape_"):]: val for col, val in zip(head, row)
            if col.startswith("shape_") and val}


@pytest.mark.parametrize("moduli, sweep_q, extra", [
    (["--moduli", "squares", "--q", "3"], "3", ["--s-count", "0"]),
    (["--moduli", "squares", "--q", "3"], "3", []),
    (["--moduli", "octave", "--q0", "40"], "40", []),
    (["--moduli", "octave", "--q0", "40"], "40", ["--s-count", "0"]),
])
def test_shape_values_agree_on_every_report_path(capsys, moduli, sweep_q, extra):
    common = ["--n", "64", "--seq", "ones", "--x", "1", *extra]
    code, measured, _ = run_cli(capsys, "--cmd", "shapes", *moduli, *common)
    assert code == 0
    code, skeleton, _ = run_cli(capsys, "--cmd", "shapes", "--no-lhs",
                                *moduli, *common)
    assert code == 0
    code, sweep, _ = run_cli(capsys, "--cmd", "sweep", "--no-lhs", "--grid-n",
                             "64", "--grid-q", sweep_q, *moduli[:2], *extra,
                             "--x", "1")
    assert code == 0
    values = _shape_values_of_report(measured)
    assert values == _shape_values_of_report(skeleton)
    assert values == _shape_values_of_sweep(sweep)
    if extra:
        assert values["elliott"] == "64"


def test_no_lhs_sweep_leaves_measured_cells_blank(capsys):
    code, out, _ = run_cli(capsys, "--cmd", "sweep", "--no-lhs", "--grid-n",
                           "64,128", "--grid-q", "3", "--seq", "ones,delta")
    assert code == 0
    head, *rows = [ln.split(",") for ln in out.splitlines()]
    assert len(rows) == 2
    for row in rows:
        cells = dict(zip(head, row))
        assert cells["seq"] == cells["Z"] == cells["lhs"] == ""
        assert all(cells[f"ratio_{nm}"] == "" for nm in SHAPE_NAMES)
        assert cells["shape_classical"] != ""


@pytest.mark.parametrize("config, argv", [
    pytest.param(None, ["--cmd", "shapes", "--s-count", "-1"], id="s-count"),
    pytest.param(None, ["--cmd", "gauss", "--c", "0"], id="c-zero"),
    pytest.param(None, ["--cmd", "gauss", "--c", "-3"], id="c-negative"),
    pytest.param(None, ["--cmd", "shapes", "--no-lhs", "--n", "0"],
                 id="shapes-no-lhs-n"),
    pytest.param(None, ["--cmd", "shapes", "--n", "0"], id="shapes-n"),
    pytest.param(None, ["--cmd", "sweep", "--no-lhs", "--grid-n", "0",
                        "--grid-q", "3"], id="sweep-no-lhs-grid-n"),
    pytest.param(None, ["--cmd", "sweep", "--grid-n", "0", "--grid-q", "3"],
                 id="sweep-grid-n"),
    pytest.param(None, ["--cmd", "shapes", "--bogus", "3"], id="unknown-flag"),
    pytest.param({"cmd": "sweep", "grid_n": [64, "x"], "grid_q": 3}, [],
                 id="config-array-text"),
    pytest.param({"cmd": "sweep", "grid_n": [64, 1.5], "grid_q": 3}, [],
                 id="config-array-fraction"),
    pytest.param({"cmd": "sweep", "grid_n": 64, "grid_q": 3,
                  "seq": ["ones", 2]}, [], id="config-array-number-kind"),
    pytest.param({"cmd": "verify", "quick": "no"}, [], id="config-bool-text"),
    pytest.param({"cmd": "shapes", "no_lhs": "false"}, [],
                 id="config-bool-false-text"),
    pytest.param({"cmd": "shapes", "no_lhs": 0}, [], id="config-bool-number"),
    pytest.param({"cmd": "sieve-sum", "out": 3}, [], id="config-str-number"),
    pytest.param({"cmd": "shapes", "moduli": ["squares"]}, [],
                 id="config-str-array"),
    pytest.param({"cmd": "shapes", "s_count": -2}, [], id="config-s-count"),
    pytest.param(None, ["--cmd", "k-delta", "--delta", "0"], id="k-delta-zero"),
    pytest.param(None, ["--cmd", "k-delta", "--delta", "0.7"], id="k-delta-wide"),
    pytest.param(None, ["--cmd", "k-delta", "--delta", "nan"], id="k-delta-nan"),
    pytest.param(None, ["--cmd", "gauss", "--k", "2", "--c", "4"],
                 id="gauss-not-coprime"),
    pytest.param(None, ["--cmd", "shapes", "--seq",
                        f"file:{FIXTURES / 'malformed_seq.txt'}"],
                 id="seq-file-malformed"),
    pytest.param(None, ["--cmd", "shapes", "--seq", "file:/absent/seq.txt"],
                 id="seq-file-missing"),
    pytest.param(None, ["--cmd", "shapes", "--moduli",
                        f"file:{FIXTURES / 'decreasing_moduli.txt'}"],
                 id="moduli-file-decreasing"),
    pytest.param(None, ["--cmd", "bracket", "--n", "3"], id="bracket-n-3"),
    pytest.param(None, ["--cmd", "sweep", "--grid-n", "64", "--q-exp", "nan"],
                 id="q-exp-nan"),
    pytest.param(None, ["--cmd", "sweep", "--grid-n", "64", "--q-exp", "inf"],
                 id="q-exp-inf"),
    pytest.param(None, ["--cmd", "sweep", "--grid-n", "64", "--q-exp", "1e300"],
                 id="q-exp-overflow"),
    pytest.param(None, ["--cmd", "sweep", "--grid-n", "64", "--q-exp", "100"],
                 id="q-exp-past-int64"),
    pytest.param(None, ["--cmd", "bracket", "--n", "64", "--z-grid", "1"],
                 id="z-grid-1"),
    pytest.param(None, ["--cmd", "sieve-sum", "--seq", "random_signs",
                        "--seed", "-1"], id="seed-negative"),
    pytest.param(None, ["--cmd", "shapes", "--moduli", "octave", "--q0", "nan"],
                 id="q0-nan"),
    pytest.param(None, ["--cmd", "shapes", "--moduli", "octave", "--q0", "inf"],
                 id="q0-inf"),
    pytest.param(None, ["--cmd", "shapes", "--q", str(2**70)], id="q-past-int64"),
    pytest.param(None, ["--cmd", "sieve-sum", "--n", str(2**62)], id="n-past-arrays"),
    pytest.param(None, ["--cmd", "a-count", "--u", "nan"], id="a-count-u-nan"),
    pytest.param(None, ["--cmd", "shapes", "--moduli",
                        f"file:{FIXTURES / 'moduli_past_int64.txt'}"],
                 id="moduli-file-past-int64"),
    pytest.param(None, ["--cmd", "a-count", "--k", str(2**70), "--l", "1"],
                 id="a-count-k-past-int64"),
    pytest.param(None, ["--cmd", "a-count", "--t", str(2**70)],
                 id="a-count-t-past-int64"),
    pytest.param(None, ["--cmd", "k-delta", "--q", "8192"], id="k-delta-q-2-26"),
    pytest.param(None, ["--cmd", "farey", "--q", "8192"], id="farey-q-2-26"),
    pytest.param(None, ["--cmd", "bracket", "--threads", "65"], id="threads-past-bound"),
    pytest.param({"cmd": "bracket", "threads": 65}, [], id="config-threads-past-bound"),
    pytest.param(None, ["--cmd", "sweep", "--grid-n", "64", "--grid-q", "2",
                        "--q-exp", "0.5"], id="grid-q-and-q-exp"),
    pytest.param({"cmd": "sweep", "grid_n": [64], "grid_q": [2], "q_exp": 0.5}, [],
                 id="config-grid-q-and-q-exp"),
])
def test_bad_inputs_exit_2_with_one_line(capsys, tmp_path, config, argv):
    if config is not None:
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(config), encoding="utf-8")
        argv = ["--config", str(cfgfile), *argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("config error")


@pytest.mark.parametrize("m", ["nan", "inf", "-1"])
@pytest.mark.parametrize("cmd", ["bracket", "a-count"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_an_interval_offset_outside_the_finite_floats_exits_2(capsys, tmp_path, via, cmd, m):
    mod = tmp_path / "mod.txt"
    mod.write_text("4\n9\n25\n", encoding="utf-8")
    argv = ["--cmd", cmd, "--moduli", f"file:{mod}", "--n", "64"]
    if via == "flag":
        argv += ["--m", m]
    else:
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"m": float(m)}), encoding="utf-8")
        argv += ["--config", str(cfgfile)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "config error: need finite M >= 0 and finite span Q > 0\n"


@pytest.mark.parametrize("moduli", ["squares", "octave", "primes"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_an_interval_offset_on_a_built_in_family_exits_2(capsys, tmp_path, via, moduli):
    argv = ["--cmd", "bracket", "--moduli", moduli, "--q", "5", "--q0", "30", "--n", "64"]
    if via == "flag":
        argv += ["--m", "1000"]
    else:
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"m": 1000}), encoding="utf-8")
        argv += ["--config", str(cfgfile)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"config error: --m sets the offset of file: moduli, not of {moduli}\n"
    # file: moduli take it, 0 included
    mod = tmp_path / "mod.txt"
    mod.write_text("4\n9\n25\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "--cmd", "bracket", "--moduli", f"file:{mod}",
                           "--n", "64", "--m", "0")
    assert (code, out) == (0, "72 4672\n")


def test_a_moduli_file_over_the_capacity_exits_1(capsys, monkeypatch, tmp_path):
    mod = tmp_path / "mod.txt"
    mod.write_text("4\n9\nnine\n", encoding="utf-8")
    need = 3 * 9 + util._READER_BYTES
    monkeypatch.setattr(util, "CAPACITY", need - 1)
    code, out, err = run_cli(capsys, "--cmd", "k-delta", "--moduli", f"file:{mod}")
    assert (code, out) == (1, "")
    assert err == (f"error: moduli file {mod} needs 3 moduli and the reader's buffers "
                   f"({need} bytes), over the {need - 1}-byte capacity\n")


@pytest.mark.parametrize("cmd", ["sieve-sum", "shapes"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_a_non_finite_file_coefficient_exits_2(capsys, tmp_path, cmd, value):
    seq = tmp_path / "seq.txt"
    seq.write_text(f"1 0\n{value} 0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "--cmd", cmd, "--seq", f"file:{seq}",
                             "--moduli", "squares", "--q", "4")
    assert (code, out) == (2, "")
    assert err == f"config error: {seq}:2: coefficient is not finite\n"


@pytest.mark.parametrize("argv, text", [
    (["--cmd", "k-delta", "--moduli", "file:{path}"], b"4\n\xff\n9\n"),
    (["--cmd", "sieve-sum", "--seq", "file:{path}", "--moduli", "squares", "--q", "4"],
     b"1 0\n\xff 0\n"),
    (["--config", "{path}"], b'{"cmd": "k-delta", "q": 4}\xff'),
], ids=["moduli", "seq", "config"])
def test_a_file_that_is_not_utf8_exits_2(capsys, tmp_path, argv, text):
    path = tmp_path / "input.txt"
    path.write_bytes(text)
    code, out, err = run_cli(capsys, *(a.format(path=path) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("config error: cannot read ") and err.count("\n") == 1
    assert f"{path}: 'utf-8' codec can't decode byte 0xff" in err


def test_config_arrays_and_scalars_for_list_options(capsys, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"cmd": "sweep", "grid_n": [64, 128],
                                   "grid_q": 3, "seq": ["ones", "delta"],
                                   "n0": 2}), encoding="utf-8")
    from_config = run_cli(capsys, "--config", str(cfgfile))
    from_flags = run_cli(capsys, "--cmd", "sweep", "--grid-n", "64,128",
                         "--grid-q", "3", "--seq", "ones,delta", "--n0", "2")
    assert from_config[0] == 0
    assert from_config == from_flags


def _sample(opt):
    """A value for opt other than its default: (flag words, JSON value)."""
    if opt.type is bool:
        return [opt.flag], True
    if isinstance(opt.check, tuple):
        value = opt.check[-1]
        return [opt.flag, value], value
    if isinstance(opt.type, list):
        if opt.type[0] is int:
            return [opt.flag, "2,3"], [2, 3]
        return [opt.flag, "ones,delta"], ["ones", "delta"]
    value = {int: 3, float: 0.5, str: "file:x"}[opt.type]
    return [opt.flag, str(value)], value


@pytest.mark.parametrize("opt", OPTIONS, ids=lambda opt: opt.name)
def test_each_option_parses_alike_from_config_and_flag(tmp_path, opt):
    words, value = _sample(opt)
    base = {} if opt.name == "cmd" else {"cmd": "shapes"}
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({**base, opt.name: value}), encoding="utf-8")
    from_config = parse_args(["--config", str(cfgfile)])
    flags = [] if opt.name == "cmd" else ["--cmd", "shapes"]
    from_flags = parse_args([*flags, *words])
    assert from_config == from_flags
    assert from_config[opt.name] != opt.default


_FUZZ_CMDS = [cmd for cmd in OPTIONS[0].check if cmd != "verify"]
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                     st.floats(-1.0, 0.5), st.text(max_size=6))
# wrong-typed or out-of-range config values, all small enough to run fast
_JUNK = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3),
                  st.dictionaries(st.text(max_size=3), _SCALARS, max_size=2))


def _in_range(name, cmd, paths):
    """Valid values (and the edges just past some of them), bounded so
    that no run allocates much or starts more than four threads."""
    ints = {"n": 2**10 if cmd == "bracket" else 2**12, "seed": 2**20,
            "n0": 70, "q": 64, "s_count": 100, "z_grid": 64, "k": 16,
            "l": 16, "t": 16, "c": 64, "threads": 4}
    floats = {"beta": 1.0, "q0": 64.0, "m": 8.0, "eps": 0.5, "x": 4.0,
              "q_exp": 0.5, "delta": 0.5, "u": 64.0}
    if name in ints:
        return st.integers(0, ints[name])
    if name in floats:
        return st.floats(0.0, floats[name])
    return {
        "seq": st.lists(st.sampled_from(["ones", "delta", "random_signs",
                                         "random_phases", "focused"]),
                        min_size=1, max_size=3),
        "moduli": st.sampled_from(["squares", "octave", "primes",
                                   "file:" + paths["moduli"]]),
        "mode": st.sampled_from(["grid", "exact"]),
        "grid_n": st.lists(st.integers(0, 2**12), min_size=1, max_size=3),
        "grid_q": st.lists(st.integers(0, 64), min_size=1, max_size=3),
        "no_lhs": st.booleans(),
        "quick": st.booleans(),
        "out": st.just(paths["out"]),
        "format": st.sampled_from(["csv", "json"]),
    }[name]


def _as_flag_text(value):
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "moduli.txt").write_text("4\n9\n12\n", encoding="utf-8")
    return {"moduli": str(root / "moduli.txt"), "out": str(root / "out.txt"),
            "config": str(root / "cfg.json")}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_never_raises_on_arbitrary_configs_and_flags(fuzz_paths, data):
    cmd = data.draw(st.sampled_from(_FUZZ_CMDS), label="cmd")
    names = [opt.name for opt in OPTIONS[1:]]

    def rarely():
        # an interior value, as hypothesis favours the ends of a range
        return data.draw(st.integers(0, 19)) == 7

    def value(name):
        # never a string for out, so no run writes outside the fuzz directory
        if rarely() and name != "out":
            return data.draw(_JUNK, label=name)
        return data.draw(_in_range(name, cmd, fuzz_paths), label=name)

    keys = data.draw(st.lists(st.sampled_from(names), unique=True, max_size=6))
    if cmd == "sweep":
        keys += ["grid_n", data.draw(st.sampled_from(["grid_q", "q_exp"]))]
    config = {key: value(key) for key in keys}
    cmd_in_config = data.draw(st.booleans())
    if cmd_in_config:
        config["cmd"] = cmd
    if rarely():
        config = data.draw(_JUNK, label="whole config")
    with open(fuzz_paths["config"], "w", encoding="utf-8") as fh:
        json.dump(config, fh)

    argv = ["--config", fuzz_paths["config"]]
    if not cmd_in_config or rarely():
        argv += ["--cmd", cmd]
    for opt in data.draw(st.lists(st.sampled_from(OPTIONS[1:]), max_size=6)):
        argv.append(opt.flag)
        if opt.type is bool:
            continue
        if rarely() and opt.name != "out":
            argv.append(data.draw(st.text(max_size=6), label=opt.flag))
        else:
            argv.append(_as_flag_text(value(opt.name)))
    if rarely():
        argv.append(data.draw(st.sampled_from(["--bogus", "stray", "--n"])))

    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore")
        code = main(argv)
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") == (code != 0)
    if code == 2:
        assert err.getvalue().startswith("config error")


@pytest.mark.parametrize("eps", ["1e300", "-1e300", "inf", "nan"])
@pytest.mark.parametrize("no_lhs", [[], ["--no-lhs"]], ids=["measured", "no-lhs"])
def test_shapes_outside_the_floats_exit_2(capsys, eps, no_lhs):
    code, out, err = run_cli(capsys, "--cmd", "shapes", f"--eps={eps}", *no_lhs)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("config error")


def test_file_sequence_sets_n_on_every_report_path(capsys, tmp_path):
    seq = tmp_path / "seq3.txt"
    seq.write_text("1 0\n2 0\n0 1\n", encoding="utf-8")
    common = ["--moduli", "squares", "--seq", f"file:{seq}"]
    code, measured, _ = run_cli(capsys, "--cmd", "shapes", "--n", "64", "--q", "2",
                                *common)
    assert code == 0
    code, skeleton, _ = run_cli(capsys, "--cmd", "shapes", "--no-lhs", "--n", "64",
                                "--q", "2", *common)
    assert code == 0
    values = _shape_values_of_report(measured)
    assert values["classical"] == "7"  # N + Q^2 at the file's N = 3
    assert values == _shape_values_of_report(skeleton)
    for extra in ([], ["--no-lhs"]):
        code, sweep, _ = run_cli(capsys, "--cmd", "sweep", "--grid-n", "64",
                                 "--grid-q", "2", *common, *extra)
        assert code == 0
        assert values == _shape_values_of_sweep(sweep)
        head, row = (ln.split(",") for ln in sweep.splitlines())
        assert dict(zip(head, row))["n"] == "3"


def test_unwritable_out_is_an_io_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "--cmd", "shapes", "--out",
                             str(tmp_path / "absent" / "x.csv"))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("io error")


def test_k_delta_refuses_delta_before_enumerating(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("FareySlabs built before the delta check")

    monkeypatch.setattr(counting, "FareySlabs", fail)
    code, out, err = run_cli(capsys, "--cmd", "k-delta", "--delta", "0")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("config error")


@pytest.mark.parametrize("argv", [
    ["--moduli", "octave", "--q0", "2305843009213693952"],
    ["--q", "3037000499"],
], ids=["octave-2^61", "squares-int64"])
def test_square_sets_past_capacity_exit_1_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "--cmd", "shapes", "--no-lhs", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and "capacity" in err


def test_prime_sieve_past_capacity_exits_1_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "--cmd", "shapes", "--no-lhs", "--moduli", "primes",
                             "--q", "10000000000000")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and "bytes" in err


def test_oversized_z_grid_exits_1_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "--cmd", "bracket", "--z-grid", "4000000000")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and "z-grid" in err


def test_exact_bracket_past_capacity_exits_1_at_once(capsys, tmp_path):
    moduli = tmp_path / "moduli.txt"
    moduli.write_text("1\n1000000000000000\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "--cmd", "bracket", "--n", "16", "--mode", "exact",
                             "--moduli", f"file:{moduli}")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: exact mode") and "capacity" in err


@pytest.mark.parametrize("exc", [
    MemoryError("Unable to allocate 256. GiB for an array with shape "
                "(17179869184,) and data type complex128"),
    MemoryError(),
], ids=["numpy", "bare"])
def test_memory_exhaustion_exits_1_with_one_line(capsys, monkeypatch, exc):
    # raised by a stand-in, never by a real allocation: under overcommit
    # the kernel may kill the process instead of raising
    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "sieve_lhs", exhausted)
    code, out, err = run_cli(capsys, "--cmd", "sieve-sum", "--n", "64")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert len(err.strip()) > len("error:")


@pytest.mark.parametrize("cls", [ConfigError, OutOfRangeError, InvalidDeltaError,
                                 NotCoprimeError, InvalidRegimeError,
                                 SequenceFileError, NotInvertibleError])
def test_input_errors_are_value_errors(cls):
    assert issubclass(cls, InputError) and issubclass(cls, ValueError)


@pytest.mark.parametrize("cls", [CapacityError, QuadratureError])
def test_runtime_errors_are_not_input_errors(cls):
    assert not issubclass(cls, (InputError, ValueError))
