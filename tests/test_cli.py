"""Command-line behavior: flag/config merging, outputs, exit codes."""

import json

import pytest

from sievelab import BoundReport
from sievelab.cli import emit_report, main, parse_args
from sievelab.errors import ConfigError
from sievelab.verify import CheckResult


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


def test_bracket_command_empty_set(capsys, tmp_path):
    mods = tmp_path / "m.txt"
    mods.write_text("", encoding="utf-8")
    with pytest.warns(Warning):
        code, out, _ = run_cli(capsys, "--cmd", "bracket", "--moduli",
                               f"file:{mods}", "--n", "32")
    assert code == 0
    assert out.split() == ["0", "32"]


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
    rep = BoundReport(N=4, Q=1.0, Q0=None, Z=1.0, lhs=0.0, shapes={},
                      ratios={})
    assert emit_report(rep, "csv") == b"name,value,ratio\n"


def test_emit_report_golden_row():
    rep = BoundReport(N=4, Q=1.0, Q0=None, Z=1.0, lhs=4.0,
                      shapes={"classical": 13.0}, ratios={"classical": 4 / 13})
    body = emit_report(rep, "csv").decode()
    assert body == "name,value,ratio\nclassical,13,0.30769230769230771\n"


def test_emit_report_json_round_trip():
    rep = BoundReport(N=4, Q=1.0, Q0=None, Z=1.0, lhs=4.0,
                      shapes={"classical": 13.0}, ratios={"classical": 4 / 13})
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
    import sievelab.cli as cli_mod

    def fake_ok(quick=True, seed=0):
        return [CheckResult("alpha", passed=3)]

    def fake_bad(quick=True, seed=0):
        return [CheckResult("alpha", passed=3),
                CheckResult("beta", passed=1, failed=2, notes=["boom"])]

    monkeypatch.setattr(cli_mod, "run_verify", fake_ok)
    code, out, _ = run_cli(capsys, "--cmd", "verify")
    assert code == 0
    assert "[PASS] alpha: 3 checks" in out

    monkeypatch.setattr(cli_mod, "run_verify", fake_bad)
    code, out, _ = run_cli(capsys, "--cmd", "verify")
    assert code == 1
    assert "[FAIL] beta: 2 of 3 failed; first: boom" in out
    assert out.rstrip().endswith("2 groups, 1 failed")
