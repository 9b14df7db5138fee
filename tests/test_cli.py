"""Command-line interface: output formats, determinism, exit codes."""

import json
import subprocess
import sys

import pytest

from seqc import cli

CSV_HEADER = "N,L_bm,L_cf,L_formula,lower_num,lower_den,upper_num,upper_den"


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGenerate:
    def test_thue_morse_16(self, capsys):
        code, out, _ = run_cli(["generate", "--seq", "thue-morse", "--n", "16"], capsys)
        assert code == 0
        assert out.splitlines()[1] == "0110100110010110"

    def test_pattern_2_2_3(self, capsys):
        code, out, _ = run_cli(
            ["generate", "--seq", "pattern", "--p", "2", "--k", "2", "--a", "3",
             "--n", "8"], capsys)
        assert code == 0
        assert out.splitlines()[1] == "00010010"

    def test_baum_sweet_8(self, capsys):
        code, out, _ = run_cli(["generate", "--seq", "baum-sweet", "--n", "8"], capsys)
        assert code == 0
        assert out.splitlines()[1] == "11011001"

    def test_header_carries_field(self, capsys):
        code, out, _ = run_cli(
            ["generate", "--seq", "sum-of-digits", "--p", "3", "--n", "9"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "# p=3 spec=sum-of-digits(p=3)"
        assert out.splitlines()[1] == "012120201"

    def test_missing_required_is_usage_error(self, capsys):
        code, _, err = run_cli(["generate", "--seq", "thue-morse"], capsys)
        assert code == 2
        assert "usage error" in err

    def test_pattern_without_params_is_usage_error(self, capsys):
        code, _, _ = run_cli(["generate", "--seq", "pattern", "--n", "8"], capsys)
        assert code == 2

    def test_large_prime_rejected(self, capsys):
        code, _, _ = run_cli(
            ["generate", "--seq", "sum-of-digits", "--p", "13", "--n", "4"], capsys)
        assert code == 2


class TestProfile:
    def test_csv_header_and_thue_morse_row4(self, capsys):
        code, out, _ = run_cli(
            ["profile", "--seq", "thue-morse", "--n-max", "4"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER
        # N=4: L=2 everywhere, bounds 3/2 <= L <= 3
        assert lines[4] == "4,2,2,2,3,2,3,1"

    def test_rudin_shapiro_row12(self, capsys):
        code, out, _ = run_cli(
            ["profile", "--seq", "rudin-shapiro", "--n-max", "12"], capsys)
        assert code == 0
        row = out.splitlines()[12].split(",")
        assert row[:4] == ["12", "6", "6", "6"]

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            ["profile", "--seq", "thue-morse", "--n-max", "8", "--format", "json"],
            capsys)
        assert code == 0
        rows = json.loads(out)
        assert rows[3]["L_bm"] == rows[3]["L_cf"] == rows[3]["L_formula"] == 2

    def test_bm_only_leaves_cf_blank(self, capsys):
        code, out, _ = run_cli(
            ["profile", "--seq", "thue-morse", "--n-max", "4", "--method", "bm"],
            capsys)
        assert code == 0
        assert out.splitlines()[4].split(",")[2] == ""

    def test_deterministic(self, capsys):
        args = ["profile", "--seq", "baum-sweet", "--n-max", "32"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2


class TestExpansion:
    def test_thue_morse_final_value(self, capsys):
        code, out, _ = run_cli(
            ["expansion", "--seq", "thue-morse", "--n", "32"], capsys)
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[-1]["E_N"] == 5
        assert rows[0]["E_N"] == 0  # prefix starts with 0

    def test_perfect_profile_plateau(self, capsys):
        code, out, _ = run_cli(
            ["expansion", "--seq", "perfect-profile", "--n", "32"], capsys)
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert max(r["E_N"] for r in rows) <= 4

    def test_witnesses_serialized(self, capsys):
        code, out, _ = run_cli(
            ["expansion", "--seq", "thue-morse", "--n", "4"], capsys)
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[1]["witness"] == [[0, 1, 1], [1, 0, 1]]


class TestVerify:
    def test_single_spec_ok(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--seq", "thue-morse", "--n-max", "64"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["ok"] is True

    def test_nmax_alias(self, capsys):
        code, _, _ = run_cli(
            ["verify", "--seq", "thue-morse", "--nmax", "64"], capsys)
        assert code == 0

    def test_suite_all(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--suite", "all", "--kmax", "2", "--n-max", "64"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert all(r["ok"] for r in payload)
        assert len(payload) >= 7

    def test_corrupt_fixture_fails_and_names_n(self, capsys):
        code, out, err = run_cli(
            ["verify", "--seq", "thue-morse", "--n-max", "64",
             "--corrupt-index", "9"], capsys)
        assert code == 1
        assert "FAIL thue-morse" in err
        assert "first failing N=" in err
        payload = json.loads(out)
        failing = [c for c in payload[0]["checks"] if not c["pass"]]
        assert failing
        assert any(c["first_fail_N"] is not None for c in failing)

    def test_requires_target(self, capsys):
        code, _, _ = run_cli(["verify"], capsys)
        assert code == 2

    @pytest.mark.parametrize("index", ["64", "1000", "-1"])
    def test_corrupt_index_outside_prefix_is_usage_error(self, capsys, index):
        code, out, err = run_cli(
            ["verify", "--seq", "thue-morse", "--n-max", "64", "--corrupt-index", index],
            capsys)
        assert code == 2
        assert out == ""
        assert "usage error" in err and "--corrupt-index" in err


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("seq = thue-morse\nn-max = 4\n# comment\n")
        code, out, _ = run_cli(["profile", "--config", str(conf)], capsys)
        assert code == 0
        assert out.splitlines()[4] == "4,2,2,2,3,2,3,1"

    def test_flags_override_config(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("seq=thue-morse\nn-max=64\n")
        code, out, _ = run_cli(
            ["profile", "--config", str(conf), "--n-max", "4"], capsys)
        assert code == 0
        assert len(out.splitlines()) == 5

    def test_bad_line_is_usage_error(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("just-a-word\n")
        code, _, _ = run_cli(["profile", "--config", str(conf)], capsys)
        assert code == 2


class TestOutFile:
    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "tm.csv"
        code, out, _ = run_cli(
            ["profile", "--seq", "thue-morse", "--n-max", "4", "--out", str(target)],
            capsys)
        assert code == 0
        assert out == ""
        assert target.read_text().splitlines()[0] == CSV_HEADER


class TestSubprocess:
    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "seqc.cli", "generate", "--seq", "thue-morse",
             "--n", "16"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1] == "0110100110010110"

    def test_negative_control_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "seqc.cli", "verify", "--seq", "thue-morse",
             "--n-max", "64", "--corrupt-index", "5"],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert "first failing N=" in proc.stderr


class TestBench:
    def test_sanity_row_small_n(self, capsys):
        code, out, _ = run_cli(["bench", "--kernel", "bm", "--n", "1"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "kernel,N,seconds,budget,ok"
        assert lines[1].startswith("bm,1,")
