"""Command-line interface: output formats, determinism, exit codes."""

import dataclasses
import hashlib
import json
import sys

import pytest

from seqc import autoseq, cli, contfrac, theory

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

    @pytest.mark.parametrize("command", [["generate", "--n", "8"], ["profile", "--n-max", "8"],
                                         ["verify", "--n-max", "8"]])
    # 1763 = 41 * 43 has no prime factor up to 37, so trial division passes
    # it and only the Miller-Rabin rounds reject it
    @pytest.mark.parametrize("p", ["4", "1", "1763"])
    def test_sum_of_digits_base_not_prime_is_usage_error(self, capsys, command, p):
        code, out, err = run_cli(
            [command[0], "--seq", "sum-of-digits", "--p", p, *command[1:]], capsys)
        assert code == 2
        assert out == ""
        assert "modulus" in err


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

    @pytest.mark.parametrize("n_max", ["1", "2", "3"])
    @pytest.mark.parametrize("seq", [["thue-morse"], ["sum-of-digits", "--p", "3"],
                                     ["baum-sweet"]])
    def test_cf_alone_matches_both_at_short_n(self, capsys, seq, n_max):
        def l_cf(method):
            code, out, _ = run_cli(["profile", "--seq", *seq, "--n-max", n_max,
                                    "--method", method], capsys)
            assert code == 0
            return [line.split(",")[2] for line in out.splitlines()[1:]]
        cf = l_cf("cf")
        assert cf == l_cf("both")
        assert len(cf) == int(n_max)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_method_disagreement_exits_1(self, capsys, monkeypatch, fmt):
        # the CF profile is bumped at one N: the run prints no rows and names that N
        real = contfrac.profile_from_cf
        bumped = {}

        def profile_from_cf(r, n_max):
            values = list(real(r, n_max).values)
            bumped["L"] = values[36]
            values[36] += 1
            return autoseq.Profile(tuple(values))

        monkeypatch.setattr(contfrac, "profile_from_cf", profile_from_cf)
        code, out, err = run_cli(["profile", "--seq", "rudin-shapiro", "--n-max", "64",
                                  "--format", fmt], capsys)
        assert code == 1
        assert out == ""
        ell = bumped["L"]
        assert err == f"method disagreement at N=37: bm={ell} cf={ell + 1}\n"

    @pytest.mark.parametrize("spec, d_m", [(autoseq.thue_morse(), (2, 1)),
                                           (autoseq.baum_sweet(), (3, 0)),
                                           (autoseq.pattern(2, 3, 7), (2, 7))])
    def test_bound_columns_equal_general_bounds(self, spec, d_m):
        """The array-computed bounds are the ``Fraction``s of ``theory.general_bounds``, as ints."""
        w = autoseq.witness(spec)
        assert (w.d, w.m) == d_m
        rows = cli._profile_rows(spec, 4096, "cf")
        assert len(rows) == 4096
        for n, row in enumerate(rows, 1):
            b = theory.general_bounds(w.d, w.m, n)
            assert row[0] == n
            assert row[4:] == (b.lower.numerator, b.lower.denominator,
                               b.upper.numerator, b.upper.denominator)
            assert all(v is None or type(v) is int for v in row)

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

    PATTERN_2_3_7 = ["expansion", "--seq", "pattern", "--p", "2", "--k", "3", "--a", "7",
                     "--n", "256"]

    def test_uncapped_by_default(self, capsys):
        # its witness has total degree 11, above the former default cap of 8
        code, out, _ = run_cli(self.PATTERN_2_3_7, capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 256
        assert not any('"capped": true' in line for line in lines)
        assert json.loads(lines[-1])["E_N"] == 11

    def test_explicit_d_max_caps(self, capsys):
        code, out, _ = run_cli(self.PATTERN_2_3_7 + ["--d-max", "8"], capsys)
        assert code == 0
        assert json.loads(out.splitlines()[-1]) == {"E_N": 8, "N": 256, "capped": True,
                                                    "witness": None}


class TestExpansionOutputPin:
    """``seqc expansion`` stdout, byte for byte, pinned by one digest per cap.

    Each digest covers stdout, stderr and the exit code of ``expansion
    --n 256`` on the 7 built-ins and pattern(3,2,4), run through
    ``cli.main``, recorded before ``ExpansionResult`` became a tuple.
    """

    SPECS = [
        ["--seq", "thue-morse"],
        ["--seq", "rudin-shapiro"],
        ["--seq", "pattern", "--p", "2", "--k", "3", "--a", "7"],
        ["--seq", "sum-of-digits", "--p", "3"],
        ["--seq", "baum-sweet"],
        ["--seq", "paper-folding", "--v0", "1"],
        ["--seq", "perfect-profile"],
        ["--seq", "pattern", "--p", "3", "--k", "2", "--a", "4"],
    ]
    DIGESTS = {
        None: "cd7194447174773c7bdea60ad2bb59a3d5eca6d9fe9514e1224604c33db710c6",
        3: "a5ae7f0af80be231086e854627fe36ef96237720ee29f879ef00efc5b089c17c",
    }

    @pytest.mark.parametrize("d_max", [None, 3])
    def test_stdout_matches_pinned_digest(self, capsys, d_max):
        cap = [] if d_max is None else ["--d-max", str(d_max)]
        digest = hashlib.sha256()
        for spec in self.SPECS:
            code, out, err = run_cli(["expansion", *spec, "--n", "256", *cap], capsys)
            digest.update(f"{out}\0{err}\0{code}\n".encode())
        assert digest.hexdigest() == self.DIGESTS[d_max]


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

    @pytest.mark.parametrize("seq", [["thue-morse"], ["sum-of-digits", "--p", "3"]])
    def test_bumped_cf_profile_fails_bm_cf_agree(self, capsys, monkeypatch, seq):
        # the CF profile verify reads is bumped at N=37: the report names
        # bm_cf_agree at that N, with both values, and the run exits 1
        real = contfrac.profile_from_expansion

        def profile_from_expansion(expansion, n_max):
            values = list(real(expansion, n_max).values)
            values[36] += 1
            return autoseq.Profile(tuple(values))

        monkeypatch.setattr(contfrac, "profile_from_expansion", profile_from_expansion)
        code, out, err = run_cli(["verify", "--seq", *seq, "--n-max", "64"], capsys)
        assert code == 1
        assert "first failing N=37" in err
        checks = {c["name"]: c for c in json.loads(out)[0]["checks"]}
        agree = checks["bm_cf_agree"]
        assert not agree["pass"] and agree["first_fail_N"] == 37
        assert int(agree["actual"]) == int(agree["expected"]) + 1
        assert all(c["pass"] for name, c in checks.items() if name != "bm_cf_agree")

    @pytest.mark.parametrize("seq, k", [(["thue-morse"], 1),
                                        (["pattern", "--p", "2", "--k", "2", "--a", "3"], 2)])
    def test_bumped_cf_quotient_fails_predictions(self, capsys, monkeypatch, seq, k):
        # A_5 of the expansion verify reads gets its constant term flipped:
        # its degree, and so the CF profile, is unchanged, and the report
        # names cf_predictions at j = 5 and exits 1.  The Q_j congruences,
        # which verify leaves to cf_predictions, fail at the same j (A_j + 1
        # adds Q_{j-1}, whose residue is 1 or x + 1, to Q_j)
        real = contfrac.cf_expand
        j = 5
        bumped = []

        def cf_expand(r):
            exp = real(r)
            assert exp.reliable_count > j
            quots = list(exp.raw_quotients)
            quots[j] ^= 1
            bumped.append(dataclasses.replace(exp, raw_quotients=tuple(quots)))
            return bumped[-1]

        monkeypatch.setattr(contfrac, "cf_expand", cf_expand)
        code, out, _ = run_cli(["verify", "--seq", *seq, "--n-max", "64"], capsys)
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)[0]["checks"]}
        assert not checks["cf_predictions"]["pass"]
        assert checks["cf_predictions"]["first_fail_N"] == j
        assert {name for name, c in checks.items() if not c["pass"]} == {
            "convergent_identities", "cf_predictions"}
        assert contfrac.q_congruences(bumped[0], k)[0][0] == j

    def test_requires_target(self, capsys):
        code, _, _ = run_cli(["verify"], capsys)
        assert code == 2

    def test_suite_with_seq_is_usage_error(self, capsys, tmp_path):
        conf = tmp_path / "v.conf"
        conf.write_text("seq=thue-morse\n")
        for argv in (["verify", "--suite", "all", "--seq", "thue-morse", "--n-max", "8"],
                     ["verify", "--config", str(conf), "--suite", "all", "--n-max", "8"]):
            code, out, err = run_cli(argv, capsys)
            assert code == 2
            assert out == ""
            assert "usage error" in err and "--suite" in err

    @pytest.mark.parametrize("argv,option", [
        (["generate", "--seq", "thue-morse", "--n", "4"], "p=3"),
        (["profile", "--seq", "baum-sweet", "--n-max", "2"], "k=9"),
        (["verify", "--suite", "all", "--n-max", "8"], "p=7"),
        (["verify", "--suite", "all", "--n-max", "8"], "v0=1"),
        (["expansion", "--seq", "sum-of-digits", "--p", "3", "--n", "4"], "v0=0"),
        (["profile", "--seq", "paper-folding", "--n-max", "2"], "a=1"),
        (["generate", "--seq", "pattern", "--p", "2", "--k", "2", "--a", "3", "--n", "4"], "v0=1"),
    ])
    def test_spec_option_not_taken_is_usage_error(self, capsys, tmp_path, argv, option):
        key, val = option.split("=")
        conf = tmp_path / "s.conf"
        conf.write_text(option + "\n")
        for full in (argv + ["--" + key, val], argv[:1] + ["--config", str(conf)] + argv[1:]):
            code, out, err = run_cli(full, capsys)
            assert code == 2
            assert out == ""
            assert "usage error" in err and f"takes no --{key}" in err

    def test_paper_folding_v0_defaults_to_1(self, capsys):
        outs = [run_cli(["generate", "--seq", "paper-folding", "--n", "16", *extra], capsys)
                for extra in ([], ["--v0", "1"])]
        assert outs[0] == outs[1] and outs[0][0] == 0
        assert outs[0][1].startswith("# p=2 spec=paper-folding(v0=1)\n")

    @pytest.mark.parametrize("index", ["64", "1000", "-1"])
    def test_corrupt_index_outside_prefix_is_usage_error(self, capsys, index):
        code, out, err = run_cli(
            ["verify", "--seq", "thue-morse", "--n-max", "64", "--corrupt-index", index],
            capsys)
        assert code == 2
        assert out == ""
        assert "usage error" in err and "--corrupt-index" in err

    @pytest.mark.parametrize("kmax", ["0", "-3"])
    def test_kmax_below_1_is_usage_error(self, capsys, kmax):
        code, out, err = run_cli(["verify", "--suite", "all", "--kmax", kmax], capsys)
        assert code == 2
        assert out == ""
        assert "usage error" in err and "--kmax" in err


class TestWitnessCap:
    """A spec whose witness passes the degree cap exits 2 before allocating it."""

    P31 = str(2**31 - 1)

    @pytest.mark.parametrize("argv", [
        ["profile", "--seq", "sum-of-digits", "--p", P31, "--n-max", "8"],
        ["verify", "--seq", "sum-of-digits", "--p", P31, "--n-max", "8"],
        ["profile", "--seq", "pattern", "--p", P31, "--k", "1", "--a", "1", "--n-max", "8"],
        ["verify", "--seq", "pattern", "--p", P31, "--k", "1", "--a", "1", "--n-max", "8"],
        ["verify", "--seq", "pattern", "--p", "2", "--k", "17", "--a", "1", "--n-max", "8"],
    ])
    def test_over_the_cap_is_error_2(self, capsys, argv):
        for _ in range(2):  # witnesses are cached, a failure is not
            code, out, err = run_cli(argv, capsys)
            assert code == 2
            assert out == ""
            assert "witness degree" in err and str(autoseq.WITNESS_DEGREE_CAP) in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("argv, code, out, err", [
        (["generate", "--n", "4"], 0, "0101", ""),
        (["profile", "--n-max", "4"], 2, "",
         "witness degree 3^100000000 + 5 of pattern(p=3,k=100000000,a=1) exceeds the cap 65536"),
        (["verify", "--n-max", "4"], 2, "",
         "witness degree 3^100000000 + 5 of pattern(p=3,k=100000000,a=1) exceeds the cap 65536"),
    ])
    def test_huge_k_answers_at_once(self, run_python, argv, code, out, err):
        # 3^(10^8) is never built: validation, the prefix and the cap read k alone
        spec = ["--seq", "pattern", "--p", "3", "--k", str(10**8), "--a", "1"]
        proc = run_python("-m", "seqc.cli", *argv[:1], *spec, *argv[1:], timeout=30)
        assert proc.returncode == code
        assert proc.stdout.splitlines()[1:] == ([out] if out else [])
        assert err in proc.stderr and "Traceback" not in proc.stderr

    SUITE_CAP_ERROR = "witness degree 65539 of pattern(p=2,k=16,a=65535) exceeds the cap 65536"

    @pytest.mark.parametrize("kmax, n_max", [("16", "16384"), (str(10**8), "8")])
    def test_suite_over_the_cap_answers_at_once(self, run_python, kmax, n_max):
        # pattern(2,16,2^16-1) is the first suite spec over the cap; no
        # spec past it is built, so 2^k is never formed for k up to 10^8
        proc = run_python("-m", "seqc.cli", "verify", "--suite", "all",
                          "--kmax", kmax, "--n-max", n_max, timeout=30)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert self.SUITE_CAP_ERROR in proc.stderr and "Traceback" not in proc.stderr

    def test_suite_checks_every_witness_before_verifying(self, capsys, monkeypatch):
        def verify(*args, **kwargs):
            raise AssertionError("a spec was verified before every witness was checked")

        monkeypatch.setattr(theory, "verify", verify)
        code, out, err = run_cli(
            ["verify", "--suite", "all", "--kmax", "16", "--n-max", "16384"], capsys)
        assert (code, out) == (2, "")
        assert self.SUITE_CAP_ERROR in err

    def test_largest_sum_of_digits_under_the_cap_runs(self, capsys):
        # 2p + 1 = 65499 <= 2^16 at p = 32749, the largest prime under the cap
        code, _, _ = run_cli(
            ["profile", "--seq", "sum-of-digits", "--p", "32749", "--n-max", "8"], capsys)
        assert code == 0


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

    @pytest.mark.parametrize("line", ["bogus-key=7", "seed=1"])
    def test_unknown_key_is_usage_error(self, capsys, tmp_path, line):
        conf = tmp_path / "run.conf"
        conf.write_text(f"seq=thue-morse\nn-max=4\n{line}\n")
        code, out, err = run_cli(["profile", "--config", str(conf)], capsys)
        assert code == 2
        assert out == ""
        assert "usage error" in err and line.split("=")[0] in err

    def test_bad_line_is_usage_error(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("just-a-word\n")
        code, _, _ = run_cli(["profile", "--config", str(conf)], capsys)
        assert code == 2



class TestConfigValues:
    """A config value goes through argparse exactly as the same flag does."""

    @staticmethod
    def run(capsys, tmp_path, text, *flags):
        conf = tmp_path / "run.conf"
        conf.write_text(text)
        try:
            code = cli.main(["profile", "--config", str(conf), *flags])
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    @pytest.mark.parametrize("line", ["method=bogus", "format=xml", "seq=nonsense",
                                      "n-max=abc"])
    def test_bad_value_is_usage_error(self, capsys, tmp_path, line):
        code, out, err = self.run(capsys, tmp_path, f"seq=thue-morse\nn-max=4\n{line}\n")
        assert code == 2
        assert out == ""
        assert line.split("=")[0] in err

    @pytest.mark.parametrize("line", ["help=1", "h=1", "=1"])
    def test_help_key_is_usage_error(self, capsys, tmp_path, line):
        code, out, err = self.run(capsys, tmp_path, f"seq=thue-morse\n{line}\n")
        assert code == 2
        assert out == ""
        assert "usage error" in err

    def test_underscore_key(self, capsys, tmp_path):
        code, out, _ = self.run(capsys, tmp_path, "seq=thue-morse\nn_max=4\n")
        assert code == 0
        assert out.splitlines()[4] == "4,2,2,2,3,2,3,1"

    def test_flag_beats_config_choice(self, capsys, tmp_path):
        code, out, _ = self.run(capsys, tmp_path, "seq=thue-morse\nn-max=4\nmethod=bm\n",
                                "--method", "cf")
        assert code == 0
        row = out.splitlines()[4].split(",")
        assert row[1] == "" and row[2] == "2"


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
    def test_entry_point_runs(self, run_python):
        proc = run_python("-m", "seqc.cli", "generate", "--seq", "thue-morse", "--n", "16")
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1] == "0110100110010110"

    def test_negative_control_subprocess(self, run_python):
        proc = run_python("-m", "seqc.cli", "verify", "--seq", "thue-morse",
                          "--n-max", "64", "--corrupt-index", "5")
        assert proc.returncode == 1
        assert "first failing N=" in proc.stderr


@pytest.mark.parametrize("command, option", [("profile", "--n-max"), ("generate", "--n"),
                                             ("expansion", "--n"), ("verify", "--n-max")])
def test_length_past_maxsize_is_an_error(capsys, command, option):
    # no list of sys.maxsize + 1 entries can be sized: one error line and
    # exit 2, for exit 1 means a failed verification
    n = sys.maxsize + 1
    code, out, err = run_cli([command, "--seq", "thue-morse", option, str(n)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: prefix length must lie in [1, {sys.maxsize}], got {n}\n"


@pytest.mark.parametrize("argv, message", [
    (["profile", "--seq", "pattern", "--p", "2", "--k", "0", "--a", "1", "--n-max", "8"],
     "pattern length k must be >= 1"),
    (["verify", "--seq", "thue-morse", "--n-max", "3"], "n_max must be >= 4"),
])
def test_rejected_value_is_an_error(capsys, argv, message):
    assert run_cli(argv, capsys) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command, option", [("profile", "--n-max"), ("generate", "--n"),
                                             ("expansion", "--n"), ("verify", "--n-max")])
def test_length_too_long_to_allocate_is_an_error(capsys, monkeypatch, command, option):
    # a length below sys.maxsize can still fail to allocate: one error line
    # and exit 2, not a traceback and exit 1
    def prefix(spec, n):
        raise MemoryError

    monkeypatch.setattr(autoseq, "prefix", prefix)
    code, out, err = run_cli([command, "--seq", "thue-morse", option, "64"], capsys)
    assert (code, out, err) == (2, "", "error: out of memory\n")


# each --seq name, in argparse's order, with its spec options and the spec it names
SPEC_NAMES = [
    ("thue-morse", [], "thue-morse"),
    ("rudin-shapiro", [], "rudin-shapiro"),
    ("pattern", ["--p", "3", "--k", "2", "--a", "4"], "pattern(p=3,k=2,a=4)"),
    ("sum-of-digits", ["--p", "5"], "sum-of-digits(p=5)"),
    ("baum-sweet", [], "baum-sweet"),
    ("paper-folding", [], "paper-folding(v0=1)"),
    ("paper-folding", ["--v0", "0"], "paper-folding(v0=0)"),
    ("perfect-profile", [], "perfect-profile"),
]


class TestSpecFromArgs:
    @pytest.mark.parametrize("name, options, canonical", SPEC_NAMES)
    def test_every_name_gives_its_spec(self, name, options, canonical):
        args = cli.build_parser().parse_args(["generate", "--seq", name, *options])
        assert cli.spec_from_args(args).canonical_name == canonical

    def test_choices_in_order(self):
        assert tuple(cli.SEQUENCES) == tuple(dict.fromkeys(name for name, _, _ in SPEC_NAMES))

    @pytest.mark.parametrize("argv, message", [
        (["--seq", "pattern"], "pattern requires --p, --k and --a"),
        (["--seq", "pattern", "--p", "3", "--a", "4"], "pattern requires --p, --k and --a"),
        (["--seq", "sum-of-digits"], "sum-of-digits requires --p"),
    ])
    def test_missing_option_message(self, capsys, argv, message):
        code, out, err = run_cli(["generate", *argv, "--n", "8"], capsys)
        assert (code, out, err) == (2, "", f"usage error: {message}\n")


def test_seed_flag_is_gone():
    with pytest.raises(SystemExit) as exc:
        cli.main(["generate", "--seq", "thue-morse", "--n", "4", "--seed", "1"])
    assert exc.value.code == 2


def test_bench_subcommand_is_gone():
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench"])
    assert exc.value.code == 2


class TestParserReuse:
    """main builds its parser once per process; no call may see another's options."""

    @staticmethod
    def run(argv, capsys):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = ("exit", exc.code)
        out = capsys.readouterr()
        return code, out.out, out.err

    def argvs(self, tmp_path):
        conf_bm = tmp_path / "bm.conf"
        conf_bm.write_text("seq=rudin-shapiro\nn-max=12\nmethod=bm\nformat=json\n")
        conf_v = tmp_path / "v.conf"
        conf_v.write_text("seq=thue-morse\nn-max=32\ncorrupt-index=5\n")
        return [
            ["profile", "--config", str(conf_bm)],
            ["profile", "--seq", "thue-morse", "--n-max", "6"],
            ["verify", "--config", str(conf_v)],
            ["verify", "--seq", "thue-morse", "--n-max", "32"],
            ["generate", "--seq", "pattern", "--p", "3", "--k", "2", "--a", "4", "--n", "9"],
            ["generate", "--seq", "pattern", "--n", "9"],
            ["profile", "--seq", "thue-morse", "--n-max", "6", "--method", "nope"],
            ["expansion", "--seq", "perfect-profile", "--n", "8", "--d-max", "3"],
            ["expansion", "--seq", "perfect-profile", "--n", "8"],
            ["verify", "--suite", "all", "--n-max", "16", "--kmax", "2"],
            ["profile", "--config", str(tmp_path / "missing.conf")],
            ["profile", "--seq", "rudin-shapiro", "--n-max", "12"],
        ]

    def test_reused_parser_matches_fresh_parsers(self, capsys, tmp_path):
        argvs = self.argvs(tmp_path)
        cli._parser.cache_clear()
        reused = [self.run(argv, capsys) for argv in argvs]
        assert cli._parser.cache_info().misses == 1
        fresh = []
        for argv in argvs:
            cli._parser.cache_clear()
            fresh.append(self.run(argv, capsys))
        assert reused == fresh
        # config values, corrupt index and pattern parameters do not leak into
        # the next call: defaults come back, the clean verify passes, and a
        # pattern without --p/--k/--a is a usage error
        assert [r[0] for r in reused] == [0, 0, 1, 0, 0, 2, ("exit", 2), 0, 0, 0, 2, 0]
        assert reused[1][1].startswith("N,L_bm,L_cf")
        assert json.loads(reused[0][1])[0]["L_cf"] is None

    def test_import_builds_no_parser(self, run_python):
        proc = run_python("-c", "import seqc.cli as c; print(c._parser.cache_info().misses)")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0"


class TestVerifyOutputPin:
    """The verify reports, byte for byte, pinned by one digest.

    The digest covers stdout, stderr and the exit code of
    ``verify --suite all --n-max 512`` and of ``--corrupt-index`` 0, 300
    and 511 on each suite spec, run through ``cli.main``.  A refactor of
    the CLI or of ``theory.verify`` must leave it unchanged.  It was
    re-pinned when ``verify`` dropped its ``functional_equation`` check,
    and again when it dropped its ``q_congruences`` check: each time the
    only differences were the removed check objects, for no FAIL line
    named that check.  ROADMAP item 5, which adds fields to every check,
    changes the reports on purpose and re-pins it again.
    """

    SPECS = [
        ["--seq", "thue-morse"],
        ["--seq", "rudin-shapiro"],
        ["--seq", "pattern", "--p", "2", "--k", "3", "--a", "7"],
        ["--seq", "sum-of-digits", "--p", "3"],
        ["--seq", "baum-sweet"],
        ["--seq", "paper-folding", "--v0", "1"],
        ["--seq", "perfect-profile"],
        ["--seq", "pattern", "--p", "2", "--k", "4", "--a", "15"],
    ]
    DIGEST = "08ac9cb8e733b5c8870e11de3c0a59379aef7fb784d7afd52c0c76f73875471c"

    def test_reports_match_pinned_digest(self, capsys):
        runs = [["verify", "--suite", "all", "--n-max", "512"]]
        runs += [["verify", *spec, "--n-max", "512", "--corrupt-index", index]
                 for spec in self.SPECS for index in ("0", "300", "511")]
        digest = hashlib.sha256()
        for argv in runs:
            code, out, err = run_cli(argv, capsys)
            digest.update(f"{out}\0{err}\0{code}\n".encode())
        assert digest.hexdigest() == self.DIGEST
