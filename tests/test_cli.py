"""Command-line interface: records, exit codes, round-trips."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp, mpf

from aperylike.cli import COMMANDS, EXIT_CODES, run
from tests.conftest import mpf_frac

SRC = str(Path(__file__).resolve().parents[1] / "src")
#: A child's environment: `src` first, then any inherited PYTHONPATH, which
#: may be where the interpreter finds mpmath.
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.getenv("PYTHONPATH"))))}
DIGESTS = Path(__file__).resolve().parents[1] / "clibench" / "digests.json"


def run_lines(capsys, argv):
    result = run(argv)
    captured = capsys.readouterr()
    lines = [line for line in captured.out.splitlines() if line.strip()]
    return result, lines


class TestPair:
    def test_documented_payload(self, capsys):
        result, lines = run_lines(capsys, ["pair", "--family", "catalan", "--n", "1"])
        assert result.status == "ok" and result.exit_code == 0
        record = json.loads(lines[0])
        assert record["n"] == 1
        assert record["u"] == "7/4"
        assert record["v"] == "13/8"

    def test_rationals_round_trip(self, capsys):
        _, lines = run_lines(capsys, ["pair", "--family", "catalan", "--n", "7"])
        record = json.loads(lines[0])
        from aperylike.sequences import catalan_pair

        item = catalan_pair(7)
        assert Fraction(record["u"]) == item.u
        assert Fraction(record["v"]) == item.v

    def test_csv_format(self, capsys):
        _, lines = run_lines(
            capsys, ["pair", "--family", "zeta4", "--n", "1", "--format", "csv"]
        )
        assert lines[0].startswith("family,n,u,v")
        assert lines[1] == "zeta4,1,12,13"


class TestRange:
    def test_streams_one_line_per_index(self, capsys):
        result, lines = run_lines(
            capsys, ["range", "--family", "catalan", "--n-max", "5"]
        )
        assert result.status == "ok"
        assert len(lines) == 6
        assert json.loads(lines[0])["u"] == "1"


def run_subprocess(argv):
    """The CLI in a fresh process, with CPython's default int->str limit."""
    return subprocess.run(
        [sys.executable, "-m", "aperylike.cli", *argv],
        capture_output=True, text=True, env=ENV,
    )


class TestRowsPastTheIntStrLimit:
    # range and check print rows from decimal twins, so that no int is
    # converted; their last rows here have more than 4,300 digits

    def test_range(self, no_int_str_limit):
        proc = run_subprocess(["range", "--family", "catalan", "--n-max", "1100"])
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 1101
        from aperylike.sequences import catalan_pair

        item = catalan_pair(1100)
        record = json.loads(lines[-1])
        assert (record["n"], record["u"], record["v"]) == (1100, str(item.u), str(item.v))
        assert len(record["v"]) > 4300

    def test_check(self, no_int_str_limit):
        proc = run_subprocess(["check", "--family", "zeta4", "--n-max", "1100", "--mode", "strong"])
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 1101
        from aperylike.sequences import zeta4_pair

        item = zeta4_pair(1100)
        record = json.loads(lines[-1])
        assert record["n"] == 1100 and record["pass_u"] and record["pass_v"]
        # the strong factors are 1 and D_n^4
        d_n = math.lcm(*range(1, 1101))
        assert (record["witness_u"], record["witness_v"]) == (str(item.u), str(item.v * d_n**4))
        assert len(record["witness_v"]) > 4300

    def test_check_proved(self, no_int_str_limit):
        argv = ["check", "--family", "catalan", "--n-max", "1200", "--mode", "proved"]
        proc = run_subprocess(argv)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 1201
        from aperylike.sequences import _clearing_factors, catalan_pair

        item = catalan_pair(1200)
        factor_u, factor_v = _clearing_factors("catalan", 1200, "proved")
        record = json.loads(lines[-1])
        assert record["n"] == 1200 and record["pass_u"] and record["pass_v"]
        assert (record["witness_u"], record["witness_v"]) == (
            str(item.u * factor_u),
            str(item.v * factor_v),
        )
        assert len(record["witness_v"]) > 4300


class TestCheck:
    def test_json_rows_and_status(self, capsys):
        result, lines = run_lines(
            capsys,
            ["check", "--family", "catalan", "--n-max", "10", "--mode", "proved"],
        )
        assert result.status == "ok" and result.exit_code == 0
        assert len(lines) == 11
        row = json.loads(lines[2])
        assert row["pass_u"] and row["pass_v"]
        assert (row["n"], row["witness_u"], row["witness_v"]) == (2, "41536", "4108416")

    def test_csv_header(self, capsys):
        _, lines = run_lines(
            capsys,
            [
                "check",
                "--family",
                "zeta4",
                "--n-max",
                "3",
                "--mode",
                "strong",
                "--format",
                "csv",
            ],
        )
        assert lines[0] == "family,n,mode,pass_u,pass_v,witness_u,witness_v"
        assert len(lines) == 5


class TestCertify:
    def test_streams_true_rows(self, capsys):
        result, lines = run_lines(
            capsys, ["certify", "--family", "catalan", "--n-max", "10"]
        )
        assert result.status == "ok" and result.exit_code == 0
        assert len(lines) == 10
        for line in lines:
            row = json.loads(line)
            assert row["telescoping"] is True
            assert row["certificate_at_zero"] == "0"


class TestCf:
    def test_first_convergent(self, capsys):
        result, lines = run_lines(capsys, ["cf", "--family", "catalan", "--n", "1"])
        record = json.loads(lines[0])
        assert record["convergent"] == "13/14"
        assert record["matches_recurrence_ratio"] is True
        assert result.status == "ok"

    def test_zeta4_first_convergent(self, capsys):
        _, lines = run_lines(capsys, ["cf", "--family", "zeta4", "--n", "1"])
        assert json.loads(lines[0])["convergent"] == "13/12"


class TestDigits:
    def test_twenty_digit_prefix(self, capsys):
        result, lines = run_lines(
            capsys, ["digits", "--constant", "catalan", "--digits", "20"]
        )
        record = json.loads(lines[0])
        assert record["value"].startswith("0.91596559417721901505")
        assert result.status == "ok"

    def test_zeta4(self, capsys):
        _, lines = run_lines(capsys, ["digits", "--constant", "zeta4", "--digits", "10"])
        assert json.loads(lines[0])["value"] == "1.0823232337"

    @pytest.mark.parametrize(
        "constant, digits, stdout",
        [
            ("catalan", 1, '{"constant": "catalan", "digits": 1, "value": "0.9", '
             '"n_used": 6, "error_bound": "5.29263e-12"}'),
            ("catalan", 3, '{"constant": "catalan", "digits": 3, "value": "0.916", '
             '"n_used": 7, "error_bound": "4.32539e-14"}'),
            ("zeta4", 1, '{"constant": "zeta4", "digits": 1, "value": "1.1", '
             '"n_used": 6, "error_bound": "1.11228e-19"}'),
        ],
    )
    def test_largest_bounds_recorded(self, capsys, constant, digits, stdout):
        # the largest bounds digits prints: n_used >= 6 keeps each below 1e-4,
        # in the exponent form of mpmath's nstr(bound, 6)
        result = run(["digits", "--constant", constant, "--digits", str(digits)])
        assert capsys.readouterr().out == stdout + "\n"
        assert result.exit_code == 0


class TestIntegral:
    def test_corrected_relation_verifies(self, capsys):
        result, lines = run_lines(capsys, ["integral", "--n", "1", "--digits", "8"])
        record = json.loads(lines[0])
        assert result.status == "ok"
        assert float(record["residual_eighth"]) < 1e-7
        assert float(record["residual_quarter"]) > 1e-3

    def test_check_survives_cancellation(self, capsys):
        # u_20 G - v_20 cancels about 42 digits, more than digits + 15, so
        # the linear form must be computed with guard digits to be nonzero
        result, lines = run_lines(capsys, ["integral", "--n", "20", "--digits", "10"])
        record = json.loads(lines[0])
        assert result.status == "ok"
        assert float(record["linear_form"]) != 0.0

    @pytest.mark.parametrize(
        "n, digits, stdout",
        [
            (1, 8, '{"n": 1, "digits": 8, "integral": "0.1764816815", '
             '"linear_form": "-0.02206021019", "residual_eighth": "1.196e-21", '
             '"residual_quarter": "0.02206"}'),
            (5, 12, '{"n": 5, "digits": 12, "integral": "2.9119412877383e-6", '
             '"linear_form": "-3.6399266096729e-7", "residual_eighth": "2.111e-31", '
             '"residual_quarter": "3.64e-7"}'),
            (20, 10, '{"n": 20, "digits": 10, "integral": "1.61403820146e-22", '
             '"linear_form": "2.01754775183e-23", "residual_eighth": "1.783e-45", '
             '"residual_quarter": "2.018e-23"}'),
        ],
    )
    def test_recorded_stdout(self, capsys, n, digits, stdout):
        # the benchmark digests no integral output, so these lines pin it
        result = run(["integral", "--n", str(n), "--digits", str(digits)])
        assert capsys.readouterr().out == stdout + "\n"
        assert result.exit_code == 0


class TestImports:
    def test_cli_does_not_import_numpy(self):
        code = "import sys, aperylike.cli; print('numpy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env=ENV,
        ).stdout
        assert out.strip() == "False"

    def test_exact_subcommands_do_not_import_mpmath(self):
        # mpmath is loaded on the first numeric evaluation; asymptotics, run
        # last, shows that this check sees the import when it happens
        code = (
            "import contextlib, io, json, sys\n"
            "import aperylike.cli\n"
            "seen = {'import': sorted({'mpmath', 'dataclasses'} & set(sys.modules))}\n"
            "for argv in sys.argv[1:]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        status = aperylike.cli.run(argv.split()).status\n"
            "    seen[argv] = [status, 'mpmath' in sys.modules]\n"
            "print(json.dumps(seen))\n"
        )
        exact = [
            "pair --family catalan --n 5",
            "range --family zeta4 --n-max 5",
            "check --family catalan --n-max 5 --mode proved",
            "cf --family zeta4 --n 5",
            "certify --family catalan --n-max 2",
            "decompose --n 3",
            "decompose --family zeta4 --n 3",
            "digits --constant catalan --digits 20",
            "digits --constant zeta4 --digits 20",
        ]
        # past the int->str limit: a usage error, still without mpmath
        too_long = "digits --constant catalan --digits 5000"
        numeric = "asymptotics --family catalan --n 5 --digits 10"
        out = subprocess.run(
            [sys.executable, "-c", code, *exact, too_long, numeric],
            capture_output=True, text=True, check=True,
            env=ENV,
        ).stdout
        seen = json.loads(out)
        assert seen.pop("import") == []
        assert seen.pop(too_long) == ["usage_error", False]
        assert seen.pop(numeric) == ["ok", True]
        assert seen == {argv: ["ok", False] for argv in exact}


class TestSeries:
    def test_residual_small(self, capsys):
        # n = 4 at 8 digits is the last index where the series meets the
        # relative check; n = 5 fails it (below)
        for n, digits in ((1, 6), (4, 8)):
            result, lines = run_lines(
                capsys,
                ["series", "--constant", "zeta4", "--n", str(n), "--digits", str(digits)],
            )
            record = json.loads(lines[0])
            assert result.status == "ok", n
            assert float(record["residual"]) < 1e-5

    def test_linear_form_resolved_past_the_cancellation(self, capsys, zeta4_200):
        # u_12 zeta(4) - v_12 is about 8e-16 while u_12 is about 1e14, so the
        # form cancels about 30 digits; without guard digits it printed 0.0.
        # The series misses the form by about 1.7e-14 at 8 digits, which is
        # far more than 10^-7 of the form at n = 5 and 12, so both fail
        from aperylike.sequences import zeta4_pair

        for n in (5, 12):
            result, lines = run_lines(
                capsys, ["series", "--constant", "zeta4", "--n", str(n), "--digits", "8"]
            )
            record = json.loads(lines[0])
            assert result.status == "verification_failed", n
            item = zeta4_pair(n)
            with mp.workdps(200):
                expected = mpf_frac(item.u) * zeta4_200 - mpf_frac(item.v)
                assert abs(mpf(record["linear_form"]) / expected - 1) < mpf(10) ** -8


    @pytest.mark.parametrize(
        "n, digits, exit_code, stdout",
        [
            (0, 10, 0, '{"n": 0, "digits": 10, "value": "1.08232323371", '
             '"linear_form": "1.08232323371", "residual": "1.666e-16"}'),
            (2, 10, 0, '{"n": 2, "digits": 10, "value": "0.000379903755106", '
             '"linear_form": "0.000379903755106", "residual": "1.666e-16"}'),
            (4, 8, 0, '{"n": 4, "digits": 8, "value": "9.435011599e-7", '
             '"linear_form": "9.435011764e-7", "residual": "1.656e-14"}'),
            (5, 8, 1, '{"n": 5, "digits": 8, "value": "-5.810926952e-8", '
             '"linear_form": "-5.810928608e-8", "residual": "1.656e-14"}'),
            (12, 8, 1, '{"n": 12, "digits": 8, "value": "-1.577509787e-14", '
             '"linear_form": "7.772103568e-16", "residual": "1.655e-14"}'),
        ],
    )
    def test_recorded_stdout(self, capsys, n, digits, exit_code, stdout):
        # the printed value is the partial sum to the stop index T, which
        # the term-by-term summation fixed; these lines are its output
        result = run(
            ["series", "--constant", "zeta4", "--n", str(n), "--digits", str(digits)]
        )
        assert capsys.readouterr().out == stdout + "\n"
        assert result.exit_code == exit_code


class TestAsymptotics:
    def test_smoke(self, capsys):
        result, lines = run_lines(
            capsys, ["asymptotics", "--family", "catalan", "--n", "10", "--digits", "30"]
        )
        record = json.loads(lines[0])
        assert result.status == "ok"
        assert "rate_u" in record and "rate_form" in record

    @pytest.mark.parametrize("family, n", [("catalan", 1000), ("zeta4", 600)])
    def test_needs_no_reference_constant(self, capsys, monkeypatch, family, n):
        # the rates come from the convergents, so the benchmark's commands
        # run with both reference constants out of reach
        from aperylike import analytic

        def unreachable(digits):
            raise AssertionError("asymptotics evaluated a reference constant")

        monkeypatch.setattr(analytic, "reference_catalan", unreachable)
        monkeypatch.setattr(analytic, "reference_zeta4", unreachable)
        argv = ["asymptotics", "--family", family, "--n", str(n), "--digits", "30"]
        result, lines = run_lines(capsys, argv)
        assert result.exit_code == 0
        assert set(json.loads(lines[0])) == {"family", "n", "digits", "rate_u", "rate_form"}


class TestErrorPaths:
    def test_unknown_command_is_usage_error(self, capsys):
        result = run(["frobnicate"])
        assert result.status == "usage_error" and result.exit_code == 2

    def test_bad_family_is_usage_error(self, capsys):
        result = run(["pair", "--family", "zeta5", "--n", "1"])
        assert result.status == "usage_error"

    def test_domain_error_is_usage_error(self, capsys):
        result = run(["cf", "--family", "catalan", "--n", "0"])
        assert result.status == "usage_error" and result.exit_code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["range", "--family", "catalan", "--n-max", "-3"],
            ["check", "--family", "zeta4", "--n-max", "-1", "--mode", "proved"],
            ["certify", "--family", "catalan", "--n-max", "0"],
            ["certify", "--family", "catalan", "--n-max", "-2"],
        ],
        ids=["range-3", "check-1", "certify0", "certify-2"],
    )
    def test_size_below_its_least_is_usage_error(self, capsys, argv):
        result, lines = run_lines(capsys, argv)
        assert result.status == "usage_error" and result.exit_code == 2
        assert lines == []

    def test_precision_error_exit_code(self, capsys):
        # digits out of the series' supported range -> usage error
        result = run(["series", "--constant", "zeta4", "--n", "0", "--digits", "11"])
        assert result.status == "usage_error"
        capsys.readouterr()
        # at n = 200000 the first candidate stop index lies past the cap,
        # a genuine precision failure: exit 3, nothing on stdout
        result = run(["series", "--constant", "zeta4", "--n", "200000", "--digits", "8"])
        captured = capsys.readouterr()
        assert result.status == "precision_error" and result.exit_code == 3
        assert captured.out == ""
        assert captured.err.startswith("precision error:")

    @pytest.mark.parametrize("argv", [["--help"], ["cf", "--help"], ["digits", "-h"]])
    def test_help_exits_zero_with_help_on_stdout(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "aperylike.cli", *argv],
            capture_output=True, text=True, env=ENV,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: aperylike") and proc.stderr == ""

    @pytest.mark.parametrize("argv", [["frobnicate"], ["cf", "--family", "zeta4"], []])
    def test_unknown_command_or_missing_option_still_exits_two(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "aperylike.cli", *argv],
            capture_output=True, text=True, env=ENV,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert "error:" in proc.stderr

    def test_exit_code_table(self):
        assert EXIT_CODES == {
            "ok": 0,
            "verification_failed": 1,
            "usage_error": 2,
            "precision_error": 3,
        }


class TestFailingRowMidStream:
    # a failing row neither stops the stream nor passes the rows after it;
    # only the status, set once the stream ends, records the failure

    def test_check(self, capsys, monkeypatch):
        from aperylike import sequences

        factors = sequences._clearing_factors
        monkeypatch.setattr(
            sequences,
            "_clearing_factors",
            lambda family, n, mode: (1, 1) if n == 3 else factors(family, n, mode),
        )
        result, lines = run_lines(
            capsys, ["check", "--family", "catalan", "--n-max", "5", "--mode", "proved"]
        )
        rows = [json.loads(line) for line in lines]
        assert [row["n"] for row in rows] == list(range(6))
        assert (rows[3]["pass_u"], rows[3]["witness_u"]) == (False, "")
        assert all(row["pass_u"] and row["pass_v"] for row in rows[:3] + rows[4:])
        assert result.status == "verification_failed" and result.exit_code == 1

    def test_certify(self, capsys, monkeypatch):
        from aperylike import certificate

        telescoping = certificate.verify_telescoping
        monkeypatch.setattr(
            certificate, "verify_telescoping", lambda n: n != 2 and telescoping(n)
        )
        result, lines = run_lines(capsys, ["certify", "--family", "catalan", "--n-max", "4"])
        rows = [json.loads(line) for line in lines]
        assert [row["n"] for row in rows] == [1, 2, 3, 4]
        assert [row["pass"] for row in rows] == [True, False, True, True]
        assert rows[1]["telescoping"] is False
        assert result.status == "verification_failed" and result.exit_code == 1


# a valid argv per subcommand that names exactly its required options
REQUIRED_ONLY = {
    "pair": "pair --family catalan --n 1",
    "range": "range --family catalan --n-max 2",
    "check": "check --family catalan --n-max 2 --mode proved",
    "decompose": "decompose --n 1",
    "certify": "certify --family catalan --n-max 1",
    "cf": "cf --family catalan --n 1",
    "digits": "digits --constant catalan --digits 5",
    "integral": "integral --n 1 --digits 5",
    "series": "series --constant zeta4 --n 1 --digits 5",
    "asymptotics": "asymptotics --family catalan --n 3 --digits 10",
}


class TestRequiredOptions:
    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_each_left_out_is_a_usage_error(self, capsys, name):
        argv = REQUIRED_ONLY[name].split()
        flags = argv[1::2]
        assert flags == [flag for flag, spec in COMMANDS[name][2] if spec.get("required")]
        assert run(argv).exit_code == 0
        capsys.readouterr()
        for flag in flags:
            at = argv.index(flag)
            result = run(argv[:at] + argv[at + 2:])
            captured = capsys.readouterr()
            assert result.status == "usage_error" and result.exit_code == 2, flag
            assert captured.out == ""
            assert captured.err.endswith(f"the following arguments are required: {flag}\n")


class TestDecompose:
    def test_table_and_quadruple(self, capsys):
        result, lines = run_lines(capsys, ["decompose", "--n", "1"])
        record = json.loads(lines[0])
        assert record["A"][0] == ["-3/4", "-3/4"]
        assert record["A"][1] == ["7/4", "-7/4"]
        assert record["Uprime"] == "14"
        assert record["V"] == "13"
        assert result.status == "ok"


    @pytest.mark.parametrize("n", [0, 1, 12])
    def test_zeta4_identity(self, capsys, n):
        from aperylike.hypergeom import zeta4_decomposition
        from aperylike.sequences import zeta4_pair

        result, lines = run_lines(capsys, ["decompose", "--family", "zeta4", "--n", str(n)])
        record = json.loads(lines[0])
        assert result.status == "ok" and result.exit_code == 0
        assert record["identity"] is True
        assert len(record["B"]) == 4 and all(len(row) == n + 1 for row in record["B"])
        assert [[Fraction(b) for b in row] for row in record["B"]] == [
            list(row) for row in zeta4_decomposition(n).B
        ]
        assert record["zeta2"] == record["zeta3"] == record["zeta5"] == "0"
        item = zeta4_pair(n)
        sign = Fraction((-1) ** (n + 1), 6)
        assert sign * Fraction(record["zeta4"]) == item.u
        assert sign * Fraction(record["rational"]) == -item.v

    def test_zeta4_n1_payload(self, capsys):
        _, lines = run_lines(capsys, ["decompose", "--family", "zeta4", "--n", "1"])
        record = json.loads(lines[0])
        assert record["B"] == [["4", "-4"], ["-12", "-12"], ["13", "-13"], ["0", "0"]]
        assert (record["zeta4"], record["rational"]) == ("72", "-78")

    def test_zeta4_failed_identity_exits_1(self, capsys, monkeypatch):
        from aperylike import hypergeom

        exact = hypergeom.zeta4_decomposition
        monkeypatch.setattr(
            hypergeom,
            "zeta4_decomposition",
            lambda n: exact(n)._replace(rational=exact(n).rational + 1),
        )
        result, lines = run_lines(capsys, ["decompose", "--family", "zeta4", "--n", "2"])
        assert json.loads(lines[0])["identity"] is False
        assert result.status == "verification_failed" and result.exit_code == 1

    def test_default_family_is_catalan(self, capsys):
        _, default = run_lines(capsys, ["decompose", "--n", "4"])
        _, catalan = run_lines(capsys, ["decompose", "--family", "catalan", "--n", "4"])
        assert default == catalan


class TestQuietFlag:
    def test_quiet_is_usage_error(self, capsys):
        result, lines = run_lines(capsys, ["--quiet", "pair", "--family", "catalan", "--n", "0"])
        assert result.status == "usage_error" and result.exit_code == 2
        assert lines == []


class TestDeterminism:
    def test_repeat_runs_identical(self, capsys):
        _, first = run_lines(capsys, ["digits", "--constant", "catalan", "--digits", "15"])
        _, second = run_lines(capsys, ["digits", "--constant", "catalan", "--digits", "15"])
        assert first == second


def _leaves(value, key=None):
    """(key, leaf) for every leaf of a JSON value; list items keep their key."""
    if isinstance(value, dict):
        for k, item in value.items():
            yield from _leaves(item, k)
    elif isinstance(value, list):
        for item in value:
            yield from _leaves(item, key)
    else:
        yield key, value


class TestSerialization:
    SIZE_KEYS = {"n", "digits", "n_used"}
    NAME_KEYS = {"family", "mode"}

    @pytest.mark.parametrize(
        "command",
        [
            "pair --family catalan --n 7",
            "pair --family zeta4 --n 9",
            "range --family catalan --n-max 6",
            "range --family zeta4 --n-max 6",
            "check --family catalan --n-max 6 --mode strong",
            "check --family zeta4 --n-max 6 --mode proved",
            "cf --family catalan --n 5",
            "cf --family zeta4 --n 5",
            "certify --family catalan --n-max 3",
            "decompose --n 4",
            "decompose --family zeta4 --n 4",
        ],
    )
    def test_json_leaves_are_strings_bools_or_sizes(self, capsys, command):
        # rationals and witnesses print as strings, so no exact value is
        # ever a JSON number; only the size fields are ints
        result, lines = run_lines(capsys, command.split())
        assert result.exit_code == 0 and lines
        for line in lines:
            for key, leaf in _leaves(json.loads(line)):
                if isinstance(leaf, bool):
                    continue
                if isinstance(leaf, int):
                    assert key in self.SIZE_KEYS, (command, key)
                    continue
                assert isinstance(leaf, str), (command, key, leaf)
                if key not in self.NAME_KEYS and leaf != "":
                    Fraction(leaf)

    @pytest.mark.parametrize(
        "command",
        [
            "pair --family catalan --n 7",
            "pair --family zeta4 --n 1",
            "range --family catalan --n-max 5",
            "range --family zeta4 --n-max 5",
            "check --family catalan --n-max 5 --mode strong",
            "check --family zeta4 --n-max 5 --mode proved",
        ],
    )
    def test_csv_is_the_json_record(self, capsys, command):
        _, json_lines = run_lines(capsys, command.split())
        _, csv_lines = run_lines(capsys, [*command.split(), "--format", "csv"])
        header, *rows = list(csv.reader(csv_lines))
        assert len(rows) == len(json_lines)
        for row, line in zip(rows, json_lines):
            record = json.loads(line)
            assert header == list(record)
            assert row == [str(value) for value in record.values()]


class TestRecordedOutput:
    # every stdout the benchmark digests, byte for byte
    @pytest.mark.parametrize("command", sorted(json.loads(DIGESTS.read_text())))
    def test_stdout_matches_the_recorded_digest(self, command):
        stdout = subprocess.run(
            [sys.executable, "-m", "aperylike.cli", *command.split()],
            capture_output=True, check=True,
            env=ENV,
        ).stdout
        recorded = json.loads(DIGESTS.read_text())[command]
        assert hashlib.sha256(stdout).hexdigest() == recorded
