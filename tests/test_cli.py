import csv
import io
import json
import os
import sys

import pytest

from binomedian import cli, verify
from binomedian.distribution import BinomialParams, cdf
from binomedian.verify import CheckResult, VerificationReport
from fractions import Fraction


def _exit_abruptly(task):
    os._exit(1)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMedian:
    def test_interval_case(self, capsys):
        code, out, err = run_cli(capsys, "median", "--n", "3", "--p", "1/2")
        assert code == 0
        assert out == '{"type":"interval","m1":"1/1","m2":"2/1"}\n'

    def test_unique_case(self, capsys):
        code, out, _ = run_cli(capsys, "median", "--n", "2", "--p", "1/2")
        assert code == 0
        assert json.loads(out) == {"type": "unique", "m": "1/1"}

    def test_p_out_of_range(self, capsys):
        code, out, err = run_cli(capsys, "median", "--n", "4", "--p", "5/3")
        assert code == 2
        assert out == ""
        assert err == "error: p out of range\n"

    def test_malformed_p(self, capsys):
        code, out, err = run_cli(capsys, "median", "--n", "4", "--p", "0.5")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_negative_n(self, capsys):
        code, _, err = run_cli(capsys, "median", "--n", "-1", "--p", "1/2")
        assert code == 2
        assert err == "error: n must be >= 0\n"


class TestPointValues:
    def test_pmf(self, capsys):
        code, out, _ = run_cli(capsys, "pmf", "--n", "4", "--k", "2", "--p", "1/3")
        assert code == 0
        data = json.loads(out)
        assert data["rational"] == "8/27"
        assert data["decimal"].startswith("0.2962962962")

    def test_cdf(self, capsys):
        code, out, _ = run_cli(capsys, "cdf", "--n", "3", "--k", "1", "--p", "1/2")
        assert code == 0
        assert json.loads(out) == {"rational": "1/2", "decimal": "0.5"}

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"),
        reason="this Python has no int/str digit limit",
    )
    def test_result_beyond_int_digit_limit(self, capsys):
        saved = sys.get_int_max_str_digits()
        code, out, err = run_cli(
            capsys, "cdf", "--n", "2000", "--k", "1000", "--p", "1/199"
        )
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == saved
        value = cdf(1000, BinomialParams(2000, Fraction(1, 199)))
        sys.set_int_max_str_digits(0)
        try:
            expected = f"{value.numerator}/{value.denominator}"
        finally:
            sys.set_int_max_str_digits(saved)
        assert len(expected) > 2 * 4300
        assert json.loads(out)["rational"] == expected

    def test_out_of_support_k_is_total(self, capsys):
        code, out, _ = run_cli(capsys, "pmf", "--n", "4", "--k", "9", "--p", "1/3")
        assert code == 0
        assert json.loads(out)["rational"] == "0/1"


class TestCritical:
    def test_fifteen_digit_bracket(self, capsys):
        code, out, _ = run_cli(
            capsys, "critical", "--n", "2", "--k", "2", "--digits", "15"
        )
        assert code == 0
        data = json.loads(out)
        assert data["type"] == "bracket"
        assert data["decimal"] == "0.707106781186547"

    def test_exact_root(self, capsys):
        code, out, _ = run_cli(capsys, "critical", "--n", "3", "--k", "2")
        assert code == 0
        assert json.loads(out) == {"type": "exact", "root": "1/2"}

    def test_k_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "critical", "--n", "2", "--k", "3")
        assert code == 2
        assert err == "error: k out of range\n"


class TestCertify:
    def test_upper_half(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--n", "2", "--k", "2")
        assert code == 0
        data = json.loads(out)
        status = data["status"]
        assert status["type"] == "irrational_upper_half"
        assert set(status) == {"type", "enclosure", "constant_coeff"}
        assert status["constant_coeff"] == "1"
        lo = Fraction(status["enclosure"]["lo"])
        hi = Fraction(status["enclosure"]["hi"])
        assert Fraction(1, 2) < lo < hi < 1

    def test_symmetry_wrapper(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--n", "2", "--k", "1")
        assert code == 0
        data = json.loads(out)
        assert data["status"]["type"] == "irrational_by_symmetry"
        assert data["status"]["partner_k"] == 2


class TestTable:
    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n-max", "3", "--digits", "10")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "k", "kind", "value", "lo", "hi", "decimal"]
        assert len(rows) == 1 + 6
        assert rows[1] == ["1", "1", "exact", "1/2", "", "", "0.5"]
        bracket_row = rows[4]
        assert bracket_row[:3] == ["3", "1", "bracket"]
        assert bracket_row[6].startswith("0.2062994740")

    def test_json_matches_csv_content(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--n-max", "2", "--digits", "8", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)
        assert [(r["n"], r["k"], r["kind"]) for r in rows] == [
            (1, 1, "exact"),
            (2, 1, "bracket"),
            (2, 2, "bracket"),
        ]

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "table", "--n-max", "4", "--digits", "12")
        _, second, _ = run_cli(capsys, "table", "--n-max", "4", "--digits", "12")
        assert first == second


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--n-max", "3", "--denom-max", "50", "--seed", "1"
        )
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["n_range"] == [1, 3]
        assert "wall_time" not in report
        assert err.startswith("verify:")

    def test_repeat_runs_byte_identical(self, capsys):
        _, first, _ = run_cli(
            capsys, "verify", "--n-max", "2", "--denom-max", "30", "--seed", "5"
        )
        _, second, _ = run_cli(
            capsys, "verify", "--n-max", "2", "--denom-max", "30", "--seed", "5"
        )
        assert first == second

    def test_failure_exit_code(self, capsys, monkeypatch):
        failing = VerificationReport(
            n_range=(1, 1),
            denom_max=1,
            width=Fraction(1, 10),
            seed=0,
            checks=(CheckResult("certificates", 1, False, "n=1 synthetic"),),
            wall_time=0.0,
        )
        monkeypatch.setattr(cli, "verify_theorem", lambda *a, **kw: failing)
        code, out, _ = run_cli(capsys, "verify", "--n-max", "1")
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_bad_seed(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n-max", "2", "--seed", "-4")
        assert code == 2
        assert err == "error: seed must fit in 64 unsigned bits\n"


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["median", "--n", "3"])
        assert excinfo.value.code == 2

    def test_bad_thread_count(self, capsys):
        code, _, err = run_cli(
            capsys, "table", "--n-max", "2", "--threads", "zero"
        )
        assert code == 2
        assert err == "error: invalid thread count 'zero'\n"


class TestWorkerCrash:
    @pytest.mark.parametrize(
        "module,task_fn,command",
        [(cli, "_table_rows_for_n", "table"), (verify, "_checks_for_n", "verify")],
        ids=["table", "verify"],
    )
    def test_dead_worker_is_a_clean_exit_2(self, capsys, monkeypatch, module, task_fn, command):
        monkeypatch.setattr(module, task_fn, _exit_abruptly)
        code, out, err = run_cli(capsys, command, "--n-max", "4", "--threads", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
