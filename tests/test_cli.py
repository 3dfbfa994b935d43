import concurrent.futures.process
import csv
import io
import json
import multiprocessing
import os
import subprocess
import sys
import time

import pytest

from binomedian import cli, critical, verify
from binomedian.critical import critical_poly
from binomedian.distribution import BinomialParams, cdf
from binomedian.rational import parse_rational
from binomedian.verify import CheckResult, VerificationReport
from fractions import Fraction
from helpers import isolate_root_table_rows, sign_at


def _exit_abruptly(task):
    os._exit(1)


# --threads runs at most one worker per available CPU, so with one CPU no pool starts
needs_pool = pytest.mark.skipif(
    verify._available_cpus() < 2, reason="a process pool needs 2 available CPUs"
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def run_python(*args, **env):
    """`python *args` in a fresh interpreter that imports binomedian from SRC."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC, **env},
    )


class TestMedian:
    def test_interval_case(self, capsys):
        code, out, err = run_cli(capsys, "median", "--n", "3", "--p", "1/2")
        assert code == 0
        assert out == '{"type":"interval","m1":"1/1","m2":"2/1"}\n'

    def test_unique_case(self, capsys):
        code, out, _ = run_cli(capsys, "median", "--n", "2", "--p", "1/2")
        assert code == 0
        assert json.loads(out) == {"type": "unique", "m": "1/1"}

    def test_malformed_p(self, capsys):
        code, out, err = run_cli(capsys, "median", "--n", "4", "--p", "0.5")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


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


class TestCertify:
    def test_upper_half(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--n", "2", "--k", "2")
        assert code == 0
        data = json.loads(out)
        status = data["status"]
        assert status["type"] == "irrational_upper_half"
        assert set(status) == {"type", "enclosure", "constant_coeff", "sign_at_half"}
        assert status["constant_coeff"] == "1"
        assert status["sign_at_half"] == "1"
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

    def test_rows_enclose_the_roots(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--n-max", "6", "--digits", "10", "--format", "json"
        )
        assert code == 0
        for row in json.loads(out):
            poly = critical_poly(row["n"], row["k"])
            if row["kind"] == "exact":
                assert (row["lo"], row["hi"]) == (None, None)
                assert sign_at(poly, parse_rational(row["value"])) == 0
                continue
            assert row["value"] is None
            lo, hi = parse_rational(row["lo"]), parse_rational(row["hi"])
            assert 0 < hi - lo <= Fraction(1, 10**15)
            assert sign_at(poly, lo) == 1 and sign_at(poly, hi) == -1
            assert row["decimal"].startswith("0.")

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "table", "--n-max", "4", "--digits", "12")
        _, second, _ = run_cli(capsys, "table", "--n-max", "4", "--digits", "12")
        assert first == second

    @pytest.mark.parametrize("digits", [1, 8, 30])
    def test_rows_match_per_k_isolate_root_oracle(self, digits):
        width = cli._width_for(digits)
        for n in range(1, 41):
            want = isolate_root_table_rows(n, width, digits)
            assert cli._table_rows_for_n((n, width, digits)) == want, n

    def test_makes_no_isolate_root_call(self, capsys, monkeypatch):
        def forbidden(*args):
            raise AssertionError("table called isolate_root")

        monkeypatch.setattr(cli, "isolate_root", forbidden)
        monkeypatch.setattr(critical, "isolate_root", forbidden)
        code, _, err = run_cli(capsys, "table", "--n-max", "5")
        assert (code, err) == (0, "")

    @needs_pool
    def test_process_pool_matches_serial_bytes(self, capsys):
        assert concurrent.futures.process.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor
        argv = ("table", "--n-max", "6", "--format", "json")
        code, pooled, _ = run_cli(capsys, *argv, "--threads", "2")
        _, serial, _ = run_cli(capsys, *argv)
        assert code == 0
        assert pooled == serial


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


def test_cli_import_leaves_numpy_unloaded():
    code = "import sys, binomedian.cli; print('numpy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout == "False\n"


# `dataclasses` would load the last four; the records are built without it
LAUNCH_UNLOADED = (
    "concurrent.futures.process", "multiprocessing", "hashlib",
    "dataclasses", "inspect", "ast", "dis", "tokenize",
)


def loaded_at_launch(*flags, modules=LAUNCH_UNLOADED):
    """Which of `modules` a fresh `binomedian` launch has loaded once its
    parser is built."""
    code = (
        "import sys, binomedian.cli; binomedian.cli.build_parser(); "
        f"print([m for m in {modules!r} if m in sys.modules])"
    )
    proc = run_python(*flags, "-c", code)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_launch_leaves_pool_and_hashlib_unloaded():
    assert loaded_at_launch() == "[]\n"


def test_cli_launch_without_site_leaves_typing_unloaded():
    # site's .pth hooks may load `typing` themselves; -S leaves only the launch
    assert loaded_at_launch("-S", modules=(*LAUNCH_UNLOADED, "typing")) == "[]\n"


class TestUsageErrors:
    # each range is checked by the library function that does the work
    @pytest.mark.parametrize(
        "argv,line",
        [
            (("median", "--n", "4", "--p", "5/3"), "p must lie in [0, 1], got 5/3"),
            (("median", "--n", "-1", "--p", "1/2"), "n must be a nonnegative integer, got -1"),
            (("pmf", "--n", "-1", "--k", "0", "--p", "1/2"), "n must be a nonnegative integer, got -1"),
            (("cdf", "--n", "-1", "--k", "0", "--p", "1/2"), "n must be a nonnegative integer, got -1"),
            (("critical", "--n", "2", "--k", "3"), "k must lie in [1, 2], got 3"),
            (("certify", "--n", "2", "--k", "3"), "k must lie in [1, 2], got 3"),
            (("critical", "--n", "0", "--k", "1"), "n must be positive"),
            (("certify", "--n", "0", "--k", "1"), "n must be positive"),
            (("verify", "--n-max", "0"), "n_max must be positive"),
            (("verify", "--n-max", "3", "--denom-max", "0"), "denom_max must be positive"),
        ],
        ids=[
            "median-p", "median-n", "pmf-n", "cdf-n", "critical-k", "certify-k",
            "critical-n", "certify-n", "verify-n-max", "verify-denom-max",
        ],
    )
    def test_out_of_range_is_the_library_line(self, capsys, argv, line):
        assert run_cli(capsys, *argv) == (2, "", f"error: {line}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("critical", "--n", "1000000000", "--k", "0"),
            ("certify", "--n", "1000000000", "--k", "1000000001"),
            ("median", "--n", "1000000000", "--p", "3/2"),
        ],
        ids=["critical-k", "certify-k", "median-p"],
    )
    def test_out_of_range_fails_before_the_work(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

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


class TestInProcessSequence:
    def test_errors_and_help_leave_later_requests_unchanged(self, capsys, monkeypatch):
        # the help text wraps at the terminal width, so both sides get the same one
        monkeypatch.setenv("COLUMNS", "80")
        requests = [
            ["median", "--n", "9", "--p", "2/5"],
            ["median", "--n", "three", "--p", "1/2"],
            ["critical", "--n", "9", "--k", "5"],
            ["critical", "--help"],
            ["verify", "--n-max", "3", "--denom-max", "20", "--seed", "4"],
            ["median", "--n", "9", "--p", "2/5"],
        ]
        for argv in requests:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            alone = run_python("-m", "binomedian", *argv, COLUMNS="80")
            assert (code, capsys.readouterr().out) == (alone.returncode, alone.stdout), argv


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    def __init__(self, max_workers, record):
        record.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


class TestThreadCap:
    # a real pool would fork all max_workers processes at the first submit
    @staticmethod
    def _serial_pools(monkeypatch, cpus):
        record = []
        monkeypatch.setattr(
            concurrent.futures.process,
            "ProcessPoolExecutor",
            lambda max_workers, **_: _SerialPool(max_workers, record),
        )
        monkeypatch.setattr(verify, "_available_cpus", lambda: cpus)
        return record

    @pytest.mark.parametrize("command", ["table", "verify"])
    @pytest.mark.parametrize("n_max,pools", [("2", [2]), ("1", [])], ids=["two_tasks", "one_task"])
    def test_workers_capped_at_task_count(self, capsys, monkeypatch, command, n_max, pools):
        record = self._serial_pools(monkeypatch, cpus=64)
        code, out, _ = run_cli(capsys, command, "--n-max", n_max, "--threads", "500")
        _, serial, _ = run_cli(capsys, command, "--n-max", n_max)
        assert code == 0
        assert out == serial
        assert record == pools

    @pytest.mark.parametrize("command", ["table", "verify"])
    @pytest.mark.parametrize("cpus,pools", [(3, [3]), (1, [])], ids=["three_cpus", "one_cpu"])
    def test_workers_capped_at_cpu_count(self, capsys, monkeypatch, command, cpus, pools):
        for threads in (str(10**9), "auto"):
            record = self._serial_pools(monkeypatch, cpus)
            code, out, _ = run_cli(capsys, command, "--n-max", "6", "--threads", threads)
            _, serial, _ = run_cli(capsys, command, "--n-max", "6")
            assert code == 0, threads
            assert out == serial, threads
            assert record == pools, threads


@needs_pool
def test_dead_worker_raises_worker_error_from_the_pool():
    with pytest.raises(verify.WorkerError) as excinfo:
        verify.ordered_map(_exit_abruptly, [1, 2], 2)
    assert isinstance(excinfo.value.__cause__, concurrent.futures.process.BrokenProcessPool)


@needs_pool
class TestStartMethods:
    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"),
        reason="this Python has no int/str digit limit",
    )
    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_workers_print_past_the_digit_limit(self, capsys, method):
        # a spawned worker starts at the default limit of 4300 digits
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method here")
        argv = ["table", "--n-max", "2", "--digits", "4400", "--format", "json"]
        code = (
            "import multiprocessing, sys\n"
            "from binomedian import cli\n"
            "if __name__ == '__main__':\n"
            f"    multiprocessing.set_start_method({method!r}, force=True)\n"
            f"    sys.exit(cli.main({argv + ['--threads', '2']!r}))\n"
        )
        _, serial, _ = run_cli(capsys, *argv, "--threads", "1")
        assert len(serial) == 44278
        pooled = run_python("-c", code)
        assert (pooled.returncode, pooled.stdout) == (0, serial)


@needs_pool
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
