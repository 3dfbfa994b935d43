"""Tests of the benchmark's own parts: the oracle, the tracer and the
request generators.  Run with `python -m pytest perfbench` from the
repository root; binomedian is imported from ./src."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import METRIC_NAMES, Tracer  # noqa: E402

from binomedian import cli  # noqa: E402


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def checked(argv: list[str]) -> str:
    code, out = run_cli(argv)
    assert oracle.check(argv, code, out) is None
    return out


class TestOracleAccepts:
    @pytest.mark.parametrize(
        "argv",
        [
            ["critical", "--n", "2", "--k", "2", "--digits", "20"],
            ["critical", "--n", "3", "--k", "2"],
            ["critical", "--n", "7", "--k", "2", "--digits", "300"],
            ["median", "--n", "3", "--p", "1/2"],
            ["median", "--n", "10", "--p", "3/10"],
            ["median", "--n", "40", "--p", "0/1"],
            ["cdf", "--n", "30", "--k", "11", "--p", "37/101"],
            ["cdf", "--n", "30", "--k", "30", "--p", "37/101"],
            ["pmf", "--n", "30", "--k", "11", "--p", "37/101"],
            ["table", "--n-max", "8", "--digits", "12"],
            ["verify", "--n-max", "4", "--denom-max", "20", "--seed", "3"],
        ],
    )
    def test_true_output(self, argv):
        checked(argv)

    def test_nonzero_exit_fails(self):
        assert oracle.check(["median", "--n", "3", "--p", "1/2"], 2, "") == "exit code 2"


class TestOracleRejects:
    def test_mutated_bracket(self):
        argv = ["critical", "--n", "5", "--k", "4", "--digits", "20"]
        doc = json.loads(checked(argv))
        lo, hi = Fraction(doc["lo"]), Fraction(doc["hi"])
        shifted = dict(doc, lo=str(hi), hi=str(2 * hi - lo))
        assert "sign change" in oracle.check(argv, 0, json.dumps(shifted))
        widened = dict(doc, lo=str(lo - Fraction(1, 10**20)))
        assert "wider" in oracle.check(argv, 0, json.dumps(widened))
        assert oracle.check(argv, 0, json.dumps(dict(doc, decimal=doc["decimal"][:-1]))) is not None

    def test_bracket_out_of_order_in_table(self):
        argv = ["table", "--n-max", "4", "--digits", "10"]
        lines = checked(argv).splitlines()
        lines[8], lines[9] = lines[9], lines[8]
        assert oracle.check(argv, 0, "\n".join(lines) + "\n") is not None

    def test_wrong_exact_root(self):
        argv = ["critical", "--n", "3", "--k", "2"]
        assert "not a root" in oracle.check(argv, 0, '{"type":"exact","root":"1/3"}')

    def test_wrong_median(self):
        argv = ["median", "--n", "10", "--p", "3/10"]
        assert json.loads(checked(argv)) == {"type": "unique", "m": "3/1"}
        for wrong in ('{"type":"unique","m":"4/1"}', '{"type":"unique","m":"2/1"}',
                      '{"type":"interval","m1":"3/1","m2":"4/1"}'):
            assert oracle.check(argv, 0, wrong) is not None

    def test_wrong_interval(self):
        argv = ["median", "--n", "3", "--p", "1/2"]
        checked(argv)
        assert oracle.check(argv, 0, '{"type":"unique","m":"1/1"}') is not None

    def test_wrong_cdf_value(self):
        argv = ["cdf", "--n", "30", "--k", "11", "--p", "37/101"]
        doc = json.loads(checked(argv))
        num, den = doc["rational"].split("/")
        wrong = dict(doc, rational=f"{int(num) + 1}/{den}")
        assert "got" in oracle.check(argv, 0, json.dumps(wrong))
        assert oracle.check(argv, 0, json.dumps(dict(doc, decimal="0.5"))) is not None

    def test_failed_battery(self):
        argv = ["verify", "--n-max", "4", "--denom-max", "20", "--seed", "3"]
        doc = json.loads(checked(argv))
        doc["checks"] = doc["checks"][:5]
        assert "six" in oracle.check(argv, 0, json.dumps(doc))


def test_half_sign_matches_known_roots():
    # p(2, 2) = 1/sqrt(2) and p(3, 2) = 1/2
    assert oracle.half_sign(2, 1, Fraction(7071, 10000)) > 0 > oracle.half_sign(2, 1, Fraction(7072, 10000))
    assert oracle.half_sign(3, 1, Fraction(1, 2)) == 0


class TestTracer:
    def test_spans_reach_names_bound_by_import(self, tmp_path):
        tracer = Tracer()
        tracer.install()
        try:
            checked(["critical", "--n", "4", "--k", "3", "--digits", "10"])
            checked(["verify", "--n-max", "3", "--denom-max", "10", "--seed", "1"])
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics()
        assert set(metrics) == set(METRIC_NAMES)
        assert metrics["cli.main.calls"] == 2
        # one from `critical`, then monotonicity_check isolates every k for
        # n = 2 and 3 (n = 1 needs no comparison)
        assert metrics["critical.isolate_root.calls"] == 1 + 2 + 3
        assert metrics["critical.certify_range.calls"] == 3
        assert metrics["critical.isolate_root.sign_evals_per_call"] > 0
        assert metrics["critical.certify_range.sign_evals"] > 0
        assert metrics["polynomial.scaled_value.max_result_bits"] > 0
        assert metrics["cli.main.self_s"] >= 0
        tracer.dump(tmp_path / "spans")
        header = json.loads((tmp_path / "spans").read_bytes().split(b"\n", 1)[0])
        assert header["count"] == len(tracer.start)

    def test_uninstall_restores_bindings(self):
        from binomedian import critical, polynomial

        before = (cli.isolate_root, critical.isolate_root, polynomial.IntPolynomial.scaled_value)
        tracer = Tracer()
        tracer.install()
        assert cli.isolate_root is not before[0]
        tracer.uninstall()
        assert (cli.isolate_root, critical.isolate_root, polynomial.IntPolynomial.scaled_value) == before


class TestWorkloads:
    @pytest.mark.parametrize("name", workloads.WORKLOADS)
    def test_same_seed_same_requests(self, name):
        assert workloads.requests(name, 5) == workloads.requests(name, 5)

    @pytest.mark.parametrize("name", ["queries", "deep"])
    def test_seeded_request_lists(self, name):
        first, second = workloads.requests(name, 1), workloads.requests(name, 2)
        assert len(first) >= 100 and len(second) >= 100
        assert workloads.digest(first) != workloads.digest(second)

    def test_battery_takes_the_seed(self):
        assert workloads.requests("battery", 9)[0][-3] == "9"


class TestSpeedScaling:
    def test_kernel_is_fixed_work(self):
        assert speed.kernel() == speed.kernel()
        assert speed.sample() > 0

    def test_ticks_inside_a_request_are_left_out(self):
        requests = [
            {"t0": 10.0, "ms": 1000.0, "ticks": [[10.2, 0.010], [10.6, 0.012]]},
            {"t0": 11.0, "ms": 5.0, "ticks": [[11.3, 0.020]]},
            {"t0": 20.0, "ms": 5.0, "ticks": []},
        ]
        (own0, kernel0), (own1, kernel1), (own2, kernel2) = run.own_and_kernel(requests)
        # all three ticks started within 0.5 s of the first request
        assert own0 == pytest.approx(1000.0 - 22.0) and kernel0 == pytest.approx(0.012)
        # no tick inside the second; one near it before, one after
        assert own1 == 5.0 and kernel1 == pytest.approx(0.016)
        # no tick near: the run's median tick
        assert own2 == 5.0 and kernel2 == pytest.approx(0.012)
        assert run.speed_scaled(2.0, 2 * speed.NOMINAL_S) == pytest.approx(1.0)


class TestHarrellDavis:
    def test_one_value(self):
        assert run.harrell_davis([3.0], 0.9) == 3.0

    def test_symmetric_sample_median(self):
        assert run.harrell_davis([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == pytest.approx(3.0)

    def test_between_order_statistics(self):
        values = [float(v) for v in range(1, 121)]
        p90 = run.harrell_davis(values, 0.9)
        assert 107.0 < p90 < 110.0
        assert run.harrell_davis(values, 0.5) < p90
