"""End-to-end and per-layer benchmark for the binomedian CLI.

    python3 perfbench/run.py --workload battery|table|queries|deep|all \
        --seed N --seconds T --trace 0|1

Run from the root of a checkout; the program is imported from ./src.
Each workload run is a fresh child process (perfbench/child.py) that calls
`binomedian.cli.main(argv)` in-process for a seeded request list, one
request at a time (a closed loop with one client, `--threads 1`).  The
child is killed at a hard wall cap; requests it did not finish count as
failed.  Every output is checked afterwards by perfbench/oracle.py, untimed.

The host's speed drifts by up to 1.9x over seconds to minutes, so every
timed figure is scaled by a reference kernel timed next to it (speed.py):
the child runs the kernel every 0.1 s while it works, and run.py runs it
around every set-up launch.  A time t measured while the kernel took k
seconds is reported as t * speed.NOMINAL_S / k.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the workload once
untraced and once under perfbench/tracer.py, and prints the per-layer
metrics plus the tracing overhead.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The full record,
including the digest of the generated argv list, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD = HERE / "child.py"

#: A run must end well inside 180 s, whatever the program does.
RUN_DEADLINE_S = 165.0
#: Set-up launches timed before the workload child, and again after it.
SETUP_LAUNCHES_EACH_SIDE = 8
#: Reference-kernel samples taken just before each set-up launch.
SETUP_KERNEL_SAMPLES = 4
#: Time kept back from the workload child's cap for the launches after it.
SETUP_RESERVE_S = 10.0
PROBE_CAP_S = 20.0
#: Kernel ticks that started this close to a request, in seconds, give the
#: host's speed for it.
SPEED_WINDOW_S = 0.5
#: Midpoint-rule steps per order statistic in harrell_davis().
HD_STEPS = 64

PER_LAYER_NAMES = tracer.METRIC_NAMES + ("cli.stdout_bytes", "trace.overhead_s")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _child_cmd(*extra: str) -> list[str]:
    return [sys.executable, str(CHILD), "--src", str(SRC), *extra]


def probe_setup(launches: int, deadline: float) -> list[tuple[float, float]]:
    """(seconds, kernel seconds) for fresh interpreters to import
    binomedian.cli and build its parser.  Each launch is timed up to the
    child's ready line, so interpreter teardown is not counted.  The
    reference kernel is timed just before it, here, and just after the ready
    line, in the child."""
    times = []
    for _ in range(launches):
        cap = min(PROBE_CAP_S, deadline - time.perf_counter())
        if cap <= 0:
            break
        kernel = [speed.sample() for _ in range(SETUP_KERNEL_SAMPLES)]
        start = time.perf_counter()
        proc = subprocess.Popen(
            _child_cmd("--probe"), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        timer = threading.Timer(cap, proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            out, err = proc.communicate()
        finally:
            timer.cancel()
        if proc.returncode != 0 or not ready.startswith('{"ready"'):
            raise BenchError(f"set-up probe failed or hit its time cap: {err.strip()[-500:]}")
        kernel += json.loads(out)["kernel_s"]
        times.append((elapsed, statistics.median(kernel)))
    return times


def speed_scaled(seconds: float, kernel_s: float) -> float:
    """A time measured while the kernel took kernel_s, at nominal speed."""
    return seconds * speed.NOMINAL_S / kernel_s


def own_and_kernel(requests: list[dict]) -> list[tuple[float, float]]:
    """For each request record: its time in ms without the kernel ticks
    that ran inside it, and the median kernel seconds of the ticks near it."""
    ticks = sorted(tick for record in requests for tick in record["ticks"])
    starts = [start for start, _ in ticks]
    fallback = statistics.median(d for _, d in ticks) if ticks else speed.NOMINAL_S
    out = []
    for record in requests:
        t0 = record["t0"]
        t1 = t0 + record["ms"] / 1e3
        inside = ticks[bisect.bisect_left(starts, t0) : bisect.bisect_right(starts, t1)]
        lo = bisect.bisect_left(starts, t0 - SPEED_WINDOW_S)
        near = ticks[lo : bisect.bisect_right(starts, t1 + SPEED_WINDOW_S)]
        own = record["ms"] - 1e3 * sum(d for _, d in inside)
        out.append((own, statistics.median(d for _, d in near) if near else fallback))
    return out


def run_child(workload: str, seed: int, seconds: float, trace: bool, cap_s: float) -> dict:
    """One workload child: its records, and its lifetime if the cap cut it."""
    extra = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        OUT.mkdir(exist_ok=True)
        extra += ["--trace", "1", "--spans", str(OUT / f"{workload}-seed{seed}.spans")]
    start = time.perf_counter()
    proc = subprocess.Popen(
        _child_cmd(*extra), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    cut_after_s = None
    try:
        out, err = proc.communicate(timeout=max(cap_s, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        cut_after_s = time.perf_counter() - start
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if cut_after_s is None:
                raise BenchError(f"workload child wrote a bad record: {line[:200]!r}") from None
            break  # the kill cut this record mid-write
    if not records or "ready" not in records[0]:
        raise BenchError(f"workload child failed to start: {err.strip()[-500:]}")
    if cut_after_s is None and not records[-1].get("done"):
        raise BenchError(f"workload child died: {err.strip()[-500:]}")
    requests = [r for r in records if "request" in r]
    return {
        "requests": requests,
        "passes": [r["pass_s"] for r in records if "pass_s" in r],
        "rss_kb": max([r["rss_kb"] for r in records if "rss_kb" in r], default=0),
        "layers": records[-1].get("layers", {}),
        "cut_after_s": cut_after_s,
    }


def harrell_davis(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile, q in (0, 1): the mean of
    all order statistics, weighted by a Beta((n+1)q, (n+1)(1-q)) density.

    Over a seeded request list the order statistic next to a quantile
    changes from seed to seed; the weighted mean moves far less (over five
    queries seeds: p50 spread 0.045 against 0.10, p90 0.040 against 0.13).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = []
    for i in range(n):
        # the density's mass on [i/n, (i+1)/n], by the midpoint rule
        points = ((i + (j + 0.5) / HD_STEPS) / n for j in range(HD_STEPS))
        log_density = (log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t) for t in points)
        weights.append(sum(math.exp(d) for d in log_density))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def judge(argvs: list[list[str]], child: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons): oracle mismatches, nonzero exits and
    requests the wall cap cut off all count as failed."""
    reasons = []
    for record in child["requests"]:
        argv = argvs[record["request"]]
        bad = oracle.check(argv, record["code"], record["stdout"])
        if bad is not None:
            reasons.append(f"{' '.join(argv)}: {bad}")
    attempted, failed = len(child["requests"]), len(reasons)
    if child["cut_after_s"] is not None:
        missing = len(argvs) - (attempted - len(child["passes"]) * len(argvs))
        attempted, failed = attempted + missing, failed + missing
        reasons.append(f"{missing} requests cut off by the wall cap")
    return attempted, failed, reasons


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    argvs = workloads.requests(workload, seed)
    probe_setup(1, deadline)  # untimed: writes the bytecode caches
    setup = probe_setup(SETUP_LAUNCHES_EACH_SIDE, deadline)
    child = run_child(workload, seed, seconds, False, deadline - SETUP_RESERVE_S - time.perf_counter())
    setup += probe_setup(SETUP_LAUNCHES_EACH_SIDE, deadline)
    attempted, failed, reasons = judge(argvs, child)
    repeats: dict[int, list[float]] = {}
    for record, (own_ms, kernel_s) in zip(child["requests"], own_and_kernel(child["requests"])):
        repeats.setdefault(record["request"], []).append(speed_scaled(own_ms, kernel_s))
    if child["cut_after_s"] is not None:
        # the request in flight ran at least until the kill
        in_flight = len(child["requests"]) % len(argvs)
        repeats.setdefault(in_flight, []).append(
            child["cut_after_s"] * 1e3 - sum(r["ms"] for r in child["requests"])
        )
    latencies = [statistics.median(samples) for samples in repeats.values()]
    metrics = {
        "setup_s": statistics.median(speed_scaled(t, k) for t, k in setup),
        "wall_s": sum(latencies) / 1e3,
        "req_p50_ms": harrell_davis(latencies, 0.5),
        "req_p90_ms": harrell_davis(latencies, 0.9),
        "peak_rss_mb": child["rss_kb"] / 1024,
    }
    return {
        "workload": workload,
        "seed": seed,
        "trace": 0,
        "argv_digest": workloads.digest(argvs),
        "requests_per_pass": len(argvs),
        "passes": len(child["passes"]),
        "latency_samples": len(latencies),
        "setup_launches_s": [t for t, _ in setup],
        "setup_kernel_s": [k for _, k in setup],
        "tick_kernel_s": statistics.median([d for r in child["requests"] for _, d in r["ticks"]] or [0]),
        "timed_requests": len(child["requests"]),
        "raw_ms": [[r["request"], r["ms"]] for r in child["requests"]],
        "repeats_ms": repeats,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": reasons[:20],
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }


def per_layer(workload: str, seed: int) -> dict:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    argvs = workloads.requests(workload, seed)
    plain = run_child(workload, seed, 0, False, 0.4 * (deadline - time.perf_counter()))
    traced = run_child(workload, seed, 0, True, deadline - time.perf_counter())
    attempted, failed, reasons = 0, 0, []
    for child in (plain, traced):
        a, f, r = judge(argvs, child)
        attempted, failed, reasons = attempted + a, failed + f, reasons + r
    # a cut traced child reports no layers; its failures already show
    values = {name: 0 for name in PER_LAYER_NAMES}
    values.update(traced["layers"])
    values["cli.stdout_bytes"] = sum(len(r["stdout"].encode()) for r in traced["requests"])
    if plain["passes"] and traced["passes"]:
        # the plain child's passes also hold its kernel ticks; leave them out
        plain_pass_ms = sum(own for own, _ in own_and_kernel(plain["requests"][: len(argvs)]))
        values["trace.overhead_s"] = traced["passes"][0] - plain_pass_ms / 1e3
    values = {name: values[name] for name in PER_LAYER_NAMES}
    return {
        "workload": workload,
        "seed": seed,
        "trace": 1,
        "argv_digest": workloads.digest(argvs),
        "requests_per_pass": len(argvs),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": reasons[:20],
        "metrics": {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()},
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def _report(result: dict) -> None:
    print(
        f"workload={result['workload']} seed={result['seed']} trace={result['trace']} "
        f"argv_sha256={result['argv_digest']} requests/pass={result['requests_per_pass']}"
        + (f" passes={result['passes']} latency_samples={result['latency_samples']}" if "passes" in result else "")
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'failed_frac':<48} {result['failed_frac']:>14.6g} ({result['failed']}/{result['attempted']})")
    for reason in result["failures"]:
        print(f"  FAILED {reason[:300]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "binomedian" / "cli.py").is_file():
        print(f"error: no binomedian sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            if args.trace:
                result = per_layer(name, args.seed)
            else:
                result = end_to_end(name, args.seed, args.seconds)
            OUT.mkdir(exist_ok=True)
            (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))
            _report(result)
            results.append(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics},
            separators=(",", ":"),
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
