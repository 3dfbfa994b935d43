"""One workload run in a fresh interpreter; started by run.py, not by hand.

    python3 perfbench/child.py --src SRC --workload W --seed S --seconds T --trace 0|1
    python3 perfbench/child.py --src SRC --probe

The child imports binomedian from SRC (never from an installed copy) and
calls `binomedian.cli.main(argv)` in-process for each request, one at a
time, capturing the CLI's stdout.  It streams one JSON line per event on
its real stdout, so a parent that kills it at the wall cap still has every
finished request:

    {"ready": true}
    {"request": i, "t0": start, "ms": latency, "code": exit code, "stdout": text,
     "stderr": text, "rss_kb": peak RSS so far, "ticks": [[start, seconds], ...]}
    {"pass_s": seconds for one full pass over the request list}
    {"done": true, "rss_kb": ru_maxrss, "layers": {...} (traced runs only)}

Untraced runs repeat the request list while another pass is expected to
fit in --seconds, and always make at least one pass.  They also run the
reference kernel of speed.py from a SIGALRM handler every TICK_S seconds,
during the requests too, and report each of these ticks (its perf_counter
start and its duration) with the next request record, so that run.py can
take the host's speed out of each request's time.  Traced runs make
exactly one pass, so their counts repeat exactly.  With --probe the child
stops after `import binomedian.cli` and `build_parser()`: it sends the
ready line, then {"kernel_s": [...]}, the times of a few kernel runs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

_out = sys.stdout

#: Seconds between two reference-kernel ticks in untraced runs.
TICK_S = 0.1
#: Reference-kernel runs a --probe child times after its ready line.
PROBE_KERNEL_SAMPLES = 4


class SpeedTicker:
    """Times speed.kernel() every TICK_S seconds from a signal handler."""

    def __init__(self, kernel) -> None:
        self._kernel = kernel
        self._ticks: list[list[float]] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self._kernel()
        self._ticks.append([start, time.perf_counter() - start])

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def take(self) -> list[list[float]]:
        ticks, self._ticks = self._ticks, []
        return ticks


def _send(record: dict) -> None:
    _out.write(json.dumps(record, separators=(",", ":")) + "\n")
    _out.flush()


def _import_cli(src: Path):
    sys.path.insert(0, str(src))
    import binomedian.cli as cli

    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"binomedian was imported from {cli.__file__}, not from {src}")
    return cli


def _call(cli, argv: list[str]) -> tuple[float, float, int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed request, not a dead run
            code = -1
            err.write(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
    return start, elapsed, code, out.getvalue(), err.getvalue()[-2000:]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    cli = _import_cli(args.src)
    cli.build_parser()
    _send({"ready": True})
    if args.probe:
        import speed

        _send({"kernel_s": [speed.sample() for _ in range(PROBE_KERNEL_SAMPLES)]})
        return 0

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads

    argvs = workloads.requests(args.workload, args.seed)
    tracer = ticker = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        import speed

        ticker = SpeedTicker(speed.kernel)
        ticker.start()

    passes: list[float] = []
    started = time.perf_counter()
    while True:
        pass_s = 0.0
        for index, argv in enumerate(argvs):
            start, elapsed, code, stdout, stderr = _call(cli, argv)
            pass_s += elapsed
            _send(
                {
                    "request": index,
                    "t0": start,
                    "ms": elapsed * 1e3,
                    "code": code,
                    "stdout": stdout,
                    "stderr": stderr,
                    "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    "ticks": ticker.take() if ticker else [],
                }
            )
        passes.append(pass_s)
        _send({"pass_s": pass_s})
        spent = time.perf_counter() - started
        if tracer is not None or spent + statistics.median(passes) > args.seconds:
            break

    if ticker is not None:
        ticker.stop()
    done: dict = {"done": True, "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.uninstall()
        done["layers"] = tracer.layer_metrics()
        if args.spans is not None:
            tracer.dump(args.spans)
    _send(done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
