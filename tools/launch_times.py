"""Fresh-launch times of two checkouts, alternating, with and without bytecode caches.

    python3 tools/launch_times.py PARENT CHANGE [--launches N] > launch_times.json

PARENT and CHANGE are the roots of two checkouts.  Each target is launched N
times per checkout, the two checkouts taking turns and the first side
alternating, in two modes:

- `no_cache`: every `__pycache__` under the checkout's `src/` and
  `perfbench/` is deleted first and the launches run with
  PYTHONDONTWRITEBYTECODE=1, as the benchmark runs a fresh tree, so each
  launch compiles the package modules it imports;
- `cached`: `src/` is compiled with compileall first, so no launch compiles.

The targets are `perfbench/child.py --probe` (the benchmark's set-up probe,
timed up to its ready line as perfbench/run.py times it) and one
`python -m binomedian <command>` per command, timed to exit.  The reference
kernel of perfbench/speed.py is timed just before each launch, and each time
t is also given at nominal speed, t * speed.NOMINAL_S / kernel seconds.  At
the end `src/` and `perfbench/` hold no bytecode caches, as in a fresh tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import speed  # noqa: E402

KERNEL_SAMPLES = 3

COMMANDS = {
    "median": ["median", "--n", "1000", "--p", "37/101"],
    "cdf": ["cdf", "--n", "1000", "--k", "370", "--p", "37/101"],
    "pmf": ["pmf", "--n", "1000", "--k", "370", "--p", "37/101"],
    "critical": ["critical", "--n", "100", "--k", "60"],
    "certify": ["certify", "--n", "100", "--k", "60"],
    "table": ["table", "--n-max", "20"],
    "verify": ["verify", "--n-max", "28", "--denom-max", "200", "--seed", "7"],
}


def launch(root: Path, target: str, env: dict) -> float:
    """Seconds for one fresh launch of `target` in the checkout at `root`."""
    src = root / "src"
    if target == "probe":
        argv = [sys.executable, str(root / "perfbench" / "child.py"), "--src", str(src), "--probe"]
    else:
        argv = [sys.executable, "-m", "binomedian", *COMMANDS[target]]
    env = {**env, "PYTHONPATH": str(src)}
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
    )
    if target == "probe":
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate()
        if not ready.startswith('{"ready"'):
            raise RuntimeError(f"probe in {root} sent no ready line")
    else:
        proc.communicate()
        elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{target} in {root} exited {proc.returncode}")
    return elapsed


def drop_caches(root: Path) -> None:
    for part in ("src", "perfbench"):
        for cache in list((root / part).rglob("__pycache__")):
            shutil.rmtree(cache)


def prepare(root: Path, mode: str) -> dict:
    """Put `root/src` in `mode` and return the environment its launches get."""
    env = dict(os.environ)
    env.pop("PYTHONPYCACHEPREFIX", None)
    drop_caches(root)
    if mode == "no_cache":
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src")], check=True)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def summary(samples: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": statistics.median(samples), "q1": q1, "q3": q3}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--launches", type=int, default=30)
    args = parser.parse_args()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    results: dict = {}
    for mode in ("no_cache", "cached"):
        envs = {side: prepare(root, mode) for side, root in sides.items()}
        for target in ("probe", *COMMANDS):
            raw: dict[str, list[float]] = {side: [] for side in sides}
            nominal: dict[str, list[float]] = {side: [] for side in sides}
            for index in range(args.launches):
                order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
                for side in order:
                    kernel = statistics.median(speed.sample() for _ in range(KERNEL_SAMPLES))
                    seconds = launch(sides[side], target, envs[side])
                    raw[side].append(seconds)
                    nominal[side].append(seconds * speed.NOMINAL_S / kernel)
            row = {side: {"raw_s": summary(raw[side]), "nominal_s": summary(nominal[side])} for side in sides}
            before, after = (row[side]["nominal_s"]["median"] for side in sides)
            row["nominal_median_change_pct"] = round(100 * (after / before - 1), 1)
            results.setdefault(mode, {})[target] = row
            print(f"{mode:8} {target:8} {before * 1e3:7.1f} -> {after * 1e3:7.1f} ms nominal", file=sys.stderr)
    for root in sides.values():
        drop_caches(root)

    json.dump(
        {
            "command": "python3 tools/launch_times.py PARENT CHANGE --launches " + str(args.launches),
            "host": f"{os.cpu_count()} CPUs, {platform.machine()}, CPython {platform.python_version()}",
            "launches_per_side": args.launches,
            "argv": COMMANDS,
            "results": results,
        },
        sys.stdout,
        indent=1,
    )
    print()


if __name__ == "__main__":
    main()
