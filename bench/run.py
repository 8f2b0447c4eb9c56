"""gaugenorm benchmark: one command for the four workloads.

    python3 bench/run.py --workload small-batch --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --self-check

Run from the root of a checkout. Each workload runs in its own fresh
interpreter with BLAS and OpenMP pinned to one thread. With ``--trace 0`` the
last line of stdout is a JSON object with the end-to-end metrics; with
``--trace 1`` the same run records spans and reports the per-layer metrics
instead. The line before it is a JSON detail record: latency per call kind,
rounds, and the faults behind failed operations. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("small-batch", "large-n", "unit-ball", "lp-quadrature")
SETUP_PROBES = 5  # before the workload, and as many again after it
DEADLINE_S = 170.0
THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}


def _worker(*args) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), *map(str, args)]


def _env() -> dict:
    return {**os.environ, **THREADS}


def setup_seconds(workload: str, seed: int, probes: int, warm_up: bool) -> list[float]:
    """Wall times from process start to the workload's specs being built.

    A warm-up probe is discarded, so byte-compiling the sources on a fresh
    checkout is not counted.
    """
    times = []
    for probe in range(probes + warm_up):
        start = time.perf_counter()
        proc = subprocess.Popen(_worker("setup", workload, seed), stdout=subprocess.PIPE, env=_env())
        watchdog = threading.Timer(60.0, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.close()
            proc.wait()
        finally:
            watchdog.cancel()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe for {workload} failed (exit {proc.returncode})")
        if probe or not warm_up:
            times.append(elapsed)
    return times


def run_worker(workload, seed, seconds, trace, timeout, max_ops=None) -> list[str]:
    args = ["run", workload, seed, seconds, int(trace)]
    if max_ops is not None:
        args.append(max_ops)
    done = subprocess.run(_worker(*args), capture_output=True, text=True, env=_env(), timeout=timeout)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload} worker exited with {done.returncode}")
    return done.stdout.strip().splitlines()


def self_check() -> int:
    """A handful of operations per workload, every output checked, traced too."""
    status = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            lines = run_worker(workload, 1, 0, trace, DEADLINE_S, max_ops=16)
            detail = json.loads(lines[-2])["detail"]
            result = json.loads(lines[-1])
            ok = result["correct"]
            status |= not ok
            print(
                f"{workload:14s} trace={int(trace)} attempted={result['attempted']:3d} "
                f"failed={result['failed']} correct={ok} faults={sorted(detail['faults'])}"
            )
            if detail["unexpected_failures"]:
                print("  unexpected:", detail["unexpected_failures"])
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run a few checked operations of every workload and exit")
    args = parser.parse_args()

    if not (ROOT / "src" / "gaugenorm" / "__init__.py").is_file():
        print(f"no gaugenorm sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")

    # Set-up probes run on both sides of the workload, so their median spans
    # the whole run rather than one moment of a machine shared with others.
    begin = time.perf_counter()
    setup = [] if args.trace else setup_seconds(args.workload, args.seed, SETUP_PROBES, True)
    remaining = DEADLINE_S - (time.perf_counter() - begin)
    try:
        lines = run_worker(args.workload, args.seed, args.seconds, args.trace, remaining)
    except subprocess.TimeoutExpired:
        print(f"{args.workload} did not finish within {DEADLINE_S} s", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if not args.trace:
        setup += setup_seconds(args.workload, args.seed, SETUP_PROBES, False)
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            **result["metrics"],
        }
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        sys.exit(1)
