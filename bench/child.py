"""One workload in a fresh interpreter: set up, warm up, then run the closed loop.

``bench/run.py`` starts this script with the repository's ``src`` on
``PYTHONPATH``; it prints one JSON object on its last stdout line.

  --mode setup   import tisim, build the workload's inputs, report setup_s
  --mode loop    also warm up and run whole cycles of ops for --seconds
  --spans PATH   trace the loop and write its spans to PATH (.npz)
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TAIL_GRID = (50.0, 75.0, 90.0, 99.0, 99.9)
MAX_REPORTED_FAILURES = 5


def tail_percentile(wanted: float, n: int) -> float:
    """``wanted``, or if fewer than ten of ``n`` samples lie beyond it, the
    highest grid percentile that has ten beyond it."""
    fits = [p for p in TAIL_GRID if n * (1.0 - p / 100.0) >= 10.0 and p <= wanted]
    return fits[-1] if fits else TAIL_GRID[0]


class Loop:
    """Runs ops one at a time (a closed loop with one client) and counts failures."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.trials = 0

    def run(self, op, index: int) -> float:
        if self.tracer is not None:
            self.tracer.op = index
        self.attempted += 1
        start = time.perf_counter()
        try:
            op.run()
        except (Exception, SystemExit) as err:  # an op that raises is a failed op, not a crash
            self.failed += 1
            if self.failed <= MAX_REPORTED_FAILURES:
                message = "".join(traceback.format_exception_only(err)).strip()
                print(f"op failed: {op.name}: {message}", file=sys.stderr)
        return time.perf_counter() - start

    def timed(self, cycle, seconds: float) -> float:
        """Whole cycles until ``seconds`` have passed; returns the loop time."""
        start = time.perf_counter()
        index = 0
        while True:
            for op in cycle:
                self.latencies.append(self.run(op, index))
                self.trials += op.trials
                index += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                return elapsed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "loop"), required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    # numpy is imported (at the top) before the clock starts: its import time
    # (shared libraries, BLAS threads) belongs to the environment, varies most
    # with the machine's load, and no change to tisim can move it
    t0 = time.perf_counter()
    import tisim

    src = (ROOT / "src").resolve()
    if src not in Path(tisim.__file__).resolve().parents:
        print(f"tisim imported from {tisim.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    result: dict = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
    loop = Loop(tracer)
    for op in workload.warmup:
        loop.run(op, -1)
    if tracer is not None:
        tracer.install()
    loop_s = loop.timed(workload.cycle, args.seconds)
    if tracer is not None:
        tracer.uninstall()

    lat = np.array(loop.latencies)
    tail = tail_percentile(workload.tail_percentile, lat.size)
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update(
        attempted=loop.attempted,
        failed=loop.failed,
        ops=int(lat.size),
        cycles=int(lat.size // len(workload.cycle)),
        loop_s=loop_s,
        ops_per_s=lat.size / loop_s,
        op_p50_ms=float(np.percentile(lat, 50.0)) * 1e3,
        op_tail_ms=float(np.percentile(lat, tail)) * 1e3,
        tail_percentile=tail,
        trials=loop.trials,
        trials_per_s=loop.trials / float(lat.sum()),
        peak_rss_mib=max(self_rss, children_rss) / 1024.0,
        python=sys.version.split()[0],
        numpy=np.__version__,
        cycle_ops=[op.name for op in workload.cycle],
        latencies_s=loop.latencies,
    )
    if tracer is not None:
        result["layers"] = tracer.per_name()
        result["counts"] = dict(tracer.counts)
        tracer.save(args.spans, [op.name for op in workload.cycle])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
