"""Runs one workload in this process; started by run.py with BLAS pinned.

    worker.py WORKLOAD SEED SECONDS TRACE

Operations go through ``funcspace.cli.run`` in process, as a closed loop
with one caller: the next operation starts when the previous report has been
checked.  Each report goes to an in-memory buffer.  The timed phase runs a
number of whole pools of rounds fixed by the workload and SECONDS
(``spec.pools``), about SECONDS of work today, so every run attempts the same
operations and fails the kept faults the same number of times.  An untraced
run interleaves the calibration kernel of ``speed.py`` after every round and
reports its timings scaled to the reference speed of the host.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from funcspace import cli

import spec
import workloads
from speed import Calibration
from tracing import Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
#: Fresh interpreters timed for setup_s, spread across the timed phase.
SETUP_PROBES = 7
_PROBE = (
    "import sys, time; before = len(sys.modules); t = time.perf_counter(); import funcspace.cli; "
    "print(time.perf_counter() - t, len(sys.modules) - before)"
)


def probe_setup() -> tuple:
    """Wall time and module count of ``import funcspace.cli`` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True, check=True, timeout=60)
    seconds, modules = out.stdout.split()
    return float(seconds), int(modules)


def call_run(config) -> tuple:
    """One operation: exit code, report text and seconds inside ``cli.run``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        code = cli.run(config)
        elapsed = time.perf_counter() - start
    return code, buf.getvalue(), elapsed


def judge(op, code: int, text: str):
    """(reason, expected): reason is None for a correct report; expected tells
    whether a failure is the kept fault this operation is known to show."""
    try:
        reason = op.check(code, json.loads(text))
    except Exception as exc:  # a report the checker cannot read is a wrong report
        reason = f"unreadable report: {exc!r}"
    if reason is None:
        return None, False
    return reason, op.fault is not None and reason.startswith(op.fault)


class Run:
    """The timed phase of one run and what it observed."""

    def __init__(self, trace: bool):
        self.tracer = Tracer() if trace else None
        self.calibration = None if trace else Calibration()
        self.latencies = []
        self.failed = 0
        self.fault_counts = {}
        self.unexpected = []
        self.probes = []
        self.rounds = 0
        self.round_ends = [0]

    def execute(self, op, index: int) -> float:
        if self.tracer is None:
            code, text, elapsed = call_run(op.config)
        else:
            code, text, elapsed = self.tracer.run_op(index, lambda: call_run(op.config))
            self.tracer.report_bytes += len(text.encode())
        reason, expected = judge(op, code, text)
        if reason is not None:
            self.failed += 1
            if expected:
                self.fault_counts[op.fault] = self.fault_counts.get(op.fault, 0) + 1
            else:
                self.unexpected.append(f"{op.label}: {reason}")
        return elapsed

    def measure(self, pool: list, n_pools: int) -> None:
        # warm-up: every code path once, untimed
        warm_busy = sum(self.execute(op, -1 - i) for i, op in enumerate(pool[0]))
        self.latencies, self.failed, self.fault_counts, self.unexpected = [], 0, {}, []
        if self.tracer is not None:
            self.tracer.reset()
        else:
            # group 0 calibrates before the first round; round r is followed
            # by group r + 1
            for _ in range(5):
                self.calibration.chunk()
            self.calibration.reset()
            self.calibration.group(warm_busy)
        self.rounds = n_pools * len(pool)
        # fresh-interpreter probes at evenly spaced round boundaries, from
        # before the first round to after the last
        n_probes = SETUP_PROBES if self.tracer is None else 1
        at = [round(i * self.rounds / max(n_probes - 1, 1)) for i in range(n_probes)]
        for r in range(self.rounds):
            self.probes.extend(probe_setup() for _ in range(at.count(r)))
            busy = 0.0
            for op in pool[r % len(pool)]:
                self.latencies.append(self.execute(op, len(self.latencies)))
                busy += self.latencies[-1]
            self.round_ends.append(len(self.latencies))
            if self.calibration is not None:
                self.calibration.group(busy)
        self.probes.extend(probe_setup() for _ in range(at.count(self.rounds)))

    def metrics(self) -> dict:
        units = {name: unit for name, unit, *_ in spec.END_TO_END + spec.PER_LAYER}
        if self.tracer is not None:
            values = self.tracer.layer_metrics(self.probes[0][1])
        else:
            # timings at the reference speed of the host (speed.py); each
            # round is scaled by the calibration just before and after it
            lat_ms = []
            for r, (lo, hi) in enumerate(zip(self.round_ends, self.round_ends[1:])):
                factor = self.calibration.factor(r, r + 1)
                lat_ms.extend(1e3 * factor * t for t in self.latencies[lo:hi])
            values = {
                "setup_s": self.calibration.factor() * statistics.median(p[0] for p in self.probes),
                "ops_per_s": 1e3 * len(lat_ms) / sum(lat_ms),
                "latency_p50_ms": statistics.median(lat_ms),
                "latency_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def main(argv) -> int:
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    n_pools = spec.pools(workload, seconds)
    scratch = os.path.join(BENCH_DIR, "_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch)
    try:
        t0 = time.perf_counter()
        pool = workloads.build(workload, seed, workdir)
        prepare_s = time.perf_counter() - t0
        run = Run(trace)
        if run.tracer is not None:
            run.tracer.install()
        run.measure(pool, n_pools)
        metrics = run.metrics()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(run.latencies)
    result = {"correct": not run.unexpected, "attempted": attempted, "failed": run.failed, "metrics": metrics}
    details = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": run.rounds,
        "ops_per_round": len(pool[0]),
        "pool_rounds": len(pool),
        "pools": n_pools,
        "prepare_s": prepare_s,
        "busy_s": sum(run.latencies),
        "setup_probes_s": [p[0] for p in run.probes],
        "speed_factor": None if run.calibration is None else run.calibration.factor(),
        "calibration_median_s": None if run.calibration is None else {
            name: statistics.median(times) for name, times in run.calibration.samples.items()
        },
        "unscaled": None if run.calibration is None else {
            "setup_s": statistics.median(p[0] for p in run.probes),
            "ops_per_s": attempted / sum(run.latencies),
            "latency_p50_ms": 1e3 * statistics.median(run.latencies),
            "latency_p90_ms": 1e3 * statistics.quantiles(run.latencies, n=10)[8],
        },
        "kept_faults": run.fault_counts,
        "unexpected_failures": run.unexpected[:20],
        "result": result,
    }
    results = os.path.join(BENCH_DIR, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{workload}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w") as fh:
        json.dump(details, fh, indent=1)
    if run.tracer is not None:
        with open(stem + "-spans.json", "w") as fh:
            json.dump(run.tracer.dump(), fh)

    for reason in run.unexpected[:20]:
        print(f"UNEXPECTED {reason}", file=sys.stderr)
    print(f"{workload} seed={seed}: {attempted} operations in {run.rounds} rounds, {run.failed} failed {run.fault_counts}")
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:14.6g} {m['unit']}")
    if run.calibration is not None:
        unscaled = ", ".join(f"{name} {value:.6g}" for name, value in details["unscaled"].items())
        print(f"  speed factor {details['speed_factor']:.4f}; unscaled: {unscaled}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
