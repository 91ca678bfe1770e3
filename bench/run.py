"""Benchmark entry point.

    python3 bench/run.py --workload kernel-mult --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --write-manifest

Runs one workload in a child process of its own, with BLAS pinned to one
thread in that process's environment, and relays the child's output.  The
last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Run from the repository root; the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

import spec

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CHILD_TIMEOUT_S = 175
_ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in _ONE_THREAD})
    env["PYTHONHASHSEED"] = "0"
    # glibc's allocator moves its mmap and trim thresholds as a process runs,
    # which lets peak RSS depend on allocation history; fixed thresholds keep
    # the 100 MiB validation temporaries mapped and release freed heap promptly
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 << 20)
    env["MALLOC_TRIM_THRESHOLD_"] = str(4 << 20)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), BENCH_DIR])
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true", help="write BENCHMARK.json at the repository root")
    args = parser.parse_args(argv)
    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(spec.manifest(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not 0 <= args.seed < 2**63 or args.seconds < 1:
        parser.error("--seed must be a nonnegative 63-bit integer and --seconds positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "funcspace", "cli.py")):
        print(f"bench: no program to measure: {os.path.join(ROOT, 'src', 'funcspace')} is missing", file=sys.stderr)
        return 2
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), args.workload, str(args.seed), str(args.seconds), str(args.trace)]
    # a session of its own, so a timeout also ends the set-up probes the child starts
    child = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), start_new_session=True)
    try:
        return child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"bench: {args.workload} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
