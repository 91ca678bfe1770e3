"""Machine-speed calibration for the untraced runs.

The shared host this benchmark was built on changes speed by up to 70% over
minutes, and the CPU time of a process moves with its wall time, so the
change is not time spent descheduled.  A run therefore interleaves a fixed
calibration kernel with its operations, after every round, and scales its
timings by ``factor()``: the reference time of the kernel divided by its
time in this run.  Each round is scaled by the calibration run just
before and just after it, so that a change of speed within a run is
followed too.  The timings it reports are those of a host running at the
reference speed.

The kernel is the benchmark's own code and never calls ``funcspace``, so a
change to the program cannot move it.  Its three parts do the kinds of
work that dominate the three workloads: an interpreted complex recursion,
like ``kernel_eval``; small Hermitian eigensolves, like the PSD checks of
the Pick bisection; and a blocked three-way broadcast comparison, like the
triangle check of ``MetricSpace``.  No part tracks every workload alone:
the recursion drifts 30-50% more than the workloads do, and the comparison
follows metric-realize closely but kernel-mult poorly.  The blocks stay
small, so the kernel adds nothing to a workload's peak memory.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: Median seconds of each part on the reference machine (2 shared vCPUs,
#: Python 3.11, numpy 2.4, OpenBLAS on one thread).  They only fix the scale
#: of the reported timings: a comparison of two commits on one host does not
#: depend on them.
REFERENCE_S = {"python": 2.1e-3, "lapack": 2.0e-3, "memory": 1.6e-3}
#: Calibration time after a round, as a share of the round's own time.
SHARE = 0.12

_TRIANGLE_N = 100
_TRIANGLE_BLOCK = 5


def _recurse(depth: int, z: complex) -> complex:
    if depth == 0:
        return z
    return _recurse(depth - 1, z * (1 + 0.5j)) + complex(depth, -depth)


class Calibration:
    """Times the calibration parts and turns them into a speed factor."""

    def __init__(self):
        rng = np.random.default_rng(0)
        herm = rng.normal(size=(8, 10, 10)) + 1j * rng.normal(size=(8, 10, 10))
        self._herm = list(herm + herm.conj().transpose(0, 2, 1))
        d = rng.uniform(size=(_TRIANGLE_N, _TRIANGLE_N))
        self._dist = d + d.T
        # preallocated, so the part does not depend on the allocator's state,
        # which the workload's large arrays leave behind
        self._sum = np.empty((_TRIANGLE_BLOCK, _TRIANGLE_N, _TRIANGLE_N))
        self._bad = np.empty(self._sum.shape, dtype=bool)
        self.samples = {name: [] for name in REFERENCE_S}
        self.ends = [0]  # sample count at the end of each group of chunks
        self._parts = {"python": self._python, "lapack": self._lapack, "memory": self._memory}

    def _python(self) -> None:
        for _ in range(600):
            _recurse(12, 0.3 + 0.1j)

    def _lapack(self) -> None:
        for _ in range(16):
            for a in self._herm:
                np.linalg.eigvalsh(a)

    def _memory(self) -> None:
        d = self._dist
        for i in range(0, _TRIANGLE_N, _TRIANGLE_BLOCK):
            np.add(d[i : i + _TRIANGLE_BLOCK, None, :], d[None, :, :], out=self._sum)
            np.greater(d[i : i + _TRIANGLE_BLOCK, :, None], self._sum, out=self._bad)
            self._bad.any()

    def chunk(self) -> float:
        """Run every part once, record its time; return the seconds spent."""
        total = 0.0
        for name, part in self._parts.items():
            start = time.perf_counter()
            part()
            elapsed = time.perf_counter() - start
            self.samples[name].append(elapsed)
            total += elapsed
        return total

    def group(self, busy_s: float) -> None:
        """One group of chunks: ``SHARE`` of ``busy_s``, at least one chunk."""
        spent = self.chunk()
        while spent < SHARE * busy_s:
            spent += self.chunk()
        self.ends.append(len(self.samples["python"]))

    def reset(self) -> None:
        for times in self.samples.values():
            times.clear()
        self.ends = [0]

    def factor(self, first: int = 0, last: int | None = None) -> float:
        """Reference time over measured time, in groups ``first`` to ``last``
        (all groups by default): the geometric mean over the parts of
        reference / median.  Below 1 on a host slower than the reference; a
        timing times the factor is the timing at reference speed."""
        lo = self.ends[first]
        hi = self.ends[-1] if last is None else self.ends[last + 1]
        logs = [math.log(REFERENCE_S[name] / statistics.median(times[lo:hi])) for name, times in self.samples.items()]
        return math.exp(sum(logs) / len(logs))
