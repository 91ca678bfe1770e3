"""Test settings: one BLAS thread, as in the benchmark.

The variables are read when numpy loads its BLAS, so they are set here,
before any test module imports numpy; a value already in the environment
is kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
