"""Shared test set-up.

BLAS is pinned to one thread before numpy loads.  With OpenBLAS's
default threading the first LAPACK call of a fresh process can stall for
most of a second while its thread pool starts, which is enough to break
the wall-time budgets of the acceptance criteria.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
