"""Pytest settings for the whole repository.

BLAS runs single-threaded unless the caller sets the thread variables: the
suite's linear algebra is on matrices of at most a few hundred rows, where a
second BLAS thread costs more in hand-off than it computes (a 64x64 ``expm``
takes ~20 ms at 2 threads against ~1.4 ms at 1 on a 2-vCPU VM).  This file
is imported before any test module, so before numpy loads.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
