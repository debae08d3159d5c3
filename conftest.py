"""Pytest settings for the whole repository.

BLAS runs single-threaded unless the caller sets the thread variables: the
suite's linear algebra is on matrices of at most a few hundred rows, where a
second BLAS thread costs more in hand-off than it computes (a 64x64 ``expm``
takes ~20 ms at 2 threads against ~1.4 ms at 1 on a 2-vCPU VM).  This file
is imported before any test module, so before numpy loads.

Property tests run under the ``spincat`` hypothesis profile: examples are
derived from each test's name rather than drawn at random, with no deadline
and no example database, so every run checks the same cases.  Hypothesis
still caches parsed source constants and Unicode tables; they go to a
``spincat-hypothesis`` directory under the system temporary directory, so a
run writes no ``.hypothesis/`` into the checkout.
"""

import os
import tempfile

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # only the property tests need it
    pass
else:
    set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "spincat-hypothesis"))
    settings.register_profile("spincat", derandomize=True, deadline=None, database=None)
    settings.load_profile("spincat")
