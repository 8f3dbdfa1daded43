"""Tier-1 runs at one BLAS thread unless the environment says otherwise.

pytest loads this file before it collects any test, so the variables are
set before numpy, and with it OpenBLAS, is first imported (by
``perfbench/tests`` through the tracer, or by ``tests/conftest.py``).
Small dense LAPACK calls run faster at one thread than at two on a
two-core host.  Tests that compare thread counts set the count of their
child process themselves.
"""

import os
import sys

assert "numpy" not in sys.modules, "numpy was imported before conftest.py"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
