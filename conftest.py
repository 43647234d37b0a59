"""Test-session setup shared by ``tests/`` and ``bench/``.

BLAS is pinned to one thread before numpy loads: multi-threaded OpenBLAS on a
small host runs the dense n = 128 doubling cells many times slower than one
thread.  The warning filter that names a package class is added here, not in
``pyproject.toml``, because pytest resolves such a filter by importing the
package (and so numpy) before any conftest runs.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def pytest_configure(config):
    config.addinivalue_line("filterwarnings",
                            "ignore::nmesolve.exceptions.ReciprocalPairingWarning")
