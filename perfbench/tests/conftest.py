"""Pin BLAS and the import path before any test imports numpy."""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # a plugin may have imported numpy already

from perfbench import env  # noqa: E402

env.pin()
