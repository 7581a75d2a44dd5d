"""Pin BLAS and OpenMP to one thread before anything imports numpy.

A single-state forward costs several times more with threaded BLAS on a
small host, and the suite's small matrices gain nothing from threads.  These
are the variables the benchmark runner pins, set here on their own so the
suite does not depend on the benchmark package.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
