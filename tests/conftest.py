"""Test-session setup.

BLAS is pinned to one thread, as the benchmark pins it: on a small shared
machine, waking OpenBLAS's worker threads after an idle spell made the
3x3 ``scipy.linalg.expm`` calls inside the timed region of acceptance
criterion 2 take ~1 s instead of ~0.05 s.  Runs the environment already
configures keep their setting.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees allocated while ``fn()`` runs."""
    import tracemalloc

    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
