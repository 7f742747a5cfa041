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


def all_samples_minimizer(mu, b, pts):
    """alpha of A(B) over ``pts``, its sample's point and eigenvalue, and
    the sample's index, by the rule over every sample at once: the first
    sample whose least g lies within a relative 1e-12 of alpha, or for NaN
    and -inf the first attaining it."""
    import numpy as np

    from genstokes.constitutive import mu_values
    from genstokes.tensors import eig_sym3_batch

    eigs = eig_sym3_batch(b.eval(pts))
    m1, m2, m3 = mu_values(mu, pts)
    g = m1[:, None] + m2[:, None] * eigs + m3[:, None] / eigs
    rows, col = np.arange(len(pts)), np.argmin(g, axis=1)
    g_min, lam = g[rows, col], eigs[rows, col]
    alpha = g_min.min()
    i = (int(np.argmax(g_min <= alpha + 1e-12 * abs(alpha))) if np.isfinite(alpha)
         else int(np.argmin(g_min)))
    return alpha, tuple(pts[i]), lam[i], i
