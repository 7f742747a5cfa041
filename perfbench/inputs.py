"""Seeded inputs of the benchmark workloads.

The seed picks one of ``N_VARIANTS`` input variants (``seed % N_VARIANTS``),
so that every input the benchmark can produce has reference outputs
recorded in ``references.json``.  A variant changes phases and axis
directions only; node counts, box, parameters and flags never change.

Two tensor grids are generated, both written with
``genstokes.fields.write_grid_file``:

* ``shear_grid``: B = F F^T with F = R (I + g1 e1 e2^T)(I + g2 e2 e3^T) R^T,
  a unimodular composition of two simple shears with positive, spatially
  varying amounts and a seeded rotation R.  The spectrum is generic (three
  distinct eigenvalues at every node).
* ``uniaxial_grid``: B = l^2 n n^T + (1/l)(I - n n^T), a volume-preserving
  uniaxial stretch along a seeded oblique axis n, with eigenvalues
  (l^2, 1/l, 1/l): a double eigenvalue at every node and, because n is
  constant, at every trilinearly interpolated sample too.
"""

from __future__ import annotations

import math
import os

import numpy as np

N_VARIANTS = 16

SHEAR_NODES = 17
UNIAXIAL_NODES = 33
BOX = (1.0, 1.0, 1.0)

# closed-form forcing of the solve workload; the same for every seed
F_EXPR = "sin(pi*x)*cos(pi*y)*z; cos(pi*z)*x*y; exp(x)*sin(pi*z) - y"

# relative eigenvalue gap below which two eigenvalues count as repeated
REPEATED_RTOL = 1e-6


def variant(seed: int) -> int:
    return int(seed) % N_VARIANTS


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([variant(seed), salt])


def _axes(n: int):
    return [np.linspace(0.0, b, n) for b in BOX]


def _rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _sym6(b: np.ndarray) -> np.ndarray:
    """(..., 3, 3) -> (..., 6) in the grid file's a11 a22 a33 a12 a13 a23 order."""
    return np.stack([b[..., 0, 0], b[..., 1, 1], b[..., 2, 2],
                     b[..., 0, 1], b[..., 0, 2], b[..., 1, 2]], axis=-1)


def shear_tensors(seed: int) -> np.ndarray:
    """(n, n, n, 3, 3) nodal values of the generic unimodular shear field."""
    rng = _rng(seed, 1)
    ph = rng.uniform(0.0, 1.0, size=4)
    x, y, z = np.meshgrid(*_axes(SHEAR_NODES), indexing="ij")
    tau = 2.0 * math.pi
    g1 = 0.5 + 0.25 * np.sin(tau * (x + ph[0])) * np.cos(tau * (y + ph[1]))
    g2 = 0.4 + 0.2 * np.sin(tau * (z + ph[2])) * np.cos(tau * (x + ph[3]))
    f = np.zeros(x.shape + (3, 3))
    f[..., 0, 0] = f[..., 1, 1] = f[..., 2, 2] = 1.0
    f[..., 0, 1] = g1
    f[..., 1, 2] = g2
    f[..., 0, 2] = g1 * g2  # (I + g1 e1 e2^T)(I + g2 e2 e3^T)
    rot = _rotation(rng)
    f = rot @ f @ rot.T
    return f @ np.swapaxes(f, -1, -2)


def uniaxial_tensors(seed: int) -> np.ndarray:
    """(n, n, n, 3, 3) nodal values of the oblique uniaxial-stretch field."""
    rng = _rng(seed, 2)
    while True:
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        if np.min(np.abs(axis)) > 0.25:  # oblique: off every coordinate plane
            break
    ph = rng.uniform(0.0, 1.0, size=3)
    x, y, z = np.meshgrid(*_axes(UNIAXIAL_NODES), indexing="ij")
    tau = 2.0 * math.pi
    lam = 1.4 + 0.3 * (np.sin(tau * (x + ph[0])) * np.sin(tau * (y + ph[1]))
                       * np.sin(tau * (z + ph[2])))
    nn = np.outer(axis, axis)
    return (lam[..., None, None] ** 2 * nn
            + (1.0 / lam)[..., None, None] * (np.eye(3) - nn))


def write_inputs(workload: str, seed: int, workdir: str) -> dict:
    """Write the files a workload reads; returns {name: path}."""
    from genstokes.fields import write_grid_file

    paths = {}
    if workload == "solve-grid-8":
        paths["b_grid"] = os.path.join(workdir, "shear_b.txt")
        write_grid_file(paths["b_grid"], _sym6(shear_tensors(seed)), BOX)
    elif workload == "ellipticity-uniaxial":
        paths["b_grid"] = os.path.join(workdir, "uniaxial_b.txt")
        write_grid_file(paths["b_grid"], _sym6(uniaxial_tensors(seed)), BOX)
    return paths


def repeated_eig_share(mats: np.ndarray) -> float:
    """Share of symmetric 3x3 samples with a repeated eigenvalue.

    Counted with ``numpy.linalg.eigvalsh``: two neighbouring eigenvalues
    closer than ``REPEATED_RTOL`` times the largest magnitude.
    """
    mats = np.asarray(mats, dtype=float).reshape(-1, 3, 3)
    if mats.shape[0] == 0:
        return 0.0
    ev = np.linalg.eigvalsh(mats)
    gap = np.min(np.diff(ev, axis=1), axis=1)
    scale = np.max(np.abs(ev), axis=1)
    return float(np.mean(gap <= REPEATED_RTOL * scale))
