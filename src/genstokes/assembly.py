"""Assembly of the discrete mixed weak form with tensor coefficient A(B).

The velocity block entry for test function phi_i e_a and trial phi_j e_b is

    K[(i,a),(j,b)] = int (D(phi_j e_b) A + A D(phi_j e_b)) : grad(phi_i e_a),

the divergence block G[(i,a), j] = -int q_j d_a phi_i, the load
F[(i,a)] = int f_a phi_i, and the pressure gauge weights m_j = int q_j.  The
coefficient A = mu1 I + mu2 B + mu3 B^{-1} is evaluated at quadrature points
(no interpolation of B onto finite element spaces).

The element matrix is linear in the six entries of the symmetric A at the
quadrature points, and on a Kuhn mesh every element has one of six shapes,
so each element matrix is one row of a GEMM against its shape's table
(``ElementGeometry.kuhn_tables``).  Assembly is one pass over fixed-size
chunks of elements: each chunk evaluates B once, takes its eigenvalues
(which give alpha and ||A||_inf), forms A, runs the six GEMMs for the 465
upper-triangle entries of its element matrices, mirrors them, and adds them
into the fixed CSR pattern of the space (``TaylorHoodSpace.pattern``) in
element order.  K is exactly symmetric, memory is linear in the mesh, and
``threads`` only computes chunks concurrently: the entries are bitwise
independent of the thread count.

Assembly keeps the entries as numpy arrays (``SaddleSystem.k_data`` and
``g_data``) and loads no scipy module: the scipy matrices ``K`` and ``G``
are formed over those arrays on first read, which is when a solve first
imports scipy.sparse.  The property suite behind ``verify`` takes u^t K u
from the entries (``SaddleSystem.energy``) and never forms K.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .constitutive import acal_samples, acal_values, mu_values
from .ellipticity import (EllipticityReport, PositivitySamples, lambda_endpoints,
                          positivity_report, positivity_samples)
from .errors import BCViolation, NotElliptic, SingularTensor
from .fem import MIRROR, SYM_PAIRS, BoxMesh, ElementGeometry, TaylorHoodSpace
from .fields import VectorField
from .tensors import eig_sym3_batch

__all__ = ["SaddleSystem", "assemble", "full_velocity_block", "korn_terms"]

# Bytes of mirrored element matrices (900 doubles per element) in one chunk.
# Measured on the mesh-8 solve-grid inputs, one BLAS thread: 1 MB against
# 4 MB took the traced peak of an assembly whose patterns were built from
# 23.9 to 11.1 MB, and mesh-16 assembly was no slower (2.06 against 2.20 s,
# the least of three runs).
_CHUNK_BYTES = 1 << 20
# Quadrature points in one chunk of a pass that forms no element matrices
# (error integration, the estimate audits).  Measured on the mesh-8
# anisotropic MMS case, one BLAS thread: 8192 points held the two passes'
# tracemalloc peaks to 3.5 and 9.2 MB (16384: 7.0 and 17.8 MB), and 2048
# made the error integration twice as slow (0.59 against 0.31 s), since
# every chunk pays a fixed cost per field evaluation.
_CHUNK_POINTS = 8192
_SYM_ROWS, _SYM_COLS = (np.array(ix) for ix in zip(*SYM_PAIRS))


@dataclass
class SaddleSystem:
    """Assembled sparse blocks of the constrained mixed problem.

    ``k_data`` and ``g_data`` are the entries of K, the (interior-dof)
    velocity block, and G, the divergence block with shape (n_interior,
    n_pressure), on the space's patterns ``"K"`` and ``"G"``; F is the load
    vector, m the pressure gauge weights.  ``alpha`` and ``anorm_inf`` are
    the extreme eigenvalues of the coefficient tensor sampled at the
    assembly quadrature points.
    """

    k_data: np.ndarray
    g_data: np.ndarray
    F: np.ndarray
    m: np.ndarray
    alpha: float
    anorm_inf: float
    alpha_report: EllipticityReport
    mesh: BoxMesh
    space: TaylorHoodSpace
    quad_n: int
    f_l2: float

    @cached_property
    def K(self):
        """The scipy CSR velocity block over ``k_data``, formed on first read."""
        return self.space.pattern("K").matrix(self.k_data)

    @cached_property
    def G(self):
        """The scipy CSR divergence block over ``g_data``, formed on first read."""
        return self.space.pattern("G").matrix(self.g_data)

    @property
    def n_interior(self) -> int:
        return self.F.size

    @property
    def n_pressure(self) -> int:
        return self.m.size

    def energy(self, u_int: np.ndarray) -> float:
        """u^t K u of interior coefficients, from ``k_data`` and K's pattern
        (forms no matrix)."""
        pattern = self.space.pattern("K")
        rows = np.repeat(np.arange(pattern.shape[0]), np.diff(pattern.indptr))
        return float(self.k_data @ (u_int[rows] * u_int[pattern.indices]))

    def expand_velocity(self, u_int: np.ndarray) -> np.ndarray:
        """Interior coefficients -> full vector with zero walls."""
        full = np.zeros(self.space.n_velocity)
        full[self.space.interior_idx] = u_int
        return full


def _chunks(nt: int, nq: int = 0) -> list:
    """Element slices of at most ``_CHUNK_BYTES`` of element matrices, each
    a whole number of Kuhn cells; given ``nq`` quadrature points per
    element, also of at most ``_CHUNK_POINTS`` points."""
    size = _CHUNK_BYTES // (900 * 8)
    if nq:
        size = min(size, _CHUNK_POINTS // nq)
    size = max(6, size // 6 * 6)
    return [slice(lo, min(lo + size, nt)) for lo in range(0, nt, size)]


def _in_order(fn, items, threads: int):
    """Yield fn(item) in item order, computing at most ``threads`` at once."""
    if threads <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = deque()
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) == threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


@dataclass
class _Chunk:
    samples: PositivitySamples
    k_slots: np.ndarray
    k_vals: Optional[np.ndarray]  # None unless A was formed
    f_slots: np.ndarray
    f_vals: np.ndarray
    f_sq: float  # int |f|^2 over the chunk
    singular: bool


def _velocity_pass(space: TaylorHoodSpace, geom: ElementGeometry, mu, b_field,
                   f: Optional[VectorField], full: bool, threads: int):
    """Stream the elements once: (K entries, F, report, ||A||_inf, ||f||_L2).

    ``full`` scatters into all velocity dofs instead of the interior ones.
    Raises NotSPD, then NotElliptic, then SingularTensor, each judged over
    all quadrature points.
    """
    tables = geom.kuhn_tables.velocity
    k_pat = space.pattern("K_full" if full else "K")
    f_pat = space.pattern("F_full" if full else "F")
    if f is None:
        f = VectorField.zero()
    nq = geom.wdet.shape[1]
    endpoints = lambda_endpoints(mu)

    def chunk(sl: slice) -> _Chunk:
        pts = geom.points[sl].reshape(-1, 3)
        bvals = b_field.eval(pts)
        mvals = mu_values(mu, pts)
        samples = positivity_samples(mvals, eig_sym3_batch(bvals), pts, endpoints)
        k_vals, singular = None, False
        if samples.g_min.min() > 0.0:
            try:
                a6 = acal_samples(mvals, bvals)[:, _SYM_ROWS, _SYM_COLS]
            except SingularTensor:
                singular = True
            else:
                # (shape, cell, q*6) @ (shape, q*6, 465), back to element order
                upper = np.matmul(a6.reshape(-1, 6, nq * 6).transpose(1, 0, 2), tables)
                k_vals = upper.transpose(1, 0, 2).reshape(-1, tables.shape[2])[:, MIRROR]
        wdet = geom.wdet[sl]
        fv = f.eval(pts).reshape(-1, nq, 3)
        f_vals = np.einsum("eq,eqa,qi->eia", wdet, fv, geom.n2_vals, optimize=True)
        return _Chunk(samples, k_pat.slots(sl), k_vals, f_pat.slots(sl),
                      f_vals.reshape(len(wdet), -1),
                      float(np.einsum("eq,eqa,eqa->", wdet, fv, fv)), singular)

    k_data, f_data = k_pat.new_data(), f_pat.new_data()
    blocks, f_sq, singular = [], 0.0, False
    for part in _in_order(chunk, _chunks(geom.wdet.shape[0]), threads):
        blocks.append(part.samples)
        if part.k_vals is not None:
            np.add.at(k_data, part.k_slots.ravel(), part.k_vals.ravel())
        np.add.at(f_data, part.f_slots.ravel(), part.f_vals.ravel())
        f_sq += part.f_sq
        singular |= part.singular
        del part  # let the next chunk reuse its memory

    pts = geom.flat_points
    report = positivity_report(mu, pts, blocks)
    if not report.alpha > 0.0:
        raise NotElliptic(
            f"coefficient not uniformly positive: alpha = {report.alpha:.6g} "
            f"at {tuple(map(float, report.minimizer_point))}",
            point=report.minimizer_point,
            alpha=report.alpha,
        )
    if singular:
        # name the first singular sample over all points, as one call would
        acal_values(mu, b_field, pts)
        raise SingularTensor("coefficient B is singular at a quadrature point")
    anorm = max(b.g_max for b in blocks)
    return (k_data[:k_pat.nnz], f_data[:f_pat.nnz], report, anorm,
            float(np.sqrt(f_sq)))


def assemble(
    mesh: BoxMesh,
    space: TaylorHoodSpace,
    mu,
    b_field,
    f: Optional[VectorField] = None,
    quad_n: int = 3,
    threads: int = 1,
) -> SaddleSystem:
    """Assemble the discrete saddle-point system.

    Raises NotElliptic when the sampled positivity constant of A(B) at the
    quadrature points is not strictly positive (NaN included), and
    InvalidDimensions when the mesh is not a Kuhn box mesh.
    """
    geom = space.geometry(quad_n)
    k_data, F, report, anorm, f_l2 = _velocity_pass(space, geom, mu, b_field,
                                                    f, False, threads)
    g_pat = space.pattern("G")
    g_data = g_pat.new_data()
    divergence = geom.kuhn_tables.divergence
    for sl in _chunks(mesh.n_tets):
        vals = np.tile(divergence, ((sl.stop - sl.start) // 6, 1))
        np.add.at(g_data, g_pat.slots(sl).ravel(), vals.ravel())
    mel = np.einsum("eq,qj->ej", geom.wdet, geom.p1_vals)
    m_vec = np.bincount(mesh.tets.ravel(), mel.ravel(), minlength=space.n_pressure)
    return SaddleSystem(
        k_data=k_data, g_data=g_data[:g_pat.nnz], F=F, m=m_vec,
        alpha=report.alpha, anorm_inf=anorm, alpha_report=report,
        mesh=mesh, space=space, quad_n=quad_n, f_l2=f_l2,
    )


def full_velocity_block(space: TaylorHoodSpace, mu, b_field,
                        f: Optional[VectorField] = None, quad_n: int = 3):
    """(K_full, F_full): the velocity block and load over all velocity dofs,
    walls included, by the same pass as :func:`assemble`."""
    k_data, F, *_ = _velocity_pass(space, space.geometry(quad_n), mu, b_field,
                                   f, True, 1)
    return space.pattern("K_full").matrix(k_data), F


def korn_terms(space: TaylorHoodSpace, u_full: np.ndarray, quad_n: int = 3):
    """Quadrature-exact (||D(v)||^2, ||grad v||^2, ||div v||^2).

    ``u_full`` is a full-length velocity coefficient vector; it must vanish
    on the Dirichlet mask.
    """
    u_full = np.asarray(u_full, dtype=float)
    if u_full.shape != (space.n_velocity,):
        raise BCViolation("coefficient vector has wrong length")
    if np.any(u_full[space.dirichlet_mask] != 0.0):
        raise BCViolation("coefficient vector nonzero on Dirichlet dofs")
    geom = space.geometry(quad_n)
    gv = geom.p2_grad(u_full.reshape(-1, 3)[space.tet_nodes])
    dv = 0.5 * (gv + np.swapaxes(gv, -1, -2))
    dd = float(np.einsum("eq,eqac,eqac->", geom.wdet, dv, dv))
    gg = float(np.einsum("eq,eqac,eqac->", geom.wdet, gv, gv))
    div = np.einsum("eqaa->eq", gv)
    div2 = float(np.einsum("eq,eq->", geom.wdet, div * div))
    return dd, gg, div2
