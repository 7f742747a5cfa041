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
upper-triangle entries of its element matrices, mirrors them, and integrates
f against the basis.  Of the positivity samples a chunk keeps one value per
element, the least g over its points; the report evaluates the element
that attains alpha once more to name the minimizing point.  K and G are
added into the fixed patterns of the space (``TaylorHoodSpace.pattern``: K
in 3x3 node blocks, G as its transpose in 1x3 node blocks) and F by
interior dof number, chunk by chunk in element order.  Each chunk's
quadrature points are formed from the per-shape tables when it is computed
(``ElementGeometry.quadrature``).  K is exactly symmetric, memory is linear
in the mesh, and ``threads`` only computes chunks concurrently: the entries
are bitwise independent of the thread count.

Assembly keeps the entries as numpy arrays (``SaddleSystem.k_data`` and
``g_data``) and loads no scipy module: the scipy matrices ``K`` and ``G``
are formed over those arrays on first read (K a BSR matrix with 3x3
blocks, G the CSC transpose of the CSR matrix G^T), which is when a solve
first imports scipy.sparse.  The property suite behind ``verify`` takes
u^t K u from the entries (``SaddleSystem.energy``) and never forms K.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .constitutive import acal_samples, mu_values
from .ellipticity import (EllipticityReport, PositivitySamples, lambda_endpoints,
                          positivity_report, positivity_samples)
from .errors import BCViolation, NotElliptic, SingularTensor
from .fem import MIRROR, SYM_PAIRS, BoxMesh, TaylorHoodSpace
from .fields import VectorField
from .tensors import eig_sym3_batch

__all__ = ["SaddleSystem", "assemble", "korn_terms"]

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
    velocity block, and of G^T, the transpose of the divergence block G
    with shape (n_interior, n_pressure), on the space's patterns ``"K"``
    and ``"G"``; F is the load vector, m the pressure gauge weights.
    ``alpha`` and ``anorm_inf`` are the extreme eigenvalues of the
    coefficient tensor sampled at the assembly quadrature points.
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
        """The scipy BSR velocity block (3x3 node blocks) over ``k_data``,
        formed on first read."""
        return self.space.pattern("K").matrix(self.k_data)

    @cached_property
    def G(self):
        """The scipy divergence block over ``g_data``, formed on first read:
        the CSC transpose of the CSR matrix G^T, which shares its arrays."""
        return self.space.pattern("G").matrix(self.g_data).T

    @property
    def n_interior(self) -> int:
        return self.F.size

    @property
    def n_pressure(self) -> int:
        return self.m.size

    def energy(self, u_int: np.ndarray) -> float:
        """u^t K u of interior coefficients, from ``k_data`` and K's node
        pattern (forms no matrix)."""
        pattern = self.space.pattern("K")
        rows = np.repeat(np.arange(pattern.indptr.size - 1), np.diff(pattern.indptr))
        u = u_int.reshape(-1, 3)
        ku = np.einsum("kab,kb->ka", self.k_data.reshape(-1, 3, 3), u[pattern.indices])
        return float(np.vdot(u[rows], ku))

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
    f_dofs: np.ndarray
    f_vals: np.ndarray
    f_sq: float  # int |f|^2 over the chunk
    g_slots: np.ndarray
    refused: Optional[tuple]  # a SingularTensor's (test, first, value, count)


def assemble(
    mesh: BoxMesh,
    space: TaylorHoodSpace,
    mu,
    b_field,
    f: Optional[VectorField] = None,
    quad_n: int = 3,
    threads: int = 1,
) -> SaddleSystem:
    """Assemble the discrete saddle-point system in one pass over element chunks.

    Raises NotSPD, then NotElliptic when the sampled positivity constant of
    A(B) at the quadrature points is not strictly positive (NaN included),
    then SingularTensor, each judged over all quadrature points as one call
    over them would judge it.
    """
    geom = space.geometry(quad_n)
    velocity, divergence = geom.kuhn_tables
    k_pat, g_pat = space.pattern("K"), space.pattern("G")
    n_interior = k_pat.shape[0]
    if f is None:
        f = VectorField.zero()
    nq = geom.nq
    endpoints = lambda_endpoints(mu)

    def chunk(sl: slice) -> _Chunk:
        pts, wdet = geom.quadrature(sl)
        bvals = b_field.eval(pts)
        mvals = mu_values(mu, pts)
        samples = positivity_samples(mvals, eig_sym3_batch(bvals).reshape(-1, nq, 3),
                                     pts, endpoints)
        k_vals, refused = None, None
        if samples.g_min.min() > 0.0:
            try:
                a6 = acal_samples(mvals, bvals)[:, _SYM_ROWS, _SYM_COLS]
            except SingularTensor as err:
                refused = (err.test, sl.start * nq + err.first, err.value, err.count)
            else:
                # (shape, cell, q*6) @ (shape, q*6, 465), back to element order
                upper = np.matmul(a6.reshape(-1, 6, nq * 6).transpose(1, 0, 2), velocity)
                k_vals = upper.transpose(1, 0, 2).reshape(-1, upper.shape[2])[:, MIRROR]
        fv = f.eval(pts).reshape(-1, nq, 3)
        f_vals = np.einsum("eq,eqa,qi->eia", wdet, fv, geom.n2_vals, optimize=True)
        # interior dof 3r + a of node r's component a; wall entries go past the end
        dofs = 3 * space.tet_interior[sl][:, :, None] + np.arange(3)
        return _Chunk(samples, k_pat.slots(sl), k_vals,
                      np.where(dofs >= 0, dofs, n_interior), f_vals,
                      float(np.einsum("eq,eqa,eqa->", wdet, fv, fv)),
                      g_pat.slots(sl), refused)

    k_data, g_data, f_data = k_pat.new_data(), g_pat.new_data(), np.zeros(n_interior + 1)
    blocks, f_sq, refused = [], 0.0, []
    for part in _in_order(chunk, _chunks(mesh.n_tets), threads):
        blocks.append(part.samples)
        if part.k_vals is not None:
            np.add.at(k_data, part.k_slots.ravel(), part.k_vals.ravel())
        np.add.at(f_data, part.f_dofs.ravel(), part.f_vals.ravel())
        np.add.at(g_data, part.g_slots.ravel(),
                  np.tile(divergence.ravel(), len(part.g_slots) // 6))
        f_sq += part.f_sq
        if part.refused:
            refused.append(part.refused)
        del part  # let the next chunk reuse its memory

    def element(e):  # the points, mu and eigenvalues of B of element e
        pts = geom.quadrature(slice(e, e + 1))[0]
        return pts, mu_values(mu, pts), eig_sym3_batch(b_field.eval(pts))

    report = positivity_report(mu, element, blocks)
    if not report.alpha > 0.0:
        raise NotElliptic(
            f"coefficient not uniformly positive: alpha = {report.alpha:.6g} "
            f"at {tuple(map(float, report.minimizer_point))}",
            point=report.minimizer_point,
            alpha=report.alpha,
        )
    if refused:  # one call tests every determinant first, then the residuals
        test, first, value, _ = min(refused)
        count = sum(r[3] for r in refused if r[0] == test)
        raise SingularTensor.samples(test, count, first, value)
    mel = np.einsum("sq,qj->sj", geom.shape_wdet, geom.p1_vals)
    m_vec = np.bincount(mesh.tets.ravel(), np.tile(mel, (mesh.n_tets // 6, 1)).ravel(),
                        minlength=space.n_pressure)
    return SaddleSystem(
        k_data=k_data[:k_pat.nnz], g_data=g_data[:g_pat.nnz], F=f_data[:n_interior],
        m=m_vec, alpha=report.alpha, anorm_inf=max(b.g_max for b in blocks),
        alpha_report=report, mesh=mesh, space=space, quad_n=quad_n,
        f_l2=float(np.sqrt(f_sq)),
    )


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
    wdet = geom.weights(slice(None))
    gv = geom.p2_grad(u_full.reshape(-1, 3)[space.tet_nodes])
    dv = 0.5 * (gv + np.swapaxes(gv, -1, -2))
    dd = float(np.einsum("eq,eqac,eqac->", wdet, dv, dv))
    gg = float(np.einsum("eq,eqac,eqac->", wdet, gv, gv))
    div = np.einsum("eqaa->eq", gv)
    div2 = float(np.einsum("eq,eq->", wdet, div * div))
    return dd, gg, div2
