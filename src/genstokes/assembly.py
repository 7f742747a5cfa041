"""Assembly of the discrete mixed weak form with tensor coefficient A(B).

The velocity block entry for test function phi_i e_a and trial phi_j e_b is

    K[(i,a),(j,b)] = int (D(phi_j e_b) A + A D(phi_j e_b)) : grad(phi_i e_a),

the divergence block G[(i,a), j] = -int q_j d_a phi_i, the load
F[(i,a)] = int f_a phi_i, and the pressure gauge row m_j = int q_j.  The
coefficient A = mu1 I + mu2 B + mu3 B^{-1} is evaluated at quadrature points
(no interpolation of B onto finite element spaces).

Element contributions may be computed in parallel chunks; the reduction
into the global sparse matrix concatenates chunk results in element order,
so assembled entries are identical for any thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sparse

from .constitutive import acal_values
from .ellipticity import EllipticityReport, alpha_field
from .errors import BCViolation, NotElliptic
from .fem import BoxMesh, ElementGeometry, TaylorHoodSpace
from .fields import VectorField
from .tensors import eig_sym3_batch

__all__ = ["SaddleSystem", "assemble", "korn_terms"]


@dataclass
class SaddleSystem:
    """Assembled sparse blocks of the constrained mixed problem.

    K is the (interior-dof) velocity block, G the divergence block with
    shape (n_interior, n_pressure), F the load vector, m the pressure gauge
    row.  ``alpha`` and ``anorm_inf`` are the extreme eigenvalues of the
    coefficient tensor sampled at the assembly quadrature points.
    """

    K: sparse.csr_matrix
    G: sparse.csr_matrix
    F: np.ndarray
    m: np.ndarray
    alpha: float
    anorm_inf: float
    alpha_report: EllipticityReport
    mesh: BoxMesh
    space: TaylorHoodSpace
    quad_n: int
    f_l2: float
    K_full: sparse.csr_matrix = None
    F_full: np.ndarray = None

    @property
    def n_interior(self) -> int:
        return self.K.shape[0]

    @property
    def n_pressure(self) -> int:
        return self.G.shape[1]

    def kkt(self) -> sparse.csc_matrix:
        """Full symmetric saddle matrix [[K, G, 0], [G^t, 0, m], [0, m^t, 0]]."""
        m_col = sparse.csc_matrix(self.m.reshape(-1, 1))
        zero = sparse.csc_matrix((self.n_interior, 1))
        return sparse.bmat(
            [
                [self.K, self.G, zero],
                [self.G.T, None, m_col],
                [zero.T, m_col.T, None],
            ],
            format="csc",
        )

    def rhs(self) -> np.ndarray:
        return np.concatenate([self.F, np.zeros(self.n_pressure + 1)])

    def expand_velocity(self, u_int: np.ndarray) -> np.ndarray:
        """Interior coefficients -> full vector with zero walls."""
        full = np.zeros(self.space.n_velocity)
        full[self.space.interior_idx] = u_int
        return full


def _element_blocks(geom: ElementGeometry, avals: np.ndarray, sl: slice):
    """Element velocity matrices for a contiguous element slice."""
    g = geom.grads[sl]            # (e, q, 10, 3)
    wdet = geom.wdet[sl]          # (e, q)
    a = avals[sl]                 # (e, q, 3, 3)
    wa = wdet[..., None, None] * a
    s1 = np.einsum("eqjm,eqml,eqil->eij", g, wa, g, optimize=True)
    dot = np.einsum("eqjl,eqil->eqij", g, g, optimize=True)
    m3 = np.einsum("eqij,eqab->eijab", dot, wa, optimize=True)
    p = np.einsum("eqbl,eqil->eqib", a, g, optimize=True)
    t2 = np.einsum("eq,eqja,eqib->eijab", wdet, g, p, optimize=True)
    t4 = np.einsum("eq,eqja,eqib->eijab", wdet, p, g, optimize=True)
    eye = np.eye(3)
    kel = 0.5 * (s1[:, :, :, None, None] * eye + m3 + t2 + t4)
    # (e, i, j, a, b) -> (e, (i,a), (j,b))
    ne = kel.shape[0]
    return kel.transpose(0, 1, 3, 2, 4).reshape(ne, 30, 30)


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
    quadrature points is not strictly positive (NaN included).
    """
    geom = space.geometry(quad_n)
    pts = geom.flat_points
    report = alpha_field(mu, b_field, pts)
    if not report.alpha > 0.0:
        raise NotElliptic(
            f"coefficient not uniformly positive: alpha = {report.alpha:.6g} "
            f"at {report.minimizer_point}",
            point=report.minimizer_point,
            alpha=report.alpha,
        )
    nt, nq = geom.wdet.shape
    avals = acal_values(mu, b_field, pts).reshape(nt, nq, 3, 3)
    anorm = float(eig_sym3_batch(avals)[..., 2].max())

    if threads <= 1 or nt < 2:
        kel = _element_blocks(geom, avals, slice(0, nt))
    else:
        nchunk = min(threads * 4, nt)
        bounds = np.linspace(0, nt, nchunk + 1, dtype=int)
        slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda s: _element_blocks(geom, avals, s), slices))
        kel = np.concatenate(parts, axis=0)

    # divergence, load, gauge
    bel = -np.einsum("eq,qj,eqia->eiaj", geom.wdet, geom.p1_vals, geom.grads,
                     optimize=True)
    if f is None:
        f = VectorField.zero()
    fv = f.eval(pts).reshape(nt, nq, 3)
    fel = np.einsum("eq,eqa,qi->eia", geom.wdet, fv, geom.n2_vals, optimize=True)
    f_l2 = float(np.sqrt(np.einsum("eq,eqa,eqa->", geom.wdet, fv, fv)))
    mel = np.einsum("eq,qj->ej", geom.wdet, geom.p1_vals)

    # scatter
    vel_dofs = (3 * space.tet_nodes[:, :, None] + np.arange(3)).reshape(nt, 30)
    rows = np.repeat(vel_dofs, 30, axis=1).ravel()
    cols = np.tile(vel_dofs, (1, 30)).ravel()
    n_vel = space.n_velocity
    K_full = sparse.coo_matrix(
        (kel.ravel(), (rows, cols)), shape=(n_vel, n_vel)
    ).tocsr()
    # the element formula is symmetric; (K + K^t)/2 removes the remaining
    # floating-point asymmetry of the two transposed summation orders
    K_full = ((K_full + K_full.T) * 0.5).tocsr()

    p_dofs = mesh.tets  # (nt, 4)
    rows_g = np.repeat(vel_dofs, 4, axis=1).ravel()
    cols_g = np.tile(p_dofs, (1, 30)).ravel()
    G_full = sparse.coo_matrix(
        (bel.reshape(nt, 30, 4).ravel(), (rows_g, cols_g)),
        shape=(n_vel, space.n_pressure),
    ).tocsr()

    F_full = np.zeros(n_vel)
    np.add.at(F_full, vel_dofs.ravel(), fel.reshape(nt, 30).ravel())
    m_vec = np.zeros(space.n_pressure)
    np.add.at(m_vec, p_dofs.ravel(), mel.ravel())

    interior = space.interior_idx
    K = K_full[interior][:, interior].tocsr()
    G = G_full[interior].tocsr()
    F = F_full[interior]

    return SaddleSystem(
        K=K, G=G, F=F, m=m_vec,
        alpha=report.alpha, anorm_inf=anorm, alpha_report=report,
        mesh=mesh, space=space, quad_n=quad_n, f_l2=f_l2,
        K_full=K_full, F_full=F_full,
    )


def discrete_gradients(geom: ElementGeometry, space: TaylorHoodSpace,
                       u_full: np.ndarray) -> np.ndarray:
    """Velocity gradient (ne, nq, a, c) = d_c v_a of a discrete field."""
    uloc = u_full.reshape(-1, 3)[space.tet_nodes]  # (ne, 10, 3)
    return np.einsum("eia,eqic->eqac", uloc, geom.grads, optimize=True)


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
    gv = discrete_gradients(geom, space, u_full)
    dv = 0.5 * (gv + np.swapaxes(gv, -1, -2))
    dd = float(np.einsum("eq,eqac,eqac->", geom.wdet, dv, dv))
    gg = float(np.einsum("eq,eqac,eqac->", geom.wdet, gv, gv))
    div = np.einsum("eqaa->eq", gv)
    div2 = float(np.einsum("eq,eq->", geom.wdet, div * div))
    return dd, gg, div2
