"""Pointwise algebra of symmetric 3x3 tensors.

Componentwise arithmetic on small immutable values: principal invariants,
the inverse adj(B) / det B, the symmetrization operator S(M), the product
operator S(M)A + A S(M), and the paper's analytic first and second
derivatives of the inverse of a unimodular tensor (``verify`` checks them;
the coefficient derivatives are ``constitutive``'s jets).  Eigenvalues come
from LAPACK (``np.linalg.eigvalsh``), NaN for a matrix with a non-finite
entry.

Each stacked formula has one vectorized kernel over (..., 3, 3) arrays
(``eig_sym3_batch``, ``ch_inverse_batch``, ``d_inverse_batch``,
``d2_inverse_batch``); the scalar entry points on :class:`SymTensor3` values
are wrappers around them.  The cofactors and the determinant have one
expansion, ``_adjugate``, which ``constitutive`` also runs on Taylor jets.

All functions are pure; values are frozen dataclasses, so concurrent use is
safe.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import NotUnimodular, SingularTensor

__all__ = [
    "SymTensor3",
    "Invariants3",
    "EigenTriple",
    "invariants",
    "eig_sym3",
    "ch_inverse",
    "symmetrize",
    "lop",
    "d_inverse",
    "d2_inverse",
    "eig_sym3_batch",
    "ch_inverse_batch",
    "d_inverse_batch",
    "d2_inverse_batch",
    "unimodular_batch",
    "UNIMODULAR_TOL",
]

# |det B - 1| up to which B counts as unimodular (det B = 1), the premise of
# the derivative formulas of B^{-1}.
UNIMODULAR_TOL = 1e-8

# Largest max|B X - I| that ch_inverse_batch returns; a less accurate inverse
# is refused.  Of randomly rotated spectra with condition number 1e5 / 1e6 /
# 1e7, 0 / 5% / 30% are refused; rotated diag(l, l, 1/l^2) from 2.7e10.
_INVERSE_RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class SymTensor3:
    """Symmetric 3x3 tensor stored by its six independent components."""

    a11: float
    a22: float
    a33: float
    a12: float
    a13: float
    a23: float

    @staticmethod
    def identity() -> "SymTensor3":
        return SymTensor3(1.0, 1.0, 1.0, 0.0, 0.0, 0.0)

    @staticmethod
    def zero() -> "SymTensor3":
        return SymTensor3(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    @staticmethod
    def diag(d1: float, d2: float, d3: float) -> "SymTensor3":
        return SymTensor3(float(d1), float(d2), float(d3), 0.0, 0.0, 0.0)

    @staticmethod
    def from_matrix(m) -> "SymTensor3":
        """Build from a full symmetric matrix (no symmetrization applied)."""
        m = np.asarray(m, dtype=float)
        return SymTensor3(
            float(m[0, 0]), float(m[1, 1]), float(m[2, 2]),
            float(m[0, 1]), float(m[0, 2]), float(m[1, 2]),
        )

    def to_matrix(self) -> np.ndarray:
        return np.array(
            [
                [self.a11, self.a12, self.a13],
                [self.a12, self.a22, self.a23],
                [self.a13, self.a23, self.a33],
            ]
        )

    def ddot(self, other: "SymTensor3") -> float:
        """Frobenius inner product A : B."""
        return (
            self.a11 * other.a11
            + self.a22 * other.a22
            + self.a33 * other.a33
            + 2.0 * (self.a12 * other.a12 + self.a13 * other.a13 + self.a23 * other.a23)
        )

    def trace(self) -> float:
        return self.a11 + self.a22 + self.a33

    def max_abs(self) -> float:
        return max(
            abs(self.a11), abs(self.a22), abs(self.a33),
            abs(self.a12), abs(self.a13), abs(self.a23),
        )


@dataclass(frozen=True)
class Invariants3:
    """Principal invariants (trace, second invariant, determinant)."""

    i1: float
    i2: float
    i3: float


@dataclass(frozen=True)
class EigenTriple:
    """Eigenvalues in ascending order l1 <= l2 <= l3."""

    l1: float
    l2: float
    l3: float


def invariants(b: SymTensor3) -> Invariants3:
    """Coefficients of the characteristic polynomial of ``b``.

    Returns (Tr B, ((Tr B)^2 - Tr(B^2))/2, det B) so that the characteristic
    polynomial is lam^3 - i1 lam^2 + i2 lam - i3.
    """
    i1 = b.trace()
    tr_b2 = (
        b.a11 * b.a11 + b.a22 * b.a22 + b.a33 * b.a33
        + 2.0 * (b.a12 * b.a12 + b.a13 * b.a13 + b.a23 * b.a23)
    )
    i2 = 0.5 * (i1 * i1 - tr_b2)
    return Invariants3(i1, i2, float(_adjugate(b.to_matrix())[1]))


def eig_sym3(b: SymTensor3) -> EigenTriple:
    """Eigenvalues of a symmetric 3x3 tensor, ascending; see :func:`eig_sym3_batch`."""
    return EigenTriple(*(float(v) for v in eig_sym3_batch(b.to_matrix())))


def eig_sym3_batch(mats: np.ndarray) -> np.ndarray:
    """Vectorized ascending eigenvalues for an (..., 3, 3) symmetric stack.

    One LAPACK ``np.linalg.eigvalsh`` call, which reads the lower triangle.
    A matrix with a non-finite entry gets NaN eigenvalues: LAPACK can return
    a finite spectrum for it (eigenvalue 0 for a NaN diagonal entry).
    """
    mats = np.asarray(mats, dtype=float)
    out = np.linalg.eigvalsh(mats)
    out[~np.isfinite(mats).all(axis=(-2, -1))] = np.nan
    return out


def ch_inverse(b: SymTensor3) -> SymTensor3:
    """Inverse adj(B) / det B; see :func:`ch_inverse_batch`."""
    return SymTensor3.from_matrix(ch_inverse_batch(b.to_matrix()))


def _adjugate(b, mul=operator.mul, add=operator.add) -> tuple:
    """The cofactors {(i, j): adj(B)_ij} over the upper triangle of a symmetric
    B, and det B = sum_j B_0j adj(B)_0j.  ``b`` is an (..., 3, 3) stack, or
    B's entries {(i, j): jet} with the jets' product ``mul`` and sum ``add``."""
    if isinstance(b, np.ndarray):
        b = np.moveaxis(b, (-2, -1), (0, 1))  # b[i, j]: the stack of entries (i, j)
    adj = {}
    for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)):
        (i1, i2), (j1, j2) = ((i + 1) % 3, (i + 2) % 3), ((j + 1) % 3, (j + 2) % 3)
        adj[i, j] = add(mul(b[i1, j1], b[i2, j2]), -mul(b[i1, j2], b[i2, j1]))
    return adj, add(add(mul(b[0, 0], adj[0, 0]), mul(b[0, 1], adj[0, 1])),
                    mul(b[0, 2], adj[0, 2]))


def ch_inverse_batch(mats: np.ndarray) -> np.ndarray:
    """B^{-1} = adj(B) / det B for an (..., 3, 3) symmetric stack.

    ``_adjugate``'s cofactors, which are the Cayley-Hamilton numerator
    B^2 - (Tr B) B + II_B I, times 1/det B: bitwise the order-0 jets of B^{-1}
    in ``constitutive``.  Raises :class:`SingularTensor`, naming the first
    offending sample, unless |det B| > 1e-14 * ||B||_F^3 and the inverse X
    has max|B X - I| <= ``_INVERSE_RESIDUAL_TOL``: a NaN or inf is refused.
    """
    mats = np.asarray(mats, dtype=float)
    # the refusals name the inf or NaN that a huge or non-finite entry gives
    with np.errstate(invalid="ignore", over="ignore"):
        adj, det = _adjugate(mats)
        scale = np.sqrt(np.sum(mats * mats, axis=(-2, -1)))
        bad = np.flatnonzero(~(np.abs(det) > 1e-14 * np.maximum(scale**3, 1e-300)))
        if bad.size:
            raise SingularTensor.samples(0, bad.size, int(bad[0]), np.ravel(det)[bad[0]])
        inv_det = 1.0 / det
        binv = np.empty_like(mats)
        for (i, j), c in adj.items():
            binv[..., i, j] = binv[..., j, i] = c * inv_det
        resid = np.max(np.abs(mats @ binv - np.eye(3)), axis=(-2, -1))
    bad = np.flatnonzero(~(resid <= _INVERSE_RESIDUAL_TOL))
    if bad.size:
        raise SingularTensor.samples(1, bad.size, int(bad[0]), np.ravel(resid)[bad[0]])
    return binv


def d_inverse_batch(b: np.ndarray, db: np.ndarray) -> np.ndarray:
    """Directional derivative of B^{-1} along ``db`` for unimodular stacks.

    ``b``: (..., 3, 3) symmetric with det 1; ``db``: a broadcast-compatible
    stack of directions.  Differentiating the Cayley-Hamilton representation
    with det B = 1 gives

        d(B^{-1}) = dB B + B dB - Tr(dB) B - Tr(B) dB
                    + (Tr(B) Tr(dB) - Tr(B dB)) I.

    ``db`` is expected to be tangent to the det = 1 manifold
    (Tr(B^{-1} dB) = 0) for the result to equal the true path derivative.
    No unimodularity check here; callers validate.
    """
    tr_db = np.trace(db, axis1=-2, axis2=-1)[..., None, None]
    tr_b = np.trace(b, axis1=-2, axis2=-1)[..., None, None]
    tr_bdb = np.sum(b * db, axis=(-2, -1))[..., None, None]
    eye = np.eye(3)
    return (
        db @ b + b @ db - tr_db * b - tr_b * db + (tr_b * tr_db - tr_bdb) * eye
    )


def d2_inverse_batch(b: np.ndarray, dbi: np.ndarray, dbj: np.ndarray,
                     d2b: np.ndarray) -> np.ndarray:
    """Second derivative of B^{-1} along a path on the det = 1 manifold.

    All four arguments are broadcast-compatible (..., 3, 3) stacks.
    Differentiating the formula of :func:`d_inverse_batch` once more:

        d2(B^{-1}) = dBj dBi + dBi dBj + B d2B + d2B B
                     - Tr(d2B) B - Tr(dBi) dBj - Tr(dBj) dBi - Tr(B) d2B
                     + (Tr(dBj) Tr(dBi) + Tr(B) Tr(d2B)
                        - Tr(dBj dBi) - Tr(B d2B)) I.

    Symmetric under swapping (dbi, dbj); first- and second-order path data
    must be consistent with det B(t) = 1.  No unimodularity check here;
    callers validate.
    """
    tr = lambda m: np.trace(m, axis1=-2, axis2=-1)[..., None, None]
    ddot = lambda a, c: np.sum(a * c, axis=(-2, -1))[..., None, None]
    eye = np.eye(3)
    return (
        dbj @ dbi + dbi @ dbj
        + b @ d2b + d2b @ b
        - tr(d2b) * b
        - tr(dbi) * dbj
        - tr(dbj) * dbi
        - tr(b) * d2b
        + (tr(dbj) * tr(dbi) + tr(b) * tr(d2b) - ddot(dbj, dbi) - ddot(b, d2b))
        * eye
    )


def symmetrize(m) -> SymTensor3:
    """S(M) = (M + M^t)/2 for a full 3x3 matrix."""
    m = np.asarray(m, dtype=float)
    s = 0.5 * (m + m.T)
    return SymTensor3.from_matrix(s)


def lop(a: SymTensor3, m) -> SymTensor3:
    """S(M) A + A S(M) for symmetric ``a`` and a full 3x3 matrix ``m``.

    Satisfies L(M):M >= 2 lam_min(a) S(M):S(M), and vanishes on
    antisymmetric M.
    """
    am = a.to_matrix()
    sm = symmetrize(m).to_matrix()
    return SymTensor3.from_matrix(sm @ am + am @ sm)


def unimodular_batch(mats: np.ndarray) -> np.ndarray:
    """Whether det B = 1 within ``UNIMODULAR_TOL``, per matrix of an
    (..., 3, 3) stack; a non-finite determinant is not."""
    return np.abs(_adjugate(np.asarray(mats, dtype=float))[1] - 1.0) <= UNIMODULAR_TOL


def _check_unimodular(b: SymTensor3) -> None:
    if not unimodular_batch(b.to_matrix()):
        raise NotUnimodular(f"det B = {invariants(b).i3:.12g}, "
                            f"not 1 within {UNIMODULAR_TOL:g}")


def d_inverse(b: SymTensor3, db: SymTensor3) -> SymTensor3:
    """Directional derivative of B^{-1} along ``db`` for unimodular B.

    See :func:`d_inverse_batch`; raises :class:`NotUnimodular` unless
    det B = 1 within ``UNIMODULAR_TOL``.
    """
    _check_unimodular(b)
    return SymTensor3.from_matrix(d_inverse_batch(b.to_matrix(), db.to_matrix()))


def d2_inverse(
    b: SymTensor3, dbi: SymTensor3, dbj: SymTensor3, d2b: SymTensor3
) -> SymTensor3:
    """Second derivative of B^{-1} along a path on the det = 1 manifold.

    See :func:`d2_inverse_batch`; raises :class:`NotUnimodular` unless
    det B = 1 within ``UNIMODULAR_TOL``.
    """
    _check_unimodular(b)
    return SymTensor3.from_matrix(d2_inverse_batch(
        b.to_matrix(), dbi.to_matrix(), dbj.to_matrix(), d2b.to_matrix()))
