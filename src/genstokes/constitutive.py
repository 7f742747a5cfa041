"""Constitutive operator A(B) = mu1 I + mu2 B + mu3 B^{-1} and its norm audits.

The derivatives of B^{-1} and A come from one formula, the truncated Taylor
jets (``fields``) of B^{-1} = adj(B) / det(B) and A, which holds to any
order and for any determinant; the audits and the manufactured coefficient
read the same jets.  Values of B^{-1}, and so of A, come from the same
cofactor expansion in ``ch_inverse_batch``, which refuses ill-conditioned B.

The audits compare sampled sup-norms (max-abs-entry for tensors) against the
explicit constants of the constitutive regularity estimates; inequalities
whose universal constant is unspecified are reported ratio-only.  Sup norms
are approximated by maxima over the provided sample set, Lp norms by sample
means; both are sampling approximations of the essential versions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .fields import (_COMP_INDEX, COMPONENT_ORDER, ScalarField, TensorField,
                     _field_jets, _jet_array, _jet_mul, _jet_pow, _jet_sum,
                     _symmetric_stack, _taylor_tables)
from .tensors import SymTensor3, _adjugate, ch_inverse_batch, unimodular_batch

__all__ = [
    "MuTriple",
    "BoundAudit",
    "g_eval",
    "acal",
    "acal_samples",
    "acal_values",
    "mu_values",
    "coefficient_derivatives",
    "audit_bounds",
    "shipped_smooth_fields",
]


@dataclass(frozen=True)
class MuTriple:
    """Viscosity parameter triple (mu1, mu2, mu3)."""

    mu1: float
    mu2: float
    mu3: float

    @property
    def thermodynamically_admissible(self) -> bool:
        """mu1 + mu2 + mu3 > 0 (the no-deformation positivity condition)."""
        return self.mu1 + self.mu2 + self.mu3 > 0.0

    def as_tuple(self):
        return (self.mu1, self.mu2, self.mu3)


@dataclass
class BoundAudit:
    """One audited inequality.

    For fully specified constants, ``rhs`` is the complete right-hand side
    and ``satisfied`` is set.  For inequalities with an unspecified universal
    constant, ``rhs`` is the right-hand side with the constant dropped and
    only ``ratio`` = lhs/rhs is reported.
    """

    id: str
    lhs: float
    rhs: float
    satisfied: Optional[bool] = None
    ratio: Optional[float] = None
    worst_point: Optional[tuple] = None

    def as_dict(self) -> dict:
        d = {"id": self.id, "lhs": self.lhs, "rhs": self.rhs}
        if self.satisfied is not None:
            d["satisfied"] = bool(self.satisfied)
        if self.ratio is not None:
            d["ratio"] = self.ratio
        if self.worst_point is not None:
            d["worst_point"] = list(self.worst_point)
        return d


def g_eval(mu: MuTriple, lam: float) -> float:
    """g(lambda) = mu1 + mu2*lambda + mu3/lambda for lambda > 0."""
    if lam <= 0.0:
        raise DomainError(f"g is defined for positive arguments, got {lam}")
    return mu.mu1 + mu.mu2 * lam + mu.mu3 / lam


def _mu_fields(mu) -> tuple:
    """Normalize a mu specification to three ScalarFields."""
    fields = tuple(m if isinstance(m, ScalarField) else ScalarField.constant(float(m))
                   for m in (mu.as_tuple() if isinstance(mu, MuTriple) else mu))
    if len(fields) != 3:
        raise ValueError("mu must provide exactly three components")
    return fields


def mu_values(mu, pts) -> tuple:
    """(mu1, mu2, mu3) sampled at the points ``pts`` (N, 3), three (N,) arrays."""
    return tuple(f.eval(pts) for f in _mu_fields(mu))


def acal_samples(mu_vals, bvals: np.ndarray, binv=None) -> np.ndarray:
    """A = mu1 I + mu2 B + mu3 B^{-1} from sampled ``mu_values`` and B (N, 3, 3);
    ``binv`` is B^{-1} there, computed here when not given."""
    m1, m2, m3 = (m[:, None, None] for m in mu_vals)
    a = m1 * np.eye(3) + m2 * bvals
    if m3.any():  # else B is not inverted: with mu3 = 0, A needs no B^{-1}
        a += m3 * (ch_inverse_batch(bvals) if binv is None else binv)
    return a


def _coefficient_jets(mu_jets, b: dict, order) -> tuple:
    """The jets of B^{-1} = adj(B) / det(B) and of A = mu1 I + mu2 B +
    mu3 B^{-1}, each {(i, j): jet} over the upper triangle, from the jets
    of the mu_k and the ``TensorField.jets`` of B, through the cofactor
    expansion of ``ch_inverse_batch``, whose values are the order-0 B^{-1}."""
    _, pairs = _taylor_tables(order)
    mul = lambda x, y: _jet_mul(x, y, pairs)
    adj, det = _adjugate(b, mul, _jet_sum)
    inv_det = _jet_pow(det, -1.0, order, pairs)
    inv = {ij: mul(c, inv_det) for ij, c in adj.items()}
    m1, m2, m3 = mu_jets
    return inv, {(i, j): _jet_sum(m1 if i == j else 0.0, mul(m2, b[i, j]),
                                  mul(m3, inv[i, j])) for i, j in inv}


def _acal_jets(mu, b: TensorField, pts, order) -> list:
    """Jets of A in COMPONENT_ORDER: a jet function for ``TensorField.from_jets``."""
    _, a = _coefficient_jets(_field_jets(_mu_fields(mu), pts, order),
                             b.jets(pts, order), order)
    return [a[_COMP_INDEX[name]] for name in COMPONENT_ORDER]


def acal_values(mu, b: TensorField, pts) -> np.ndarray:
    """A(B) = mu1 I + mu2 B + mu3 B^{-1} at each sample point, (N, 3, 3)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    bvals = b.eval(pts)
    return acal_samples(mu_values(mu, pts), bvals)


def acal(mu, b: TensorField, x) -> SymTensor3:
    """Pointwise constitutive tensor at position ``x``."""
    a = acal_values(mu, b, np.asarray(x, dtype=float).reshape(1, 3))[0]
    return SymTensor3.from_matrix(a)


# ---------------------------------------------------------------------------
# norm machinery


def _sup_entry(stack: np.ndarray) -> tuple:
    """Max abs entry over samples; returns (value, sample index)."""
    per_sample = np.max(np.abs(stack.reshape(stack.shape[0], -1)), axis=1)
    idx = int(np.argmax(per_sample))
    return float(per_sample[idx]), idx


def _lp_norm(stack: np.ndarray, p: float, volume: float) -> float:
    """Sampled Lp norm; components of tensors are summed per convention."""
    if not stack.any():  # the derivatives of a constant B: skip the powers
        return 0.0
    flat = np.abs(stack.reshape(stack.shape[0], -1)) ** p
    return float((np.sum(np.mean(flat, axis=0)) * volume) ** (1.0 / p))


def coefficient_derivatives(mu, b: TensorField, pts, bvals, binv=None,
                            order: int = 1):
    """Jets [value, first, second derivatives] up to ``order`` of mu, B,
    B^{-1} and A at the samples ``pts``, where B takes the values ``bvals``;
    ``binv`` is B^{-1} there, computed here when not given.

    Returns (mu_jets, b_jet, binv_jet, a_jet): [mu_k, grad mu_k, hess mu_k]
    per k, of shapes (N,), (N, 3), (N, 3, 3), and [T, dT, d2T] for T = B,
    B^{-1} and A, of shapes (N, 3, 3), (N, 3, 3, 3) indexed [n, k, i, j] =
    d_k T_ij and (N, 3, 3, 3, 3) indexed [n, k, l, i, j] = d_k d_l T_ij.
    The derivatives come from one pass of jets at ``order``.  The audited
    bounds on them hold for det B = 1, so every sample of a varying B must
    be unimodular; if one is not, None comes back before anything is
    evaluated.  A constant B has zero derivatives, whatever its determinant.
    """
    if order and b.kind != "constant" and not unimodular_batch(bvals).all():
        return None
    if binv is None:
        binv = ch_inverse_batch(bvals)
    n = len(pts)
    mu_j = _field_jets(_mu_fields(mu), pts, order)
    mu_jets = [[_jet_array(m, n, d, order) for d in range(order + 1)] for m in mu_j]
    jets = ([bvals], [binv], [acal_samples([m[0] for m in mu_jets], bvals, binv)])
    if order:
        b_j = b.jets(pts, order)
        for jet, t in zip(jets, (b_j, *_coefficient_jets(mu_j, b_j, order))):
            jet.extend(_symmetric_stack(t, n, d, order) for d in range(1, order + 1))
    return (mu_jets, *jets)


def audit_bounds(mu, b: TensorField, pts, volume: float = 1.0) -> list:
    """Audit the explicit constitutive norm bounds over a sample set.

    Assertable audits (fully specified constants):

    * ``binv_linf``:   ||B^{-1}|| <= 15 ||(det B)^{-1}|| ||B||^2
    * ``acal_linf``:   ||A|| <= ||mu1|| + ||mu2|| ||B|| + 15 ||mu3|| ||det^{-1}|| ||B||^2
    * ``d_binv_linf``: ||D(B^{-1})|| <= 20 ||B|| ||DB||          (det B = 1)
    * ``d_acal_linf``: ||DA|| <= ||Dmu1|| + ||Dmu2|| ||B|| + ||mu2|| ||DB||
                        + 9 ||Dmu3|| ||B||^2 + 20 ||mu3|| ||B|| ||DB||

    Ratio-only audits (universal constant unspecified), reported as
    lhs / (rhs without the constant):

    * ``binv_l3``:    ||B^{-1}||_L3 vs ||B||_L6^2
    * ``d_binv_l3``:  ||D(B^{-1})||_L3 vs ||B||_L6 ||DB||_L6
    * ``d2_binv_l3``: ||D2(B^{-1})||_L3 vs ||DB||_L6^2 + ||B|| ||D2B||_L3
    * ``d2_acal_l3``: ||D2 A||_L3 vs the analogous term combination
    * ``binv_l2``:    ||B^{-1}||_L2 vs ||B||_L4^2

    The derivative audits, with exactly zero derivatives for a constant B,
    are included whenever :func:`coefficient_derivatives` computes them.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    bvals = b.eval(pts)
    binv = ch_inverse_batch(bvals)
    # order 0 when a varying B is not unimodular: no derivative audits
    mu_jets, b_jet, binv_jet, a_jet = (
        coefficient_derivatives(mu, b, pts, bvals, binv, order=2)
        or coefficient_derivatives(mu, b, pts, bvals, binv, order=0))
    audits = []

    sup_b, _ = _sup_entry(bvals)
    sup_binv, idx_binv = _sup_entry(binv)
    sup_detinv = float(np.max(1.0 / np.abs(_adjugate(bvals)[1])))

    lhs = sup_binv
    rhs = 15.0 * sup_detinv * sup_b**2
    audits.append(BoundAudit(
        "binv_linf", lhs, rhs, satisfied=lhs <= rhs * (1 + 1e-12),
        worst_point=tuple(pts[idx_binv]),
    ))

    sup_a, idx_a = _sup_entry(a_jet[0])
    sup_mu = [float(np.max(np.abs(m[0]))) for m in mu_jets]
    rhs = sup_mu[0] + sup_mu[1] * sup_b + 15.0 * sup_mu[2] * sup_detinv * sup_b**2
    audits.append(BoundAudit(
        "acal_linf", sup_a, rhs, satisfied=sup_a <= rhs * (1 + 1e-12),
        worst_point=tuple(pts[idx_a]),
    ))
    if len(a_jet) == 1:
        return audits

    (dbvals, d2b), (dbinv, d2binv), (davals, d2a) = b_jet[1:], binv_jet[1:], a_jet[1:]
    sup_db = float(np.max(np.abs(dbvals))) if dbvals.size else 0.0
    sup_dbinv, idx_dbinv = _sup_entry(dbinv)
    rhs = 20.0 * sup_b * sup_db
    audits.append(BoundAudit(
        "d_binv_linf", sup_dbinv, rhs,
        satisfied=sup_dbinv <= rhs * (1 + 1e-12),
        worst_point=tuple(pts[idx_dbinv]),
    ))

    sup_da, idx_da = _sup_entry(davals)
    sup_dmu = [float(np.max(np.abs(m[1]))) for m in mu_jets]
    rhs = (
        sup_dmu[0]
        + sup_dmu[1] * sup_b
        + sup_mu[1] * sup_db
        + 9.0 * sup_dmu[2] * sup_b**2
        + 20.0 * sup_mu[2] * sup_b * sup_db
    )
    audits.append(BoundAudit(
        "d_acal_linf", sup_da, rhs,
        satisfied=sup_da <= rhs * (1 + 1e-12),
        worst_point=tuple(pts[idx_da]),
    ))

    # ratio-only family
    b_l6 = _lp_norm(bvals, 6.0, volume)
    b_l4 = _lp_norm(bvals, 4.0, volume)
    db_l6 = _lp_norm(dbvals, 6.0, volume)
    db_l3 = _lp_norm(dbvals, 3.0, volume)
    d2b_l3 = _lp_norm(d2b, 3.0, volume)
    audits.append(_ratio_audit("binv_l3", _lp_norm(binv, 3.0, volume), b_l6**2))
    dbinv_l3 = _lp_norm(dbinv, 3.0, volume)
    d2binv_l3 = _lp_norm(d2binv, 3.0, volume)
    audits.append(_ratio_audit("d_binv_l3", dbinv_l3, b_l6 * db_l6))
    audits.append(_ratio_audit("d2_binv_l3", d2binv_l3, db_l6**2 + sup_b * d2b_l3))
    d2mu_l3 = [_lp_norm(m[2], 3.0, volume) for m in mu_jets]
    rhs_no_c = (
        d2mu_l3[0]
        + d2mu_l3[1] * sup_b
        + sup_dmu[1] * db_l3
        + sup_mu[1] * db_l3
        + d2mu_l3[2] * sup_binv
        + sup_dmu[2] * dbinv_l3
        + sup_mu[2] * d2binv_l3
    )
    audits.append(_ratio_audit("d2_acal_l3", _lp_norm(d2a, 3.0, volume), rhs_no_c))
    audits.append(_ratio_audit("binv_l2", _lp_norm(binv, 2.0, volume), b_l4**2))
    return audits


def _ratio_audit(name: str, lhs: float, rhs: float) -> BoundAudit:
    ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0.0 else float("inf"))
    return BoundAudit(name, lhs, rhs, ratio=ratio)


def shipped_smooth_fields() -> dict:
    """Five smooth unimodular SPD tensor fields used by the bound audits.

    All are left Cauchy-Green tensors of volume-preserving deformations
    (shears and isochoric stretches), so det B = 1 identically.
    """
    fields = {}
    s = "0.4*sin(pi*x)*sin(pi*y)*sin(pi*z)"
    fields["shear_xy"] = TensorField.expression({
        "a11": f"1 + ({s})**2", "a22": "1", "a33": "1", "a12": s,
    })
    t = "0.3*cos(pi*x)*sin(pi*y)*sin(2*pi*z)"
    fields["shear_xz"] = TensorField.expression({
        "a11": f"1 + ({t})**2", "a22": "1", "a33": "1", "a13": t,
    })
    a = "0.25*sin(pi*x)*cos(pi*y)"
    fields["stretch_xy"] = TensorField.expression({
        "a11": f"exp({a})", "a22": f"exp(-({a}))", "a33": "1",
    })
    a2 = "0.2*sin(pi*x)*sin(pi*z)"
    b2 = "0.2*cos(pi*y)*sin(pi*x)"
    fields["stretch_xyz"] = TensorField.expression({
        "a11": f"exp({a2})", "a22": f"exp({b2})", "a33": f"exp(-({a2})-({b2}))",
    })
    # two composed shears: B = F F^t with unit upper-triangular F
    u = "0.3*sin(pi*x)*sin(pi*y)*sin(pi*z)"
    w = "0.2*sin(2*pi*x)*sin(pi*y)*sin(pi*z)"
    fields["double_shear"] = TensorField.expression({
        "a11": f"1 + ({u})**2", "a12": u, "a13": "0",
        "a22": f"1 + ({w})**2", "a23": w, "a33": "1",
    })
    return fields
