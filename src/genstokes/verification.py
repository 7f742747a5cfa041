"""Manufactured solutions, dimensional norms, and estimate diagnostics.

Manufactured velocities are built divergence-free with zero wall trace; the
forcing of the strong form

    f = -div(D(v) A + A D(v)) + grad p,      A = mu1 I + mu2 B + mu3 B^{-1},

is a jet function: at each evaluation it combines the truncated Taylor jets
of v and p (``fields``) with those of A (``constitutive``, from B^{-1} =
adj(B) / det(B) in the same arithmetic), so the forcing and A are exact up
to rounding to any order.

Error norms against exact solutions are integrated with quadrature one
degree above the assembly rule.  Estimates carrying unspecified shape
constants are emitted as ratio diagnostics (LHS over the RHS with the
constant dropped); the only asserted bound is the constant-free velocity
estimate ||grad v_h|| <= lambda1^{-1/2} ||f|| / alpha, which substitutes
the dual norm of f by its Poincare surrogate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .assembly import SaddleSystem, _chunks, _in_order, assemble
from .constitutive import (BoundAudit, MuTriple, _acal_jets, _ratio_audit,
                           coefficient_derivatives)
from .errors import InvalidDimensions, MissingNormInput
from .fem import TaylorHoodSpace, build_mesh, lattice_points
from .fields import (COMPONENT_ORDER, ScalarField, TensorField, VectorField,
                     _derivative_stacks, _field_jets, _jet_derivative, _jet_mul,
                     _jet_sum, _taylor_tables)
from .solver import SolveResult, minres_solve

__all__ = [
    "MMSCase",
    "ConvergenceTable",
    "DimNorm",
    "lambda1_box",
    "make_classical_case",
    "make_anisotropic_case",
    "errors_against_exact",
    "run_convergence",
    "audit_estimates",
    "dim_norm",
    "rk_evaluate",
    "rk_bracket",
]

def lambda1_box(lx: float, ly: float, lz: float) -> float:
    """First Dirichlet Laplacian eigenvalue of the box."""
    return math.pi**2 * (1.0 / lx**2 + 1.0 / ly**2 + 1.0 / lz**2)


# ---------------------------------------------------------------------------
# manufactured cases


@dataclass
class MMSCase:
    """Exact solution pair, as expression texts, with the coefficient field,
    A and the forcing of the strong form."""

    name: str
    v_texts: tuple
    p_text: str
    mu: MuTriple
    b_texts: Optional[dict]  # component name -> text; None means B = I
    b_field: TensorField = field(init=False)
    v_field: VectorField = field(init=False)
    p_field: ScalarField = field(init=False)
    a_field: TensorField = field(init=False)
    f_field: VectorField = field(init=False)

    def __post_init__(self):
        self.b_field = (TensorField.identity() if self.b_texts is None
                        else TensorField.expression(self.b_texts))
        self.v_field = VectorField.expression(self.v_texts)
        self.p_field = ScalarField.expression(self.p_text)
        self.a_field = TensorField.from_jets(
            functools.partial(_acal_jets, self.mu, self.b_field))
        self.f_field = VectorField.from_jets(functools.partial(
            _forcing_jets, self.v_field, self.p_field, self.a_field))


def _forcing_jets(v_field: VectorField, p_field: ScalarField,
                  a_field: TensorField, pts, order) -> list:
    """Jets of f = grad p - div(D(v) A + A D(v)), from the ``order + 2``
    jets of v and the ``order + 1`` jets of p and A."""
    up = order + 1
    _, pairs = _taylor_tables(up)
    v = _field_jets(v_field.components, pts, up + 1)
    (p,) = _field_jets([p_field], pts, up)
    a = a_field.jets(pts, up)
    grad = [[_jet_derivative(v[i], j, up + 1) for j in range(3)] for i in range(3)]
    d = [[_jet_mul(0.5, _jet_sum(grad[i][j], grad[j][i]), pairs) for j in range(3)]
         for i in range(3)]
    da = [[_jet_sum(*(_jet_mul(d[i][k], a[k, j], pairs) for k in range(3)))
           for j in range(3)] for i in range(3)]
    return [_jet_sum(_jet_derivative(p, i, up),
                     *(-_jet_derivative(_jet_sum(da[i][j], da[j][i]), j, up)
                       for j in range(3)))
            for i in range(3)]


# v = (d_y psi, -d_x psi, 0) = 2 q Z (X (1 - 2y), Y (2x - 1), 0) for the
# squared bubble psi = q^2, q = X Y Z, X = x (1 - x), Y = y (1 - y),
# Z = z (1 - z); the texts share the subtrees 2 q Z, X and Y
_BUBBLE = "(x*(1 - x))*(y*(1 - y))*(z*(1 - z))"
_CURL_BUBBLE = (f"2*({_BUBBLE})*(z*(1 - z))*(x*(1 - x))*(1 - 2*y)",
                f"2*({_BUBBLE})*(z*(1 - z))*(y*(1 - y))*(2*x - 1)",
                "0")


def make_classical_case() -> MMSCase:
    """Newtonian reduction (A = I): curl of a squared-bubble potential."""
    return MMSCase("classical", _CURL_BUBBLE, "cos(pi*x)", MuTriple(1.0, 0.0, 0.0),
                   None)


def make_anisotropic_case() -> MMSCase:
    """Spatially varying unimodular shear B with a full coefficient triple."""
    s = "2/5*sin(pi*x)*sin(pi*y)*sin(pi*z)"
    b = {"a11": f"1 + ({s})**2", "a22": "1", "a33": "1", "a12": s}
    return MMSCase("anisotropic", _CURL_BUBBLE, "cos(pi*x)", MuTriple(1.0, 1.0, 0.5),
                   b)


SHIPPED_CASES = {
    "classical": make_classical_case,
    "anisotropic": make_anisotropic_case,
}


# ---------------------------------------------------------------------------
# errors and convergence studies


def _chunk_sums(geom, fn, threads: int = 1) -> np.ndarray:
    """The sum of ``fn(sl)`` (a number or a tuple of them) over the element chunks
    ``sl`` of ``geom``, added in chunk order whatever ``threads`` is."""
    total = 0.0
    for part in _in_order(fn, _chunks(geom.n_tets, geom.nq), threads):
        total = total + np.array(part)
    return total


def _centred_l2(geom, values, threads: int = 1) -> float:
    """||g - mean(g)||_L2 of the field whose (e, q) values at the points of
    chunk ``sl`` are ``values(sl)``: the mean from a first chunked pass."""
    def moments(sl):
        wdet = geom.weights(sl)
        return np.sum(wdet), np.sum(wdet * values(sl))

    vol, integral = _chunk_sums(geom, moments, threads)

    def centred(sl):
        d = values(sl) - integral / vol
        return np.sum(geom.weights(sl) * d * d)

    return math.sqrt(float(_chunk_sums(geom, centred, threads)))


def _p1_values(geom, tets, pressure):
    """(e, q) values at the points of ``geom`` of the P1 field ``pressure``
    on the elements ``tets``."""
    return np.einsum("qj,ej->eq", geom.p1_vals, pressure[tets])


def errors_against_exact(system: SaddleSystem, result: SolveResult,
                         case: MMSCase, threads: int = 1):
    """(velocity H1 seminorm, velocity L2, pressure L2/R) errors.

    Integrated with quadrature one degree above assembly, over element
    chunks.
    """
    space = system.space
    geom = space.geometry(system.quad_n + 1)
    u = result.velocity.reshape(-1, 3)

    def velocity(sl):
        pts, wdet = geom.quadrature(sl)
        uloc = u[space.tet_nodes[sl]]
        dv = (np.einsum("qi,eia->eqa", geom.n2_vals, uloc)
              - case.v_field.eval(pts).reshape(*wdet.shape, 3))
        dg = geom.p2_grad(uloc) - case.v_field.grad(pts).reshape(*wdet.shape, 3, 3)
        return (np.einsum("eq,eqac,eqac->", wdet, dg, dg),
                np.einsum("eq,eqa,eqa->", wdet, dv, dv))

    def pressure(sl):
        pts, wdet = geom.quadrature(sl)
        return (_p1_values(geom, system.mesh.tets[sl], result.pressure)
                - case.p_field.eval(pts).reshape(wdet.shape))

    h1_sq, l2_sq = _chunk_sums(geom, velocity, threads)
    return (math.sqrt(float(h1_sq)), math.sqrt(float(l2_sq)),
            _centred_l2(geom, pressure, threads))


@dataclass
class ConvergenceTable:
    """Errors and observed rates over a mesh refinement sequence."""

    case: str
    divisions: list
    h: list
    e_h1: list
    e_l2: list
    e_p: list
    audits: list = field(default_factory=list)

    def rates(self) -> dict:
        def seq(errors):
            out = []
            for a, b, h0, h1 in zip(errors[:-1], errors[1:], self.h[:-1], self.h[1:]):
                out.append(math.log(a / b) / math.log(h0 / h1))
            return out

        return {"h1_v": seq(self.e_h1), "l2_v": seq(self.e_l2), "l2_p": seq(self.e_p)}

    def last_rates(self) -> Optional[dict]:
        r = self.rates()
        if not r["h1_v"]:
            return None
        return {k: v[-1] for k, v in r.items()}

    def to_csv(self, path) -> None:
        r = self.rates()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("n,h,err_h1_v,err_l2_v,err_l2_p,rate_h1_v,rate_l2_v,rate_l2_p\n")
            for i, n in enumerate(self.divisions):
                cols = [str(n), f"{self.h[i]:.12g}", f"{self.e_h1[i]:.12g}",
                        f"{self.e_l2[i]:.12g}", f"{self.e_p[i]:.12g}"]
                for key in ("h1_v", "l2_v", "l2_p"):
                    cols.append(f"{r[key][i - 1]:.6g}" if i > 0 else "")
                fh.write(",".join(cols) + "\n")


def run_convergence(case: MMSCase, divisions, quad_n: int = 3,
                    threads: int = 1, with_audits: bool = True) -> ConvergenceTable:
    """Solve the case on a mesh sequence of the unit cube, on whose walls its
    manufactured velocity vanishes, and tabulate errors and rates.

    Raises InvalidDimensions before any work when a division count repeats:
    a rate needs two distinct mesh sizes.
    """
    divisions = list(divisions)
    for i, n in enumerate(divisions):
        if n in divisions[:i]:
            raise InvalidDimensions(f"division count {n} is repeated: "
                                    "a rate needs two distinct mesh sizes")
    box = (1.0, 1.0, 1.0)
    table = ConvergenceTable(case.name, divisions, [], [], [], [])
    case_norms = case_norm_suite(case, lambda1_box(*box), box) if with_audits else None
    for n in divisions:
        mesh = build_mesh(n, n, n, *box)
        space = TaylorHoodSpace(mesh)
        system = assemble(mesh, space, case.mu, case.b_field, case.f_field,
                          quad_n=quad_n, threads=threads)
        result = minres_solve(system)
        e_h1, e_l2, e_p = errors_against_exact(system, result, case,
                                               threads=threads)
        table.h.append(max(box) / n)
        table.e_h1.append(e_h1)
        table.e_l2.append(e_l2)
        table.e_p.append(e_p)
        if with_audits:
            table.audits.append(
                audit_estimates(system, result, case.mu, case.b_field,
                                case_norms=case_norms, threads=threads)
            )
        # free this level's geometry tables before the next level builds its own
        del mesh, space, system, result
    return table


# ---------------------------------------------------------------------------
# broken seminorms of discrete fields


def broken_h2_velocity(space: TaylorHoodSpace, geom, u_full: np.ndarray,
                       threads: int = 1) -> float:
    """Elementwise ||D^2 v_h||_{L^2} over the chunks of ``geom``; second
    derivatives of quadratics are constant per element."""
    u = u_full.reshape(-1, 3)
    # multi-index convention: each distinct second derivative counted once
    w = np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]])

    def chunk(sl):
        hv = geom.p2_hess(u[space.tet_nodes[sl]])  # (e, 3, 3, 3)
        return geom.integrate_constant(np.einsum("eacd,cd->e", hv * hv, w))

    return math.sqrt(float(_chunk_sums(geom, chunk, threads)))


def broken_h1_pressure(space: TaylorHoodSpace, geom, p_coeffs: np.ndarray,
                       threads: int = 1) -> float:
    """Elementwise ||grad p_h||_{L^2} of the piecewise-linear pressure over
    the chunks of ``geom``."""

    def chunk(sl):
        g = geom.p1_grad(p_coeffs[space.mesh.tets[sl]])
        return geom.integrate_constant(np.sum(g * g, axis=1))

    return math.sqrt(float(_chunk_sums(geom, chunk, threads)))


# ---------------------------------------------------------------------------
# dimensional norms


@dataclass(frozen=True)
class DimNorm:
    """Value of a lambda-scaled Sobolev norm sum."""

    k: int
    p: float
    lam: float
    value: float


def _gauss_box(box, n_axis: int):
    x, w = leggauss(n_axis)
    pts = lattice_points([0.5 * (x + 1.0) * L for L in box])
    wts1 = [0.5 * L * w for L in box]
    wts = (
        wts1[0][:, None, None] * wts1[1][None, :, None] * wts1[2][None, None, :]
    ).ravel()
    return pts, wts


def _field_components(field_like):
    """(scalar components, multiplicities) covering the full object."""
    if isinstance(field_like, ScalarField):
        return [field_like], [1.0]
    if isinstance(field_like, VectorField):
        return list(field_like.components), [1.0] * 3
    if isinstance(field_like, TensorField):
        comps = [field_like.components[n] for n in COMPONENT_ORDER]
        return comps, [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
    raise TypeError(f"unsupported field object {type(field_like)!r}")


def derivative_lp(field_like, order: int, p: float, box,
                  n_axis: int = 16) -> float:
    """Sampled L^p norm of the order-th derivative tensor of a field."""
    comps, mult = _field_components(field_like)
    pts, wts = _gauss_box(box, n_axis)
    stacks = _derivative_stacks(comps, pts, order)
    if math.isinf(p):
        return max(float(np.max(np.abs(s))) for s in stacks)
    acc = sum(m * float(wts @ np.sum(np.abs(s) ** p, axis=1))
              for s, m in zip(stacks, mult))
    return acc ** (1.0 / p)


def dim_norm(field_like, k: int, p: float, lam: float, box,
             n_axis: int = 16) -> DimNorm:
    """Sum_{j<=k} lam^{(k-j)/2} ||D^j field||_{L^p} over the box."""
    total = 0.0
    for j in range(k + 1):
        total += lam ** ((k - j) / 2.0) * derivative_lp(field_like, j, p, box, n_axis)
    return DimNorm(k=k, p=p, lam=lam, value=total)


# ---------------------------------------------------------------------------
# the higher-order diagnostic scalar


def rk_bracket(alpha: float, a_norms: dict, f_norms: dict) -> float:
    """Inner first-order bracket shared by the diagnostic family.

    ||f||_{H^1_l} + (1/a)(||A||_{W^{1,inf}_l} + ||D^2 A||_{L^3})
                    (||f||_{L^2} + (1/a) ||A||_{W^{1,inf}_l} ||f||_{H^{-1}}).
    """
    need_a = ("w1inf", "d2_l3")
    for key in need_a:
        if key not in a_norms:
            raise MissingNormInput(f"coefficient norm {key!r} missing")
    for key in ("h0", "h1"):
        if key not in f_norms:
            raise MissingNormInput(f"forcing norm {key!r} missing")
    fm1 = f_norms.get("hm1")
    if fm1 is None:
        raise MissingNormInput("forcing norm 'hm1' missing (dual surrogate)")
    return f_norms["h1"] + (1.0 / alpha) * (
        a_norms["w1inf"] + a_norms["d2_l3"]
    ) * (f_norms["h0"] + (1.0 / alpha) * a_norms["w1inf"] * fm1)


def rk_evaluate(alpha: float, lambda1: float, a_norms: dict, f_norms: dict,
                k: int) -> float:
    """Diagnostic scalar controlling the order-(k+2) velocity seminorm.

    Assembled term by term:

        R_k = ||f||_{H^k_l}
              + sum_{j=2}^{k-1} ( sum_{i=1}^{k-j} a^{-(k-j)/i} l^{-(k-j)/4i}
                                  ||A||_{H^{i+2}_l}^{(k-j)/i} ) ||f||_{H^j_l}
              + ( sum_{i=1}^{k-1} a^{-(k-1)/i} l^{-(k-1)/4i}
                                  ||A||_{H^{i+2}_l}^{(k-1)/i} ) * bracket,

    with the first-order bracket of :func:`rk_bracket`.  All inputs are
    plain numbers; ``a_norms`` uses keys ``h3``, ``h4``, ... for the
    lambda-scaled Sobolev norms plus ``w1inf`` and ``d2_l3``; ``f_norms``
    uses ``h0`` ... ``hk`` and ``hm1``.
    """
    if k < 2:
        raise MissingNormInput("the diagnostic is defined for k >= 2")

    def a_sum(power: int) -> float:
        total = 0.0
        for i in range(1, power + 1):
            key = f"h{i + 2}"
            if key not in a_norms:
                raise MissingNormInput(f"coefficient norm {key!r} missing")
            expo = power / i
            total += (
                alpha ** (-expo) * lambda1 ** (-expo / 4.0) * a_norms[key] ** expo
            )
        return total

    if f"h{k}" not in f_norms:
        raise MissingNormInput(f"forcing norm 'h{k}' missing")
    value = f_norms[f"h{k}"]
    for j in range(2, k):
        if f"h{j}" not in f_norms:
            raise MissingNormInput(f"forcing norm 'h{j}' missing")
        value += a_sum(k - j) * f_norms[f"h{j}"]
    value += a_sum(k - 1) * rk_bracket(alpha, a_norms, f_norms)
    return value


# ---------------------------------------------------------------------------
# per-solve audits


def case_norm_suite(case: MMSCase, lambda1: float, box,
                    n_axis: int = 12) -> dict:
    """Coefficient and forcing norms reused across mesh levels of one case."""
    a_field, f_field = case.a_field, case.f_field
    a_norms = {
        "w1inf": dim_norm(a_field, 1, math.inf, lambda1, box, n_axis).value,
        "d2_l3": derivative_lp(a_field, 2, 3.0, box, n_axis),
        "h3": dim_norm(a_field, 3, 2.0, lambda1, box, n_axis).value,
    }
    f_norms = {
        "h0": derivative_lp(f_field, 0, 2.0, box, n_axis),
        "h1": dim_norm(f_field, 1, 2.0, lambda1, box, n_axis).value,
        "h2": dim_norm(f_field, 2, 2.0, lambda1, box, n_axis).value,
    }
    f_norms["hm1"] = f_norms["h0"] / math.sqrt(lambda1)
    exact = {
        "d3v_l2": derivative_lp(case.v_field, 3, 2.0, box, n_axis),
        "d2p_l2": derivative_lp(case.p_field, 2, 2.0, box, n_axis),
    }
    return {"a": a_norms, "f": f_norms, "exact": exact}


def _sup_da(mu, b_field: TensorField, geom, threads: int = 1) -> Optional[float]:
    """sup |dA| over the quadrature points of ``geom``, chunk by chunk; None
    as soon as one chunk's B is refused by :func:`coefficient_derivatives`."""
    def chunk(sl):
        pts, _ = geom.quadrature(sl)
        derivs = coefficient_derivatives(mu, b_field, pts, b_field.eval(pts))
        return None if derivs is None else float(np.max(np.abs(derivs[3][1])))

    sups = []
    for part in _in_order(chunk, _chunks(geom.n_tets, geom.nq), threads):
        if part is None:
            return None
        sups.append(part)
    return float(np.max(sups))


def audit_estimates(system: SaddleSystem, result: SolveResult, mu,
                    b_field: TensorField, case_norms: Optional[dict] = None,
                    threads: int = 1) -> dict:
    """Estimate audits for one solve.

    Asserts the constant-free velocity bound; everything carrying a shape
    constant is reported as a ratio against the RHS with the constant
    dropped.  The integrals and sup |dA| are taken over element chunks.
    """
    mesh = system.mesh
    space = system.space
    lam1 = lambda1_box(*mesh.box)
    alpha = system.alpha
    anorm = system.anorm_inf
    geom = space.geometry(system.quad_n)
    u = result.velocity.reshape(-1, 3)

    def grad_sq(sl):
        gv = geom.p2_grad(u[space.tet_nodes[sl]])
        return np.einsum("eq,eqac,eqac->", geom.weights(sl), gv, gv)

    grad_v = math.sqrt(float(_chunk_sums(geom, grad_sq, threads)))
    p_l2 = _centred_l2(
        geom, lambda sl: _p1_values(geom, mesh.tets[sl], result.pressure), threads)

    f_l2 = system.f_l2
    f_dual = f_l2 / math.sqrt(lam1)

    bounds = []
    rhs = f_dual / alpha
    bounds.append(BoundAudit(
        "velocity_gradient_apriori", grad_v, rhs,
        satisfied=grad_v <= rhs * (1 + 1e-12),
    ))
    bounds.append(_ratio_audit("pressure_l2", p_l2, (anorm / alpha) * f_dual))

    sup_da = _sup_da(mu, b_field, geom, threads)
    if sup_da is not None:  # sup |dA| completes ||A||_W1inf
        a_w1inf = math.sqrt(lam1) * anorm + sup_da
        d2v = broken_h2_velocity(space, geom, result.velocity, threads)
        rhs_d2v = (1.0 / alpha) * (f_l2 + (1.0 / alpha) * a_w1inf * f_dual)
        bounds.append(_ratio_audit("d2v_broken", d2v, rhs_d2v))
        gp = broken_h1_pressure(space, geom, result.pressure, threads)
        bounds.append(_ratio_audit("grad_p_broken", gp, anorm * rhs_d2v))

    norms = {
        "grad_v_l2": grad_v,
        "pressure_l2": p_l2,
        "f_l2": f_l2,
        "f_dual_surrogate": f_dual,
    }
    if case_norms is not None:
        a_n = dict(case_norms["a"])
        f_n = dict(case_norms["f"])
        bracket = rk_bracket(alpha, a_n, f_n)
        bounds.append(_ratio_audit(
            "d3v_exact", case_norms["exact"]["d3v_l2"], bracket / alpha
        ))
        bounds.append(_ratio_audit(
            "d2p_exact", case_norms["exact"]["d2p_l2"], anorm * bracket / alpha
        ))
        norms["rk_k2"] = rk_evaluate(alpha, lam1, a_n, f_n, 2)

    return {
        "alpha": alpha,
        "anorm_inf": anorm,
        "lambda1": lam1,
        "norms": norms,
        "bounds": [b.as_dict() for b in bounds],
        "solver": dict(result.stats, residual=result.residual),
    }
