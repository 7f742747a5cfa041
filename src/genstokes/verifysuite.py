"""Seeded property suite behind the ``verify`` subcommand.

Each property draws its own data from one seeded generator and reports a
pass flag plus a short numeric detail.  The checks mirror the pointwise
identities (symmetrization, the product operator bound, the cofactor
inverse, derivative formulas), the admissible-set classification against
brute-force sign sampling, the discrete Korn identity, the coercivity
sandwich of the assembled velocity block, and the explicit constitutive
norm bounds.

The suite runs on numpy alone: the sandwich takes u^t K u from the
assembled entries (``SaddleSystem.energy``), and the unimodular paths take
e^{tC} from a scaling-and-squaring Taylor exponential (``_expm``), so
``verify`` loads no scipy module.
"""

from __future__ import annotations

import math

import numpy as np

from .assembly import assemble, korn_terms
from .constitutive import MuTriple, audit_bounds, g_eval, shipped_smooth_fields
from .ellipticity import alpha_field, classify
from .fem import TaylorHoodSpace, build_mesh, cell_centres
from .fields import TensorField
from .tensors import (
    SymTensor3,
    ch_inverse,
    d2_inverse,
    d_inverse,
    eig_sym3,
    invariants,
    lop,
    symmetrize,
)
from .verification import make_anisotropic_case

__all__ = ["run_suite", "CASE_REPRESENTATIVES"]

# one representative parameter triple per documented scenario
CASE_REPRESENTATIVES = {
    "i": MuTriple(-1.0, 1.0, 1.0),
    "ii": MuTriple(-2.5, 4.0, 0.25),
    "iii": MuTriple(1.0, 0.0, 2.0),
    "iv": MuTriple(-1.0, 0.0, 2.0),
    "v": MuTriple(1.0, -1.0, 1.0),
    "vi": MuTriple(1.0, 2.0, 0.0),
    "vii": MuTriple(-1.0, 2.0, 0.0),
    "viii": MuTriple(1.0, -0.5, 0.0),
    "ix": MuTriple(0.5, 1.0, -0.5),
    "x": MuTriple(3.0, -1.0, -1.0),
    "xi": MuTriple(2.0, 0.0, -1.0),
}


def random_spd(rng, cond_max=1e4, unimodular=False) -> SymTensor3:
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    half = 0.5 * math.log(cond_max)
    d = np.exp(rng.uniform(-half, half, size=3))
    m = (q * d) @ q.T
    if unimodular:
        m = m / np.linalg.det(m) ** (1.0 / 3.0)
    return SymTensor3.from_matrix(0.5 * (m + m.T))


# Taylor degree of ``_expm`` on a matrix scaled to 1-norm at most 1/2: the
# remainder is under 0.5^17 / 17! (2e-20) relative
_EXPM_DEGREE = 16


def _expm(a: np.ndarray) -> np.ndarray:
    """e^a of a small square matrix: the degree-``_EXPM_DEGREE`` Taylor
    polynomial of a / 2^s, with s the least that makes its 1-norm at most
    1/2, squared s times."""
    s = max(0, math.frexp(float(np.abs(a).sum(axis=0).max()))[1] + 1)
    x, eye = a / 2.0**s, np.eye(a.shape[0])
    e = eye
    for k in range(_EXPM_DEGREE, 0, -1):
        e = eye + (x @ e) / k
    for _ in range(s):
        e = e @ e
    return e


def unimodular_path(rng, scale=0.5):
    """B(t) = e^{tC} B0 e^{tC^t} with trace-free C keeps det B(t) = det B0."""
    b0 = random_spd(rng, cond_max=100.0, unimodular=True)
    c = rng.standard_normal((3, 3)) * scale
    c -= np.trace(c) / 3.0 * np.eye(3)

    def b_at(t):
        e = _expm(t * c)
        return e @ b0.to_matrix() @ e.T

    b0m = b0.to_matrix()
    db = c @ b0m + b0m @ c.T
    d2b = c @ c @ b0m + 2.0 * c @ b0m @ c.T + b0m @ c.T @ c.T
    return b0, SymTensor3.from_matrix(db), SymTensor3.from_matrix(d2b), b_at


def _prop(name, ok, detail) -> dict:
    return {"name": name, "pass": bool(ok), "detail": detail}


def run_suite(seed: int = 0, trials: int = 50) -> dict:
    """Run every property; returns {"seed", "properties", "all_pass"}."""
    rng = np.random.default_rng(seed)
    props = []

    # symmetrization of a rank-one tensor
    worst = 0.0
    for _ in range(trials):
        xi = rng.standard_normal(3)
        eta = rng.standard_normal(3)
        m = np.outer(xi, eta)
        s = symmetrize(m)
        lhs = s.ddot(s)
        rhs = 0.5 * float(np.tensordot(m, m)) + 0.5 * np.trace(m) ** 2
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    props.append(_prop("symmetrize_rank_one_identity", worst < 1e-12,
                       f"max rel err {worst:.2e}"))

    # product operator: contraction identity, lower bound, antisymmetric kernel
    worst_id, worst_lb, worst_anti = 0.0, 0.0, 0.0
    for _ in range(trials):
        a = random_spd(rng, cond_max=100.0)
        m = rng.standard_normal((3, 3))
        lm = lop(a, m)
        s = symmetrize(m)
        lhs = float(np.tensordot(lm.to_matrix(), m))
        worst_id = max(worst_id, abs(lhs - lm.ddot(s)) / max(abs(lhs), 1e-30))
        lam_min = eig_sym3(a).l1
        gap = lhs - 2.0 * lam_min * s.ddot(s)
        worst_lb = max(worst_lb, -gap)
        anti = m - m.T
        worst_anti = max(worst_anti, lop(a, anti).max_abs())
    props.append(_prop("lop_contraction_identity", worst_id < 1e-12,
                       f"max rel err {worst_id:.2e}"))
    props.append(_prop("lop_lower_bound", worst_lb < 1e-10,
                       f"worst margin violation {worst_lb:.2e}"))
    props.append(_prop("lop_antisymmetric_kernel", worst_anti < 1e-12,
                       f"max |L| {worst_anti:.2e}"))

    # the inverse adj(B) / det B and eigenvalue reconstruction
    worst_inv, worst_rec = 0.0, 0.0
    for _ in range(trials):
        b = random_spd(rng)
        binv = ch_inverse(b)
        worst_inv = max(worst_inv, float(np.max(np.abs(
            b.to_matrix() @ binv.to_matrix() - np.eye(3)))))
        ev = eig_sym3(b)
        inv = invariants(b)
        scale = max(abs(inv.i1), abs(inv.i2), abs(inv.i3), 1.0)
        worst_rec = max(
            worst_rec,
            abs(ev.l1 + ev.l2 + ev.l3 - inv.i1) / scale,
            abs(ev.l1 * ev.l2 + ev.l1 * ev.l3 + ev.l2 * ev.l3 - inv.i2) / scale,
            abs(ev.l1 * ev.l2 * ev.l3 - inv.i3) / scale,
        )
    props.append(_prop("ch_inverse_product", worst_inv < 1e-9,
                       f"max |B Binv - I| {worst_inv:.2e}"))
    props.append(_prop("eigenvalue_reconstruction", worst_rec < 1e-10,
                       f"max rel err {worst_rec:.2e}"))

    # derivative formulas against central finite differences
    worst_d1, worst_d2 = 0.0, 0.0
    for _ in range(min(trials, 25)):
        b0, db, d2b, b_at = unimodular_path(rng)
        h = 1e-5
        fd1 = (ch_inverse(SymTensor3.from_matrix(b_at(h))).to_matrix()
               - ch_inverse(SymTensor3.from_matrix(b_at(-h))).to_matrix()) / (2 * h)
        an1 = d_inverse(b0, db).to_matrix()
        worst_d1 = max(worst_d1, np.max(np.abs(an1 - fd1)) /
                       max(np.max(np.abs(fd1)), 1e-30))
        h = 1e-4
        fd2 = (
            ch_inverse(SymTensor3.from_matrix(b_at(h))).to_matrix()
            - 2 * ch_inverse(b0).to_matrix()
            + ch_inverse(SymTensor3.from_matrix(b_at(-h))).to_matrix()
        ) / h**2
        an2 = d2_inverse(b0, db, db, d2b).to_matrix()
        worst_d2 = max(worst_d2, np.max(np.abs(an2 - fd2)) /
                       max(np.max(np.abs(fd2)), 1e-30))
    props.append(_prop("d_inverse_fd", worst_d1 < 1e-6,
                       f"max rel err {worst_d1:.2e}"))
    props.append(_prop("d2_inverse_fd", worst_d2 < 1e-4,
                       f"max rel err {worst_d2:.2e}"))

    # admissible-set classification against brute-force sign sampling
    lams = np.logspace(-6, 6, 1000)
    bad = 0
    triples = list(CASE_REPRESENTATIVES.values())
    for _ in range(trials * 4):
        mu = MuTriple(*rng.uniform(-3, 3, size=3))
        if mu.thermodynamically_admissible:
            triples.append(mu)
    for mu in triples:
        _, lam_set = classify(mu)
        g = mu.mu1 + mu.mu2 * lams + mu.mu3 / lams
        member = lam_set.contains(lams)
        # skip samples within roundoff of a boundary root
        safe = np.abs(g) > 1e-9 * (abs(mu.mu1) + abs(mu.mu2) * lams
                                   + abs(mu.mu3) / lams)
        bad += int(np.count_nonzero(member[safe] != (g[safe] > 0)))
        c = float(rng.uniform(0.1, 10.0))
        _, scaled = classify(MuTriple(c * mu.mu1, c * mu.mu2, c * mu.mu3))
        if scaled.intervals != lam_set.intervals:
            rel = max(
                abs(a - b) / max(abs(a), abs(b), 1e-30)
                for (a0, a1), (b0, b1) in zip(scaled.intervals, lam_set.intervals)
                for a, b in ((a0, b0), (a1, b1))
                if math.isfinite(a) or math.isfinite(b)
            )
            if rel > 1e-12:
                bad += 1
    props.append(_prop("classification_sign_sampling", bad == 0,
                       f"{bad} disagreements"))

    # alpha on constant fields equals brute force over eigenvalues
    worst = 0.0
    pts = cell_centres((1.0, 1.0, 1.0), 2)
    for _ in range(trials):
        b = random_spd(rng, cond_max=100.0)
        mu = MuTriple(*rng.uniform(0.1, 2.0, size=3))
        rep = alpha_field(mu, TensorField.constant(b), pts)
        ev = eig_sym3(b)
        brute = min(g_eval(mu, l) for l in (ev.l1, ev.l2, ev.l3))
        worst = max(worst, abs(rep.alpha - brute) / max(abs(brute), 1e-30))
    props.append(_prop("alpha_constant_brute_force", worst < 1e-10,
                       f"max rel err {worst:.2e}"))

    # discrete Korn identity and coercivity sandwich on the 3x3x3 unit-cube mesh
    mesh = build_mesh(3, 3, 3, 1.0, 1.0, 1.0)
    space = TaylorHoodSpace(mesh)
    worst = 0.0
    for _ in range(trials):
        u = np.zeros(space.n_velocity)
        idx = space.interior_idx
        u[idx] = rng.standard_normal(idx.size)
        dd, gg, div2 = korn_terms(space, u)
        worst = max(worst, abs(dd - 0.5 * gg - 0.5 * div2) / max(dd, 1e-30))
    props.append(_prop("korn_identity", worst < 1e-10,
                       f"max rel residual {worst:.2e}"))

    aniso = make_anisotropic_case()
    coeff_choices = [
        (MuTriple(1.0, 0.0, 0.0), TensorField.identity(), "identity"),
        (MuTriple(1.0, 1.0, 1.0),
         TensorField.constant(SymTensor3.diag(2.0, 0.5, 1.0)), "constant diag"),
        (MuTriple(1.0, 1.0, 1.0), aniso.b_field, "smooth shear"),
    ]
    worst_lo, worst_hi = 0.0, 0.0
    for mu, b, _label in coeff_choices:
        system = assemble(mesh, space, mu, b)
        for _ in range(trials):
            ui = rng.standard_normal(system.n_interior)
            u = system.expand_velocity(ui)
            _, gg, _ = korn_terms(space, u)
            energy = system.energy(ui)
            worst_lo = max(worst_lo, system.alpha * gg - energy)
            worst_hi = max(worst_hi, energy - 2.0 * system.anorm_inf * gg)
    props.append(_prop("coercivity_lower", worst_lo < 1e-9,
                       f"worst violation {worst_lo:.2e}"))
    props.append(_prop("coercivity_upper", worst_hi < 1e-9,
                       f"worst violation {worst_hi:.2e}"))

    # explicit constitutive bounds on random constant fields + shipped fields,
    # at the centres of the 8^3 cells of the unit cube
    pts = cell_centres((1.0, 1.0, 1.0), 8)
    n_fail = 0
    for _ in range(trials):
        b = TensorField.constant(random_spd(rng, unimodular=True))
        mu = MuTriple(*rng.uniform(0.1, 2.0, size=3))
        for audit in audit_bounds(mu, b, pts):
            if audit.satisfied is False:
                n_fail += 1
    for name, fld in shipped_smooth_fields().items():
        for audit in audit_bounds(MuTriple(1.0, 1.0, 1.0), fld, pts):
            if audit.satisfied is False:
                n_fail += 1
    props.append(_prop("explicit_norm_bounds", n_fail == 0,
                       f"{n_fail} violated audits"))

    return {
        "seed": int(seed),
        "properties": props,
        "all_pass": all(p["pass"] for p in props),
    }
