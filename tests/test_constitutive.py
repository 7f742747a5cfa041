"""Constitutive operator construction and the explicit norm audits."""

import math

import numpy as np
import pytest

from genstokes.constitutive import (
    MuTriple,
    acal,
    acal_values,
    audit_bounds,
    g_eval,
    shipped_smooth_fields,
)
from genstokes.errors import DomainError, NonDifferentiableField, SingularTensor
from genstokes.fields import ScalarField, TensorField
from genstokes.tensors import SymTensor3, eig_sym3, unimodular_batch

from test_tensors import random_spd


def grid_points(n, box=(1.0, 1.0, 1.0)):
    axes = [np.linspace(0, b, n + 1)[:-1] + b / (2 * n) for b in box]
    g = np.meshgrid(*axes, indexing="ij")
    return np.stack([x.ravel() for x in g], axis=-1)


# ---------------------------------------------------------------------------
# pointwise operator


def test_acal_identity_all_ones():
    a = acal(MuTriple(1.0, 1.0, 1.0), TensorField.identity(), (0.2, 0.3, 0.4))
    assert np.allclose(a.to_matrix(), 3.0 * np.eye(3))


def test_acal_diagonal():
    b = TensorField.constant(SymTensor3.diag(2.0, 0.5, 1.0))
    a = acal(MuTriple(1.0, 1.0, 1.0), b, (0.0, 0.0, 0.0))
    assert np.allclose(a.to_matrix(), np.diag([3.5, 3.5, 3.0]))


def test_acal_newtonian_limit():
    rng = np.random.default_rng(1)
    b = TensorField.constant(random_spd(rng))
    a = acal(MuTriple(1.0, 0.0, 0.0), b, (0.5, 0.5, 0.5))
    assert np.allclose(a.to_matrix(), np.eye(3), atol=1e-14)


def test_acal_mu1_only_is_exact():
    rng = np.random.default_rng(2)
    for _ in range(20):
        b = TensorField.constant(random_spd(rng))
        a = acal(MuTriple(0.7, 0.0, 0.0), b, (0.1, 0.1, 0.1))
        assert np.array_equal(a.to_matrix(), 0.7 * np.eye(3))


def test_acal_singular_propagates():
    b = TensorField.constant(SymTensor3.diag(1.0, 1.0, 0.0))
    with pytest.raises(SingularTensor):
        acal(MuTriple(1.0, 0.0, 1.0), b, (0.0, 0.0, 0.0))


def test_acal_spectral_commutation():
    # eigenvalues of A(B) are g applied to the eigenvalues of B
    rng = np.random.default_rng(3)
    for _ in range(100):
        b = random_spd(rng, cond_max=100.0)
        mu = MuTriple(*rng.uniform(0.1, 2.0, size=3))
        a = acal(mu, TensorField.constant(b), (0.0, 0.0, 0.0))
        got = np.sort(eig_sym3(a).as_array())
        want = np.sort([g_eval(mu, lam) for lam in eig_sym3(b).as_array()])
        assert np.allclose(got, want, rtol=1e-9, atol=1e-9)


def test_g_eval_values():
    assert g_eval(MuTriple(1.0, 1.0, 1.0), 1.0) == pytest.approx(3.0)
    # root of 4 lam^2 - 2.5 lam + 0.25 at lam = 1/2
    assert g_eval(MuTriple(-2.5, 4.0, 0.25), 0.5) == pytest.approx(0.0, abs=1e-15)
    assert g_eval(MuTriple(1.0, 0.0, 0.0), 17.3) == pytest.approx(1.0)


def test_g_eval_domain():
    with pytest.raises(DomainError):
        g_eval(MuTriple(1.0, 1.0, 1.0), 0.0)
    with pytest.raises(DomainError):
        g_eval(MuTriple(1.0, 1.0, 1.0), -2.0)


def test_thermodynamic_flag():
    assert MuTriple(1.0, -1.0, 1.5).thermodynamically_admissible
    assert not MuTriple(1.0, -1.0, -1.0).thermodynamically_admissible


# ---------------------------------------------------------------------------
# norm audits


def test_audit_identity_field():
    audits = audit_bounds(MuTriple(1.0, 1.0, 1.0), TensorField.identity(),
                          grid_points(2))
    by_id = {a.id: a for a in audits}
    a = by_id["binv_linf"]
    assert a.lhs == pytest.approx(1.0)
    assert a.rhs == pytest.approx(15.0)
    assert a.satisfied


def test_audit_constant_diagonal():
    b = TensorField.constant(SymTensor3.diag(2.0, 0.5, 1.0))
    audits = audit_bounds(MuTriple(1.0, 1.0, 1.0), b, grid_points(2))
    by_id = {a.id: a for a in audits}
    a = by_id["binv_linf"]
    assert a.lhs == pytest.approx(2.0)
    assert a.rhs == pytest.approx(15.0 * 1.0 * 4.0)
    assert a.satisfied


def test_audit_random_constant_unimodular():
    rng = np.random.default_rng(9)
    pts = grid_points(2)
    for _ in range(100):
        b = TensorField.constant(random_spd(rng, unit_det=True))
        mu = MuTriple(*rng.uniform(0.1, 2.0, size=3))
        for a in audit_bounds(mu, b, pts):
            if a.satisfied is not None:
                assert a.satisfied, f"{a.id}: {a.lhs} > {a.rhs}"


def test_audit_shipped_fields_16cubed():
    pts = grid_points(16)
    for name, fld in shipped_smooth_fields().items():
        assert unimodular_batch(fld.eval(pts)).all()
        audits = audit_bounds(MuTriple(1.0, 1.0, 1.0), fld, pts)
        by_id = {a.id: a for a in audits}
        for key in ("binv_linf", "acal_linf", "d_binv_linf", "d_acal_linf"):
            assert by_id[key].satisfied, f"{name}/{key}"
        # ratio family present for unimodular smooth fields
        for key in ("binv_l3", "d_binv_l3", "d2_binv_l3", "d2_acal_l3", "binv_l2"):
            assert by_id[key].ratio is not None and math.isfinite(by_id[key].ratio)


def test_audit_bounds_needs_no_symbolic_differentiation(monkeypatch):
    # field derivatives come from the Taylor pass; once the fields exist the
    # audits neither differentiate nor lambdify anything
    import sympy

    fields = shipped_smooth_fields()
    mu = (ScalarField.constant(1.0), ScalarField.expression("1 + 0.1*x*y"),
          ScalarField.constant(1.0))

    def refuse(*args, **kwargs):
        raise AssertionError("symbolic work inside audit_bounds")

    monkeypatch.setattr(sympy, "diff", refuse)
    monkeypatch.setattr(sympy, "lambdify", refuse)
    for fld in fields.values():
        ids = {a.id for a in audit_bounds(mu, fld, grid_points(4))}
        assert {"d_acal_linf", "d2_acal_l3"} <= ids


def test_audit_requires_derivatives_on_constant_data():
    b = TensorField.constant(SymTensor3.diag(1.0, 1.0, 1.0))
    with pytest.raises(NonDifferentiableField):
        audit_bounds(MuTriple(1.0, 1.0, 1.0), b, grid_points(2),
                     derivatives="require")


def test_audit_skip_derivatives():
    audits = audit_bounds(MuTriple(1.0, 1.0, 1.0), TensorField.identity(),
                          grid_points(2), derivatives="skip")
    assert {a.id for a in audits} == {"binv_linf", "acal_linf"}


def test_audit_mu_fields_variable():
    mu = (ScalarField.expression("1 + 0.5*sin(pi*x)"),
          ScalarField.constant(1.0),
          ScalarField.expression("0.5 + 0.25*cos(pi*z)"))
    fld = shipped_smooth_fields()["shear_xy"]
    audits = audit_bounds(mu, fld, grid_points(8))
    by_id = {a.id: a for a in audits}
    for key in ("binv_linf", "acal_linf", "d_binv_linf", "d_acal_linf"):
        assert by_id[key].satisfied, key


def test_acal_values_batch_matches_pointwise():
    rng = np.random.default_rng(11)
    fld = shipped_smooth_fields()["double_shear"]
    mu = MuTriple(1.0, 0.8, 0.6)
    pts = rng.uniform(0.1, 0.9, size=(10, 3))
    batch = acal_values(mu, fld, pts)
    for k, p in enumerate(pts):
        single = acal(mu, fld, p).to_matrix()
        assert np.allclose(batch[k], single, rtol=1e-12, atol=1e-14)
