"""Constitutive operator construction and the explicit norm audits."""

import math

import numpy as np
import pytest

from genstokes import constitutive
from genstokes.constitutive import (
    MuTriple,
    acal,
    acal_values,
    audit_bounds,
    coefficient_derivatives,
    g_eval,
    shipped_smooth_fields,
)
from genstokes.errors import DomainError, SingularTensor
from genstokes.fields import (ScalarField, TensorField, _field_jets,
                              _symmetric_stack, write_grid_file)
from genstokes.tensors import (UNIMODULAR_TOL, SymTensor3, ch_inverse_batch,
                               d2_inverse_batch, d_inverse_batch, eig_sym3,
                               unimodular_batch)
from genstokes.verification import SHIPPED_CASES

from test_tensors import as_array, random_spd
from test_verification import _DET2_B


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
        got = np.sort(as_array(eig_sym3(a)))
        want = np.sort([g_eval(mu, lam) for lam in as_array(eig_sym3(b))])
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


def test_audit_bounds_audits_derivatives_of_every_shipped_field():
    # under a varying mu2 too, every shipped field gets the derivative audits
    fields = shipped_smooth_fields()
    mu = (ScalarField.constant(1.0), ScalarField.expression("1 + 0.1*x*y"),
          ScalarField.constant(1.0))
    for fld in fields.values():
        ids = {a.id for a in audit_bounds(mu, fld, grid_points(4))}
        assert {"d_acal_linf", "d2_acal_l3"} <= ids


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


def _central_differences(f, pts, h):
    """First and second central differences of f: (N, 3) -> (N, ...), laid
    out like grad (N, 3, ...) and hess (N, 3, 3, ...)."""
    e = h * np.eye(3)
    d1 = np.stack([(f(pts + e[k]) - f(pts - e[k])) / (2 * h) for k in range(3)], 1)
    d2 = np.stack([np.stack([
        (f(pts + e[k] + e[l]) - f(pts + e[k] - e[l])
         - f(pts - e[k] + e[l]) + f(pts - e[k] - e[l])) / (4 * h * h)
        for l in range(3)], 1) for k in range(3)], 1)
    return d1, d2


def test_acal_derivatives_match_central_differences():
    # the jets' dA and d2A, and the audits read from them, against
    # finite differences of A itself, with every mu_k varying
    mu = (ScalarField.expression("1 + 0.5*sin(pi*x)*y"),
          ScalarField.expression("0.8 + 0.2*cos(pi*z)*x"),
          ScalarField.expression("0.6 + 0.3*x*y*z"))
    fld = shipped_smooth_fields()["double_shear"]
    pts = grid_points(4)
    *_, a_jet = coefficient_derivatives(mu, fld, pts, fld.eval(pts), order=2)
    f = lambda p: acal_values(mu, fld, p)
    da_fd, _ = _central_differences(f, pts, 1e-5)
    _, d2a_fd = _central_differences(f, pts, 1e-4)
    assert np.max(np.abs(a_jet[1] - da_fd)) <= 1e-8 * np.max(np.abs(da_fd))
    assert np.max(np.abs(a_jet[2] - d2a_fd)) <= 1e-6 * np.max(np.abs(d2a_fd))

    by_id = {a.id: a for a in audit_bounds(mu, fld, pts)}
    assert by_id["d_acal_linf"].lhs == pytest.approx(np.max(np.abs(da_fd)), rel=1e-8)
    # sampled L3 over the unit box: per component, the mean of |.|^3
    l3 = np.sum(np.mean(np.abs(d2a_fd.reshape(len(pts), -1)) ** 3, axis=0)) ** (1 / 3)
    assert by_id["d2_acal_l3"].lhs == pytest.approx(l3, rel=1e-6)


def test_audit_bounds_evaluates_each_field_once(monkeypatch):
    # B is evaluated and inverted once per audit; each mu_k is evaluated,
    # differentiated and twice differentiated at most once
    calls = []

    def spy(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    fld = shipped_smooth_fields()["shear_xy"]
    mu = tuple(ScalarField.expression(t) for t in ("1 + 0.1*x", "1", "0.5 + 0.1*y"))
    monkeypatch.setattr(fld, "eval", spy("b.eval", fld.eval))
    monkeypatch.setattr(constitutive, "ch_inverse_batch",
                        spy("ch_inverse_batch", constitutive.ch_inverse_batch))
    for k, f in enumerate(mu):
        for name in ("eval", "grad", "hess"):
            monkeypatch.setattr(f, name, spy(f"mu{k}.{name}", getattr(f, name)))
    audits = audit_bounds(mu, fld, grid_points(4))
    assert "d2_acal_l3" in {a.id for a in audits}
    assert calls.count("b.eval") == 1
    assert calls.count("ch_inverse_batch") == 1
    assert max(calls.count(c) for c in set(calls)) == 1


def test_inverse_jets_match_the_unimodular_formulas():
    # the paper's dB^{-1} and d2B^{-1} for det B = 1 as the oracle of the
    # jets of adj(B) / det(B)
    pts = grid_points(8)
    mu = MuTriple(1.0, 1.0, 1.0)
    for name, fld in shipped_smooth_fields().items():
        _, (b, db, d2b), (_, dinv, d2inv), _ = coefficient_derivatives(
            mu, fld, pts, fld.eval(pts), order=2)
        want = d_inverse_batch(b[:, None], db)
        want2 = d2_inverse_batch(b[:, None, None], db[:, :, None], db[:, None, :], d2b)
        assert np.max(np.abs(dinv - want)) <= 1e-13 * np.max(np.abs(want)), name
        assert np.max(np.abs(d2inv - want2)) <= 1e-13 * np.max(np.abs(want2)), name
    # off the unimodular set the audited bounds do not apply: no derivatives
    det2 = TensorField.expression(_DET2_B)
    assert not unimodular_batch(det2.eval(pts)).any()
    assert coefficient_derivatives(mu, det2, pts, det2.eval(pts), order=2) is None


@pytest.mark.parametrize("order", [0, 2])
def test_inverse_values_are_bitwise_the_inverse_jets(order):
    # ch_inverse_batch and the jets of B^{-1} run one cofactor expansion and
    # both multiply by 1/det, so the values agree to the bit, signed zeros
    # included; a kernel that divides by det differs in the last bit
    pts = grid_points(9)
    mu_jets = _field_jets(constitutive._mu_fields(MuTriple(1.0, 1.0, 1.0)), pts, order)
    for name, fld in shipped_smooth_fields().items():
        inv, _ = constitutive._coefficient_jets(mu_jets, fld.jets(pts, order), order)
        jets = _symmetric_stack(inv, len(pts), 0, order)
        values = ch_inverse_batch(fld.eval(pts))
        assert np.array_equal(values.view(np.uint64), jets.view(np.uint64)), name


def test_unimodular_verdict_is_that_of_the_lu_determinant():
    # unimodular_batch reads the cofactor determinant; on the shipped fields,
    # both manufactured cases and a det-2 field it says what LAPACK's LU
    # determinant says, sample by sample
    pts = grid_points(16)
    fields = [*shipped_smooth_fields().values(), TensorField.expression(_DET2_B),
              *(make().b_field for make in SHIPPED_CASES.values())]
    for fld in fields:
        bvals = fld.eval(pts)
        lu = np.abs(np.linalg.det(bvals) - 1.0) <= UNIMODULAR_TOL
        assert np.array_equal(unimodular_batch(bvals), lu)


def test_constant_b_has_zero_derivatives_and_a_varying_grid_must_be_unimodular(
        tmp_path):
    pts = grid_points(4)
    mu = MuTriple(1.0, 1.0, 1.0)
    const = TensorField.constant(SymTensor3.diag(2.0, 0.5, 3.0))  # det 3
    _, (_, db, d2b), (_, dinv, d2inv), (_, da, d2a) = coefficient_derivatives(
        mu, const, pts, const.eval(pts), order=2)
    assert not any(t.any() for t in (db, d2b, dinv, d2inv, da, d2a))
    # a grid B with det 2 at every node: refused before any jet is computed
    values = np.zeros((3, 4, 3, 6))
    values[..., :3] = [2.0, 1.0, 1.0]
    values[..., 3] = 0.1 * np.linspace(0.0, 1.0, 3)[:, None, None]
    write_grid_file(tmp_path / "b.txt", values, (1.0, 1.0, 1.0))
    grid = TensorField.from_file(tmp_path / "b.txt")
    bvals = grid.eval(pts)
    orders, jets = [], grid.components["a11"].jets

    def spy(p, order):
        orders.append(order)
        return jets(p, order)

    for comp in grid.components.values():
        comp.jets = spy
    assert coefficient_derivatives(mu, grid, pts, bvals, order=2) is None
    assert orders == []
