"""Manufactured forcing, dimensional norms, and the diagnostic scalar."""

import math
import time

import numpy as np
import pytest
import sympy as sp
from conftest import traced_peak

from genstokes import assembly, constitutive, verification
from genstokes.assembly import assemble
from genstokes.constitutive import MuTriple, coefficient_derivatives
from genstokes.errors import ConfigError, InvalidDimensions, MissingNormInput
from genstokes.fem import TaylorHoodSpace, build_mesh, lattice_points
from genstokes.fields import COMPONENT_ORDER, ScalarField, TensorField
from genstokes.solver import minres_solve
from genstokes.verification import (
    audit_estimates,
    broken_h1_pressure,
    broken_h2_velocity,
    case_norm_suite,
    derivative_lp,
    dim_norm,
    errors_against_exact,
    lambda1_box,
    make_anisotropic_case,
    make_classical_case,
    MMSCase,
    rk_bracket,
    rk_evaluate,
    run_convergence,
)

_SYMS = sp.symbols("x y z")


def fd4_second(fn, x, axis, h):
    """Fourth-order second derivative along one axis."""
    e = np.zeros(3)
    e[axis] = 1.0
    return (
        -fn(x + 2 * h * e) + 16 * fn(x + h * e) - 30 * fn(x)
        + 16 * fn(x - h * e) - fn(x - 2 * h * e)
    ) / (12 * h * h)


def fd4_first(fn, x, axis, h):
    e = np.zeros(3)
    e[axis] = 1.0
    return (
        -fn(x + 2 * h * e) + 8 * fn(x + h * e)
        - 8 * fn(x - h * e) + fn(x - 2 * h * e)
    ) / (12 * h)


# ---------------------------------------------------------------------------
# manufactured cases


def _sympy_matrix(b_texts):
    """The symmetric sympy matrix of a case's B texts (None: the identity)."""
    if b_texts is None:
        return sp.eye(3)
    comps = {name: sp.sympify(b_texts.get(name, "0")) for name in COMPONENT_ORDER}
    return sp.Matrix([[comps["a11"], comps["a12"], comps["a13"]],
                      [comps["a12"], comps["a22"], comps["a23"]],
                      [comps["a13"], comps["a23"], comps["a33"]]])


def _sympy_forcing(case):
    """Oracle: f = grad p - div(D(v) A + A D(v)) by sp.diff of the case's texts."""
    v = [sp.sympify(t) for t in case.v_texts]
    p = sp.sympify(case.p_text)
    b = _sympy_matrix(case.b_texts)
    mu = case.mu
    a = mu.mu1 * sp.eye(3) + mu.mu2 * b + mu.mu3 * b.adjugate() / b.det()
    gradv = sp.Matrix(3, 3, lambda i, j: sp.diff(v[i], _SYMS[j]))
    t = (gradv + gradv.T) / 2 * a + a * (gradv + gradv.T) / 2
    return [sp.diff(p, _SYMS[i]) - sum(sp.diff(t[i, j], _SYMS[j]) for j in range(3))
            for i in range(3)]


def _boundary_trace_max(v_field, box, n: int = 13) -> float:
    """Max |v| over a dense sampling of the six box faces."""
    lin = [np.linspace(0, L, n) for L in box]
    worst = 0.0
    for axis, L in enumerate(box):
        for val in (0.0, L):
            axes = list(lin)
            axes[axis] = np.array([val])
            pts = lattice_points(axes)
            worst = max(worst, float(np.max(np.abs(v_field.eval(pts)))))
    return worst


def test_shipped_cases_are_admissible():
    for make in (make_classical_case, make_anisotropic_case):
        case = make()
        v = [sp.sympify(t) for t in case.v_texts]
        assert sp.expand(sum(sp.diff(v[i], _SYMS[i]) for i in range(3))) == 0
        assert _boundary_trace_max(case.v_field, (1.0, 1.0, 1.0)) <= 1e-12
        if case.b_texts is not None:
            assert sp.expand(_sympy_matrix(case.b_texts).det() - 1) == 0


# B = F F^T with F = [[sqrt 2, g, h], [0, 1, k], [0, 0, 1]]: det B = 2, so the
# adjugate / det path runs off the unimodular set
_DET2_B = {"a11": "2 + (sin(pi*x)*y)**2 + (x*y*z/10)**2",
           "a12": "sin(pi*x)*y + x*y*z/10*sin(pi*z)/5", "a13": "x*y*z/10",
           "a22": "1 + (sin(pi*z)/5)**2", "a23": "sin(pi*z)/5", "a33": "1"}


@pytest.mark.parametrize("make", [
    make_classical_case, make_anisotropic_case,
    lambda: MMSCase("det2", make_anisotropic_case().v_texts, "cos(pi*x)*y",
                    MuTriple(1.0, 1.0, 0.5), _DET2_B),
], ids=["classical", "anisotropic", "det2"])
def test_forcing_matches_symbolic_oracle(make):
    case = make()
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.0, 1.0, size=(200, 3))
    want = np.stack([np.broadcast_to(sp.lambdify(_SYMS, f, "numpy")(*pts.T), len(pts))
                     for f in _sympy_forcing(case)], axis=-1)
    got = case.f_field.eval(pts)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_det2_coefficient_matches_symbolic_oracle():
    b = _sympy_matrix(_DET2_B)
    assert sp.expand(b.det()) == 2
    case = MMSCase("det2", make_anisotropic_case().v_texts, "0",
                   MuTriple(0.5, 1.0, 2.0), _DET2_B)
    a = 0.5 * sp.eye(3) + b + 2.0 * b.adjugate() / b.det()
    pts = np.random.default_rng(12).uniform(0.0, 1.0, size=(50, 3))
    got, got_h = case.a_field.eval(pts), case.a_field.hess(pts)
    for i, j in [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]:
        want = sp.lambdify(_SYMS, a[i, j], "numpy")(*pts.T)
        np.testing.assert_allclose(got[:, i, j], want, rtol=0,
                                   atol=1e-13 * np.max(np.abs(got)))
        for k in range(3):
            for m in range(3):
                d2 = sp.lambdify(_SYMS, sp.diff(a[i, j], _SYMS[k], _SYMS[m]), "numpy")
                want = np.broadcast_to(d2(*pts.T), len(pts))
                np.testing.assert_allclose(got_h[:, k, m, i, j], want, rtol=0,
                                           atol=1e-12 * np.max(np.abs(got_h)))


def test_zero_solution_zero_forcing():
    # v = 0 and p = 0 give f = 0 exactly, whatever A
    case = MMSCase("zero", ("0", "0", "0"), "0", MuTriple(1.0, 1.0, 1.0), _DET2_B)
    pts = np.random.default_rng(1).uniform(size=(20, 3))
    assert np.array_equal(case.f_field.eval(pts), np.zeros((20, 3)))


def test_classical_forcing_matches_fd_oracle():
    # A = I reduces the strong form to f = -lap v + grad p
    case = make_classical_case()
    v = case.v_field
    p = case.p_field
    rng = np.random.default_rng(2)
    pts = rng.uniform(0.15, 0.85, size=(100, 3))
    got = case.f_field.eval(pts)
    h = 1e-2
    want = np.empty_like(got)
    for k, x in enumerate(pts):
        lap = np.zeros(3)
        for axis in range(3):
            lap += fd4_second(lambda y: v.eval(y[None, :])[0], x, axis, h)
        gp = np.array([
            fd4_first(lambda y: p.eval(y[None, :])[0], x, axis, h)
            for axis in range(3)
        ])
        want[k] = -lap + gp
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) / scale < 1e-7


def test_anisotropic_forcing_matches_unexpanded_form():
    # finite differences applied to the original three-term divergence form:
    # f = -mu1 lap v - mu2 div(D B + B D) - mu3 div(D Binv + Binv D) + grad p
    case = make_anisotropic_case()
    v = case.v_field
    p = case.p_field
    mu = case.mu
    b = case.b_field
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.2, 0.8, size=(40, 3))
    got = case.f_field.eval(pts)

    def tensor_terms(x):
        gv = v.grad(x[None, :])[0]
        d = 0.5 * (gv + gv.T)
        bm = b.eval(x[None, :])[0]
        binv = np.linalg.inv(bm)
        t_b = d @ bm + bm @ d
        t_binv = d @ binv + binv @ d
        return t_b, t_binv

    h = 1e-3
    want = np.empty_like(got)
    for k, x in enumerate(pts):
        lap = np.zeros(3)
        for axis in range(3):
            lap += fd4_second(lambda y: v.eval(y[None, :])[0], x, axis, h)
        div_b = np.zeros(3)
        div_binv = np.zeros(3)
        for axis in range(3):
            tb_d = fd4_first(lambda y: tensor_terms(y)[0], x, axis, h)
            tbi_d = fd4_first(lambda y: tensor_terms(y)[1], x, axis, h)
            div_b += tb_d[:, axis]
            div_binv += tbi_d[:, axis]
        gp = np.array([
            fd4_first(lambda y: p.eval(y[None, :])[0], x, axis_i, h)
            for axis_i in range(3)
        ])
        want[k] = -mu.mu1 * lap - mu.mu2 * div_b - mu.mu3 * div_binv + gp
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) / scale < 1e-6


def test_forcing_derived_on_first_use(monkeypatch):
    # building a case evaluates no jets; one forcing evaluation runs the
    # forcing's jet function once for all three components
    import genstokes.verification as verification

    calls = []
    forcing_jets = verification._forcing_jets

    def counting(*args):
        calls.append(args[-1])
        return forcing_jets(*args)

    monkeypatch.setattr(verification, "_forcing_jets", counting)
    case = make_anisotropic_case()
    case.b_field.eval(np.array([[0.3, 0.4, 0.5]]))
    assert calls == []
    case.f_field.eval(np.array([[0.3, 0.4, 0.5]]))
    assert calls == [0]
    case.f_field.components[1].grad(np.array([[0.3, 0.4, 0.5]]))
    assert calls == [0, 1]


def test_forcing_rejects_bad_expressions():
    # a text outside the grammar is refused where the case is built
    with pytest.raises(ConfigError, match="Name q"):
        MMSCase("bad", ("q", "0", "0"), "0", MuTriple(1.0, 0.0, 0.0), None)
    with pytest.raises(ConfigError, match="a21"):
        MMSCase("bad", ("0", "0", "0"), "0", MuTriple(1.0, 1.0, 0.0), {"a21": "1"})


# ---------------------------------------------------------------------------
# dimensional norms


def test_lambda1_box():
    assert lambda1_box(1.0, 1.0, 1.0) == pytest.approx(3.0 * math.pi**2)
    assert lambda1_box(2.0, 1.0, 0.5) == pytest.approx(
        math.pi**2 * (0.25 + 1.0 + 4.0)
    )


def test_dim_norm_constant_field():
    lam = 7.3
    c = 2.0
    box = (2.0, 1.0, 1.0)  # volume 2
    out = dim_norm(ScalarField.constant(c), 1, 2.0, lam, box)
    assert out.value == pytest.approx(math.sqrt(lam) * c * math.sqrt(2.0), rel=1e-12)


def test_dim_norm_order_zero_is_plain_lp():
    f = ScalarField.expression("sin(pi*x)*sin(pi*y)*sin(pi*z)")
    out = dim_norm(f, 0, 2.0, 123.0, (1.0, 1.0, 1.0), n_axis=24)
    assert out.value == pytest.approx((1.0 / 8.0) ** 0.5, rel=1e-10)


def test_dim_norm_matches_refined_grid_oracle():
    f = ScalarField.expression("exp(x)*cos(pi*y) + x*z**2")
    lam = 2.0
    got = dim_norm(f, 1, 2.0, lam, (1.0, 1.0, 1.0), n_axis=20).value
    # midpoint-rule oracle on a fine lattice
    n = 64
    axes = [np.linspace(0, 1, n + 1)[:-1] + 0.5 / n] * 3
    g = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([x.ravel() for x in g], axis=-1)
    w = 1.0 / n**3
    l2 = math.sqrt(np.sum(f.eval(pts) ** 2) * w)
    h1 = math.sqrt(np.sum(f.grad(pts) ** 2) * w)
    want = math.sqrt(lam) * l2 + h1
    assert got == pytest.approx(want, rel=1e-4)


def test_derivative_lp_sup_norm():
    f = ScalarField.expression("x**2")
    sup = derivative_lp(f, 1, math.inf, (1.0, 1.0, 1.0), n_axis=24)
    # derivative 2x; Gauss nodes stay inside, so the sampled sup is close to 2
    assert 1.9 < sup <= 2.0


# ---------------------------------------------------------------------------
# the diagnostic scalar


def unit_norms(k):
    a = {"w1inf": 1.0, "d2_l3": 1.0}
    for i in range(1, k):
        a[f"h{i + 2}"] = 1.0
    f = {f"h{j}": 1.0 for j in range(k + 1)}
    f["hm1"] = 1.0
    return a, f


def test_rk_reduces_to_forcing_norm_without_coefficient_terms():
    a, f = unit_norms(3)
    for key in list(a):
        a[key] = 0.0
    value = rk_evaluate(2.0, 10.0, a, f, 3)
    assert value == pytest.approx(f["h3"])


def test_rk_k2_hand_expanded_unit_inputs():
    # k = 2, all inputs 1, alpha = lambda1 = 1:
    # bracket = 1 + (1+1)(1 + 1) = 5; R_2 = 1 + 1 * 5 = 6
    a, f = unit_norms(2)
    assert rk_evaluate(1.0, 1.0, a, f, 2) == pytest.approx(6.0)


def test_rk_structural_consistency_with_first_order_bracket():
    # at k = 2 the middle sum is empty and R_2 - ||f||_{H^2} equals the
    # coefficient sum times the first-order bracket
    a = {"w1inf": 0.7, "d2_l3": 0.3, "h3": 1.9}
    f = {"h0": 1.1, "h1": 0.9, "h2": 2.3, "hm1": 0.5}
    alpha, lam = 1.7, 11.0
    r2 = rk_evaluate(alpha, lam, a, f, 2)
    coeff = alpha ** (-1.0) * lam ** (-0.25) * a["h3"]
    assert r2 - f["h2"] == pytest.approx(coeff * rk_bracket(alpha, a, f), rel=1e-12)


def test_rk_monotone_in_coefficient_norms():
    a, f = unit_norms(3)
    base = rk_evaluate(1.0, 1.0, a, f, 3)
    for key in ("h3", "h4", "w1inf", "d2_l3"):
        bumped = dict(a)
        bumped[key] = 2.0
        assert rk_evaluate(1.0, 1.0, bumped, f, 3) >= base


def test_rk_missing_inputs():
    a, f = unit_norms(2)
    del a["h3"]
    with pytest.raises(MissingNormInput):
        rk_evaluate(1.0, 1.0, a, f, 2)
    a, f = unit_norms(2)
    del f["h1"]
    with pytest.raises(MissingNormInput):
        rk_evaluate(1.0, 1.0, a, f, 2)
    with pytest.raises(MissingNormInput):
        rk_evaluate(1.0, 1.0, *unit_norms(1), k=1)


# ---------------------------------------------------------------------------
# broken seminorms and convergence tables


def test_broken_h2_exact_for_quadratic_field():
    mesh = build_mesh(2, 2, 2, 1.0, 1.0, 1.0)
    space = TaylorHoodSpace(mesh)
    # nodal interpolant of v = (x^2, 0, 0); second derivative tensor has a
    # single entry 2, so the norm is 2 over the unit cube
    u = np.zeros(space.n_velocity)
    u[0::3] = space.scalar_nodes[:, 0] ** 2
    assert broken_h2_velocity(space, space.geometry(), u) == pytest.approx(2.0, rel=1e-12)


def test_broken_h1_pressure_linear_field():
    mesh = build_mesh(2, 2, 2, 1.0, 1.0, 1.0)
    p = mesh.vertices[:, 0].copy()
    space = TaylorHoodSpace(mesh)
    assert broken_h1_pressure(space, space.geometry(), p) == pytest.approx(1.0, rel=1e-12)


# case_norm_suite values of the sp.diff + lambdify implementation; the
# Taylor-mode derivative stacks must reproduce them up to rounding
_PINNED_NORMS = {
    "anisotropic": {
        ("a", "w1inf"): 14.982169533026479, ("a", "d2_l3"): 2.3015920248544273,
        ("a", "h3"): 751.6382145510278, ("f", "h0"): 2.2222336030221257,
        ("f", "h1"): 19.086075659624775, ("f", "h2"): 125.99009238147714,
        ("exact", "d3v_l2"): 0.1425393290199598,
        ("exact", "d2p_l2"): 6.978864199638883,
    },
    "classical": {
        ("a", "w1inf"): 5.441398092702653, ("a", "h3"): 279.0564901226984,
        ("f", "h2"): 125.72443759655573,
    },
}


@pytest.fixture(scope="module")
def shipped_cases():
    return {"anisotropic": make_anisotropic_case(),
            "classical": make_classical_case()}


@pytest.mark.parametrize("name", sorted(_PINNED_NORMS))
def test_case_norm_suite_pinned(shipped_cases, name):
    box = (1.0, 1.0, 1.0)
    norms = case_norm_suite(shipped_cases[name], lambda1_box(*box), box)
    for (group, key), want in _PINNED_NORMS[name].items():
        assert norms[group][key] == pytest.approx(want, rel=1e-12), (group, key)


def test_case_norm_suite_runtime_budget():
    case = make_anisotropic_case()  # fresh: no derivative work cached yet
    box = (1.0, 1.0, 1.0)
    start = time.perf_counter()
    case_norm_suite(case, lambda1_box(*box), box)
    elapsed = time.perf_counter() - start
    assert elapsed < 3.0, f"runtime {elapsed:.2f}s exceeds 3s"


def test_single_mesh_run_has_no_rates():
    case = make_classical_case()
    table = run_convergence(case, [2], with_audits=False)
    assert table.last_rates() is None
    assert table.rates() == {"h1_v": [], "l2_v": [], "l2_p": []}


@pytest.mark.parametrize("divisions", [[2, 2], (2, 4, 2)])
def test_run_convergence_refuses_repeated_division_count(monkeypatch, divisions):
    # refused before any assembly or norm suite: a rate over one mesh size
    # would divide by log(h0 / h1) = 0
    def fail(*args, **kwargs):
        raise AssertionError("work started before the divisions were checked")

    monkeypatch.setattr(verification, "assemble", fail)
    monkeypatch.setattr(verification, "case_norm_suite", fail)
    with pytest.raises(InvalidDimensions, match="division count 2 is repeated"):
        run_convergence(make_classical_case(), divisions)


def test_errors_decrease_under_refinement():
    case = make_classical_case()
    table = run_convergence(case, [2, 4], with_audits=False)
    assert table.e_h1[1] < table.e_h1[0]
    assert table.e_l2[1] < table.e_l2[0]
    assert table.e_p[1] < table.e_p[0]


def test_csv_emission(tmp_path):
    case = make_classical_case()
    table = run_convergence(case, [2, 4], with_audits=False)
    path = tmp_path / "table.csv"
    table.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("n,h,err_h1_v")
    assert len(lines) == 3
    assert lines[2].count(",") == 7


def test_sup_da_checks_unimodularity_before_inverting(monkeypatch):
    # the coefficient derivatives that audit_estimates takes sup |dA| from
    calls = []
    real = constitutive.ch_inverse_batch

    def spy(mats):
        calls.append(len(mats))
        return real(mats)

    monkeypatch.setattr(constitutive, "ch_inverse_batch", spy)
    mu = MuTriple(1.0, 1.0, 0.5)
    pts = np.random.default_rng(0).uniform(size=(50, 3))
    scaled = TensorField.expression({"a11": "2 + x", "a22": "1", "a33": "1"})
    assert coefficient_derivatives(mu, scaled, pts, scaled.eval(pts)) is None
    assert calls == []
    # det = (1 + x^2) - x^2 = 1: unimodular, so it is inverted once
    shear = TensorField.expression(
        {"a11": "1 + x*x", "a12": "x", "a22": "1", "a33": "1"})
    *_, a_jet = coefficient_derivatives(mu, shear, pts, shear.eval(pts))
    assert np.max(np.abs(a_jet[1])) > 0.0
    assert calls == [50]


# ---------------------------------------------------------------------------
# post-solve passes over element chunks


def _solved(case, n):
    mesh = build_mesh(n, n, n, 1.0, 1.0, 1.0)
    system = assemble(mesh, TaylorHoodSpace(mesh), case.mu, case.b_field,
                      case.f_field)
    return system, minres_solve(system)


@pytest.mark.parametrize("quad_n", [2, 4])
def test_audits_build_no_second_geometry(quad_n):
    # the broken seminorms run over the assembly rule's geometry, as the
    # other audit integrals do, so the audits cache no other rule's tables
    case = make_anisotropic_case()
    mesh = build_mesh(2, 2, 2, 1.0, 1.0, 1.0)
    space = TaylorHoodSpace(mesh)
    system = assemble(mesh, space, case.mu, case.b_field, case.f_field, quad_n=quad_n)
    report = audit_estimates(system, minres_solve(system), case.mu, case.b_field)
    assert {"d2v_broken", "grad_p_broken"} <= {b["id"] for b in report["bounds"]}
    assert list(space._geometries) == [quad_n]


@pytest.fixture(scope="module")
def aniso4():
    case = make_anisotropic_case()
    return (case, *_solved(case, 4))


def _whole_array_errors(system, result, case):
    """errors_against_exact over all quadrature points at once."""
    space = system.space
    geom = space.geometry(system.quad_n + 1)
    pts = geom.flat_points
    ne, nq = geom.wdet.shape
    uloc = result.velocity.reshape(-1, 3)[space.tet_nodes]
    dv = (np.einsum("qi,eia->eqa", geom.n2_vals, uloc)
          - case.v_field.eval(pts).reshape(ne, nq, 3))
    dg = geom.p2_grad(uloc) - case.v_field.grad(pts).reshape(ne, nq, 3, 3)
    p_h = np.einsum("qj,ej->eq", geom.p1_vals, result.pressure[system.mesh.tets])
    p_exact = case.p_field.eval(pts).reshape(ne, nq)
    vol = np.sum(geom.wdet)
    dp = (p_h - np.sum(geom.wdet * p_h) / vol) - (p_exact - np.sum(geom.wdet * p_exact) / vol)
    return tuple(math.sqrt(float(s)) for s in (
        np.einsum("eq,eqac,eqac->", geom.wdet, dg, dg),
        np.einsum("eq,eqa,eqa->", geom.wdet, dv, dv),
        np.sum(geom.wdet * dp * dp)))


def _numbers(report):
    """The floats of an audit report, in a fixed order."""
    out = [report["alpha"], report["anorm_inf"], *report["norms"].values()]
    for bound in report["bounds"]:
        out += [v for v in bound.values() if isinstance(v, float)]
    return np.array(out)


def test_chunked_errors_match_whole_array_reference(aniso4):
    case, system, result = aniso4
    geom = system.space.geometry(system.quad_n + 1)
    assert len(assembly._chunks(*geom.wdet.shape)) > 1
    got = errors_against_exact(system, result, case)
    want = _whole_array_errors(system, result, case)
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def test_chunked_audit_matches_one_chunk(aniso4, monkeypatch):
    case, system, result = aniso4
    assert len(assembly._chunks(*system.space.geometry(system.quad_n).wdet.shape)) > 1
    chunked = audit_estimates(system, result, case.mu, case.b_field)
    assert any(b["id"] == "d2v_broken" for b in chunked["bounds"])
    # one chunk: every pass sees all quadrature points at once
    monkeypatch.setattr(assembly, "_CHUNK_BYTES", 1 << 40)
    monkeypatch.setattr(assembly, "_CHUNK_POINTS", 1 << 40)
    assert len(assembly._chunks(system.mesh.n_tets, 64)) == 1
    whole = audit_estimates(system, result, case.mu, case.b_field)
    assert [b["id"] for b in chunked["bounds"]] == [b["id"] for b in whole["bounds"]]
    np.testing.assert_allclose(_numbers(chunked), _numbers(whole), rtol=1e-13, atol=0.0)


def test_post_solve_passes_bitwise_equal_over_threads(aniso4, monkeypatch):
    case, system, result = aniso4
    # small chunks, so that two threads have several in flight
    monkeypatch.setattr(assembly, "_CHUNK_POINTS", 36 * 27)
    runs = [(errors_against_exact(system, result, case, threads=t),
             audit_estimates(system, result, case.mu, case.b_field, threads=t))
            for t in (1, 2)]
    assert runs[0][0] == runs[1][0]
    assert _numbers(runs[0][1]).tobytes() == _numbers(runs[1][1]).tobytes()


def test_sup_da_stops_at_the_first_refused_chunk(monkeypatch):
    calls = []
    real = verification.coefficient_derivatives

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(verification, "coefficient_derivatives", spy)
    monkeypatch.setattr(assembly, "_CHUNK_POINTS", 36 * 27)
    geom = TaylorHoodSpace(build_mesh(3, 3, 3, 1.0, 1.0, 1.0)).geometry(3)
    assert len(assembly._chunks(*geom.wdet.shape)) > 1
    mu = MuTriple(1.0, 1.0, 0.5)
    scaled = TensorField.expression({"a11": "2 + x", "a22": "1", "a33": "1"})
    assert verification._sup_da(mu, scaled, geom) is None
    assert calls == [1]


def test_post_solve_memory_budget():
    # tracemalloc peaks at mesh 8 (3,072 elements; 82,944 assembly points and
    # 196,608 error points): 3.5 MB for the errors and 9.2 MB for the audit in
    # element chunks; 70.5 and 100.1 MB when every pass held all points
    case = make_anisotropic_case()
    system, result = _solved(case, 8)
    system.space.geometry(system.quad_n + 1)
    peak = traced_peak(lambda: errors_against_exact(system, result, case))
    assert peak <= 16 << 20, f"errors peak {peak / 2**20:.1f} MB > 16 MB"
    peak = traced_peak(lambda: audit_estimates(system, result, case.mu, case.b_field))
    assert peak <= 16 << 20, f"audit peak {peak / 2**20:.1f} MB > 16 MB"
