"""MINRES and direct solvers of the saddle system."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sparse
from conftest import traced_peak

from genstokes.assembly import assemble
from genstokes.constitutive import MuTriple
from genstokes.errors import FactorizationFailure, MaxIterations, ResidualTooLarge
from genstokes.fem import TaylorHoodSpace, build_mesh
from genstokes.fields import TensorField, VectorField
from genstokes.solver import (_CHECK_EVERY, _MAXITER, _STOP_DIVISOR,
                              _lattice_preconditioner, _minres, minres_solve,
                              solve)
from genstokes.verification import SHIPPED_CASES, make_classical_case


@pytest.fixture(scope="module")
def small_system():
    mesh = build_mesh(3, 3, 3, 1.0, 1.0, 1.0)
    space = TaylorHoodSpace(mesh)
    case = make_classical_case()
    return assemble(mesh, space, case.mu, case.b_field, case.f_field)


def test_zero_forcing_gives_zero_solution():
    mesh = build_mesh(2, 2, 2, 1.0, 1.0, 1.0)
    space = TaylorHoodSpace(mesh)
    system = assemble(mesh, space, MuTriple(1.0, 0.0, 0.0), TensorField.identity())
    result = solve(system)
    assert np.all(result.velocity == 0.0)
    assert np.all(result.pressure == 0.0)
    assert result.residual == 0.0


def test_residual_contract(small_system):
    result = solve(small_system)
    assert result.residual <= 1e-10
    # gauge: zero weighted mean
    assert abs(small_system.m @ result.pressure) <= 1e-12 * np.max(
        np.abs(result.pressure)
    )
    # walls stay zero
    assert np.all(result.velocity[small_system.space.dirichlet_mask] == 0.0)


def test_energy_identity(small_system):
    # testing the discrete equations with the solution itself eliminates the
    # pressure: u^t K u = F . u
    result = solve(small_system)
    ui = result.velocity[small_system.space.interior_idx]
    energy = float(ui @ (small_system.K @ ui))
    work = float(small_system.F @ ui)
    assert energy == pytest.approx(work, rel=1e-9)


def test_solve_deterministic(small_system):
    a = solve(small_system)
    b = solve(small_system)
    assert np.array_equal(a.velocity, b.velocity)
    assert np.array_equal(a.pressure, b.pressure)


def test_factorization_failure_reported(small_system):
    # with K = 0 the pinned block matrix is exactly singular in SuperLU
    broken = dataclasses.replace(small_system, k_data=small_system.k_data * 0.0)
    with pytest.raises(FactorizationFailure, match="exactly singular"):
        solve(broken)


@pytest.mark.parametrize("exc", [SystemError("Can't expand MemType 1: jcol 7"),
                                 MemoryError()])
def test_superlu_resource_errors_reported(small_system, monkeypatch, exc):
    def failing_splu(a):
        raise exc

    monkeypatch.setattr("scipy.sparse.linalg.splu", failing_splu)
    with pytest.raises(FactorizationFailure):
        solve(small_system)


def test_factor_count_out_of_memory_reported(small_system, monkeypatch):
    # lu.L and lu.U copy the factor to count it; a MemoryError there is a
    # factorization failure, not a traceback
    class Factor:
        @property
        def L(self):
            raise MemoryError("Unable to allocate 618. MiB")

        U = L

    monkeypatch.setattr("scipy.sparse.linalg.splu", lambda a: Factor())
    with pytest.raises(FactorizationFailure, match="618"):
        solve(small_system)


@pytest.mark.parametrize("solver", [solve, minres_solve])
def test_zero_gauge_row_reported(small_system, solver, monkeypatch):
    # without the check the projection and the pressure preconditioner
    # divide by m = 0; it comes before any factorization or iteration
    def spy(*args, **kwargs):
        raise AssertionError("factorized or iterated without a gauge")

    monkeypatch.setattr("genstokes.solver._minres", spy)
    monkeypatch.setattr("scipy.sparse.linalg.splu", spy)
    broken = dataclasses.replace(small_system, m=np.zeros_like(small_system.m))
    with pytest.raises(FactorizationFailure, match="gauge"):
        solver(broken)


@pytest.mark.parametrize("solver", [solve, minres_solve])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_load_rejected_before_iterating(small_system, solver, bad,
                                                   monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        raise AssertionError("iterated on or factorized a non-finite load")

    monkeypatch.setattr("genstokes.solver._minres", spy)
    monkeypatch.setattr("scipy.sparse.linalg.splu", spy)
    F = small_system.F.copy()
    F[5] = bad
    broken = dataclasses.replace(small_system, F=F)
    with pytest.raises(ResidualTooLarge, match=r"load vector F .*F\[5\]"):
        solver(broken)
    assert calls == []


def test_direct_pins_one_pressure_dof():
    # [[K, G0], [G0^t, 0]] carries no dense gauge row, which would fill
    # the factor to 604,534 entries here
    system = _case_system("anisotropic", (4, 4, 4))
    stats = solve(system).stats
    assert stats["n"] == system.n_interior + system.n_pressure - 1
    assert stats["factor_nnz"] < 560_000


# ---------------------------------------------------------------------------
# block-preconditioned MINRES


def _case_system(name, dims, box=(1.0, 1.0, 1.0)):
    case = SHIPPED_CASES[name]()
    mesh = build_mesh(*dims, *box)
    space = TaylorHoodSpace(mesh)
    return assemble(mesh, space, case.mu, case.b_field, case.f_field)


def _assert_agrees_with_direct(system):
    d = solve(system)
    m = minres_solve(system)
    assert m.residual <= 1e-10
    assert np.max(np.abs(d.velocity - m.velocity)) <= 1e-8
    assert np.max(np.abs(d.pressure - m.pressure)) <= 1e-8
    return m


@pytest.mark.parametrize("name", ["classical", "anisotropic"])
@pytest.mark.parametrize("n", [2, 3])
def test_minres_agrees_with_direct(name, n):
    m = _assert_agrees_with_direct(_case_system(name, (n, n, n)))
    stats = m.stats
    assert stats["method"] == "minres"
    assert stats["iterations"] > 0
    # one true residual per check from near the target on; the iteration
    # stops at the first check that meets the stop target
    history = stats["residual_history"]
    assert 1 <= len(history) <= -(-stats["iterations"] // _CHECK_EVERY)
    assert stats["stop_rtol"] == 1e-10 / _STOP_DIVISOR
    assert history[-1] <= stats["stop_rtol"] < min(history[:-1], default=1.0)


def test_minres_non_cubic_box_unequal_divisions():
    # per-axis lattice map and spacing: h = (1/4, 2/6, 0.5/8)
    _assert_agrees_with_direct(
        _case_system("anisotropic", (2, 3, 4), box=(1.0, 2.0, 0.5)))


def test_lattice_preconditioner_inverts_fine_p1_stiffness():
    # the velocity block is (c K1)^{-1} per component, K1 the P1 Laplacian
    # stiffness of Kuhn mesh 2n, whose vertices are the P2 nodes of mesh n
    system = _case_system("anisotropic", (2, 3, 4), box=(1.0, 2.0, 0.5))
    fine = build_mesh(4, 6, 8, 1.0, 2.0, 0.5)
    edges = fine.vertices[fine.tets[:, 1:]] - fine.vertices[fine.tets[:, :1]]
    g3 = np.swapaxes(np.linalg.inv(edges), 1, 2)  # rows: grad of lambda_1..3
    g = np.concatenate([-g3.sum(axis=1, keepdims=True), g3], axis=1)
    vol = np.abs(np.linalg.det(edges)) / 6.0
    kel = vol[:, None, None] * np.einsum("eia,eja->eij", g, g)
    rows = np.repeat(fine.tets, 4, axis=1).ravel()
    cols = np.tile(fine.tets, (1, 4)).ravel()
    k1 = sparse.coo_matrix((kel.ravel(), (rows, cols))).tocsr()
    # the fine mesh's interior vertices, in their own order, are the interior
    # P2 nodes of mesh n in theirs: the box's faces are linspace's exact ends
    box = np.array([1.0, 2.0, 0.5])
    order = np.flatnonzero(np.all((fine.vertices > 0) & (fine.vertices < box), axis=1))
    k1 = k1[order][:, order]

    velocity, pressure_weight = _lattice_preconditioner(system)
    c = 0.5 * (system.alpha + system.anorm_inf)
    r = np.random.default_rng(5).standard_normal((len(order), 3))
    back = velocity((c * (k1 @ r)).ravel()).reshape(-1, 3)
    assert np.max(np.abs(back - r)) <= 1e-10 * np.max(np.abs(r))
    assert np.allclose(pressure_weight * system.m, c, rtol=1e-14)


@pytest.fixture(scope="module")
def aniso8():
    return _case_system("anisotropic", (8, 8, 8))


def test_minres_iterations_flat_under_refinement(aniso8):
    its = {4: minres_solve(_case_system("anisotropic", (4, 4, 4)))
           .stats["iterations"],
           8: minres_solve(aniso8).stats["iterations"]}
    assert its[8] <= 1.5 * its[4]


def test_minres_stops_where_asked(aniso8):
    result = minres_solve(aniso8)
    stop = result.stats["stop_rtol"]
    # the true residual of the returned solution, from the blocks
    u, p = result.velocity[aniso8.space.interior_idx], result.pressure
    ru = aniso8.F - aniso8.K @ u - aniso8.G @ p
    rp = aniso8.G.T @ u
    res = np.sqrt(ru @ ru + rp @ rp + (aniso8.m @ p) ** 2)
    assert res / np.linalg.norm(aniso8.F) <= stop
    # and no further than needed: a looser gate takes fewer iterations
    loose = minres_solve(aniso8, tol=1e-6)
    assert loose.stats["iterations"] < result.stats["iterations"]
    assert loose.residual <= 1e-6


def test_minres_stops_at_the_rounding_level(small_system):
    # the stop target tol / 100 = 1e-16 is below the rounding level of the
    # residual; MINRES stops when its residual levels off, within the cap
    result = minres_solve(small_system, tol=1e-14)
    assert result.residual <= 1e-14
    assert result.stats["iterations"] < _MAXITER


def _diagonal_minres(kappa, n, target):
    """Unpreconditioned MINRES on diag(d) x = 1, with the n entries of d at
    the Chebyshev points of [1, kappa]; returns (true residual, iterations)."""
    d = 1.0 + (kappa - 1.0) * 0.5 * (1.0 - np.cos(np.pi * (np.arange(n) + 0.5) / n))
    b = np.ones(n)

    def residual(x):
        return np.linalg.norm(b - d * x) / np.linalg.norm(b)

    x, iterations, _ = _minres(lambda v: d * v, b, lambda v: v, residual, target)
    return residual(x), iterations


def test_minres_goes_on_while_slowly_converging():
    # the residual falls by a factor of about 0.44 per 100 iterations; a
    # stall rule asking for a halving per 100 iterations stopped it at 200
    # iterations with the residual at 3e-2
    res, iterations = _diagonal_minres(6e4, 2000, 1e-6)
    assert res <= 1e-6
    assert iterations < _MAXITER


def test_minres_stops_at_the_rounding_level_below_its_target():
    # a target far below the rounding level (the residual levels off near
    # 2e-15 after about 150 iterations) stops on the stall rule
    res, iterations = _diagonal_minres(100.0, 200, 1e-20)
    assert res <= 1e-14
    assert iterations <= _MAXITER // 4


def test_minres_memory_budget(aniso8):
    # MINRES applies the blocks and holds a few vectors (87 kB each here);
    # a copy of the KKT matrix (K alone is 8.6 MB) does not fit the budget
    minres_solve(aniso8)
    assert traced_peak(lambda: minres_solve(aniso8)) <= 4 << 20


def test_minres_zero_forcing_gives_zero_solution():
    mesh = build_mesh(2, 2, 2, 1.0, 1.0, 1.0)
    space = TaylorHoodSpace(mesh)
    system = assemble(mesh, space, MuTriple(1.0, 0.0, 0.0), TensorField.identity())
    result = minres_solve(system)
    assert np.all(result.velocity == 0.0)
    assert np.all(result.pressure == 0.0)
    assert result.residual == 0.0


def test_minres_iteration_cap(small_system, monkeypatch):
    monkeypatch.setattr("genstokes.solver._MAXITER", 3)
    with pytest.raises(MaxIterations):
        minres_solve(small_system)
