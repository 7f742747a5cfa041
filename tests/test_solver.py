"""Direct and Schur-complement solvers of the saddle system."""

import dataclasses

import numpy as np
import pytest

from genstokes.assembly import assemble
from genstokes.constitutive import MuTriple
from genstokes.errors import FactorizationFailure, MaxIterations
from genstokes.fem import TaylorHoodSpace, build_mesh
from genstokes.fields import TensorField, VectorField
from genstokes.solver import solve, uzawa_solve
from genstokes.verification import make_classical_case


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


def test_uzawa_agrees_with_direct(small_system):
    mesh = small_system.mesh
    space = small_system.space
    rng = np.random.default_rng(3)
    scale = np.max(np.abs(small_system.K.toarray()))
    for trial in range(20):
        f = VectorField.constant(*rng.uniform(-1, 1, size=3))
        system = assemble(mesh, space, MuTriple(1.0, 0.0, 0.0),
                          TensorField.identity(), f)
        d = solve(system)
        u = uzawa_solve(system, outer_tol=1e-12)
        assert np.max(np.abs(d.velocity - u.velocity)) <= 1e-8
        assert np.max(np.abs(d.pressure - u.pressure)) <= 1e-8


def test_uzawa_zero_forcing_immediate():
    mesh = build_mesh(2, 2, 2, 1.0, 1.0, 1.0)
    space = TaylorHoodSpace(mesh)
    system = assemble(mesh, space, MuTriple(1.0, 0.0, 0.0), TensorField.identity())
    result = uzawa_solve(system)
    assert result.stats["outer_iterations"] == 0
    assert np.all(result.velocity == 0.0)


def test_uzawa_unreachable_tolerance(small_system):
    with pytest.raises(MaxIterations):
        uzawa_solve(small_system, outer_tol=0.0, max_outer=10)


def test_factorization_failure_reported(small_system):
    broken = dataclasses.replace(small_system, m=np.zeros_like(small_system.m))
    with pytest.raises(FactorizationFailure):
        solve(broken)


@pytest.mark.parametrize("exc", [SystemError("Can't expand MemType 1: jcol 7"),
                                 MemoryError()])
def test_superlu_resource_errors_reported(small_system, monkeypatch, exc):
    def failing_splu(a):
        raise exc

    monkeypatch.setattr("genstokes.solver.spla.splu", failing_splu)
    with pytest.raises(FactorizationFailure):
        solve(small_system)
