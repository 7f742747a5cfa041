"""Solution of the assembled saddle-point system.

The solve route is MINRES on the symmetric block system [[K, G], [G^t, 0]]
with a block-diagonal SPD preconditioner.  The paper's coercivity sandwich
``alpha ||grad v||^2 <= a(v, v) <= 2 ||A||_inf ||grad v||^2`` makes K
spectrally equivalent to the vector Laplacian.  The P2 nodes of Kuhn mesh n
are the lattice of Kuhn mesh 2n, where the P1 Laplacian stiffness is the
7-point stencil, so the velocity block is preconditioned by a DST-I fast
Poisson solve on that lattice (three products with each axis's sine matrix
per transform, on the interior grid, whose C order is the space's numbering),
scaled by c = (alpha + ||A||_inf) / 2; the
pressure block by the lumped P1 mass m / c.  The constant pressure spans the
(consistent) null space; the gauge is fixed afterwards by projecting to zero
m-weighted mean, so no gauge enters the iteration.  MINRES is one
hand-written pass that applies K and G from the assembled blocks (no copy of
the KKT matrix; G is the CSC transpose of the CSR matrix G^t that assembly
stores).  It measures convergence in the preconditioner's norm, which
drifts from the 2-norm under refinement, so it stops on the true 2-norm
residual, checked every few iterations, a fixed factor under the requested
tolerance; the final residual is gated at that tolerance.

``solve`` is the reference the tests check MINRES against, run by no
command: a sparse LU of [[K, G0], [G0^t, 0]] (G0 = G less its first column:
pressure dof 0 pinned) and one step of iterative refinement; the same
projection then fixes the gauge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .assembly import SaddleSystem
from .errors import FactorizationFailure, MaxIterations, ResidualTooLarge

__all__ = ["SolveResult", "minres_solve", "solve"]


@dataclass
class SolveResult:
    """Discrete solution with algebraic quality metrics.

    ``velocity`` is the full-length coefficient vector (walls zero),
    ``pressure`` has zero m-weighted mean.
    """

    velocity: np.ndarray
    pressure: np.ndarray
    residual: float
    stats: dict = field(default_factory=dict)


def _check_gauge(m: np.ndarray) -> None:
    # m_j = int q_j > 0 on any mesh; the projection and the MINRES pressure
    # preconditioner both divide by it
    if not (np.all(np.isfinite(m)) and np.all(m > 0.0)):
        raise FactorizationFailure(
            "pressure gauge weights m are not finite and positive")


def _check_load(F: np.ndarray) -> None:
    # a NaN or inf load cannot give a finite solution; iterating on it or
    # factorizing it only spends the work before the residual gate fails
    bad = np.flatnonzero(~np.isfinite(F))
    if bad.size:
        raise ResidualTooLarge(
            f"load vector F has {bad.size} non-finite entries "
            f"(first: F[{bad[0]}] = {F[bad[0]]})")


def _zero_solution(system: SaddleSystem, stats: dict) -> SolveResult:
    """The exact solution of a zero load: zero velocity and pressure."""
    return SolveResult(
        velocity=np.zeros(system.space.n_velocity),
        pressure=np.zeros(system.n_pressure),
        residual=0.0,
        stats=dict(stats, trivial=True),
    )


def _block_residual(system: SaddleSystem, u_int, p):
    """The residual (F - K u - G p, -G^t u) of [[K, G], [G^t, 0]]."""
    return (system.F - system.K @ u_int - system.G @ p,
            -(system.G.T @ u_int))


def _finish(system: SaddleSystem, u_int, p, tol, stats) -> SolveResult:
    # pin the gauge exactly (a constant shift stays in the solution set)
    p = p - (system.m @ p) / np.sum(system.m)
    # the residual of [[K, G], [G^t, 0]] and the gauge, from the blocks:
    # [F - K u - G p, -G^t u, -m^t p]
    ru, rp = _block_residual(system, u_int, p)
    bnorm = np.linalg.norm(system.F)
    # a NaN norm must reach the gate, not read as a zero right-hand side
    res = (math.hypot(np.linalg.norm(ru), np.linalg.norm(rp), system.m @ p)
           / bnorm if bnorm != 0.0 else 0.0)
    if not res <= tol:
        raise ResidualTooLarge(f"relative residual {res:.3e} > {tol:.3e}")
    return SolveResult(
        velocity=system.expand_velocity(u_int),
        pressure=p,
        residual=float(res),
        stats=stats,
    )


def solve(system: SaddleSystem, tol: float = 1e-10) -> SolveResult:
    """Reference sparse direct solve of [[K, G0], [G0^t, 0]], the block
    system with pressure dof 0 pinned (G0 is G without its first column).

    Raises ResidualTooLarge before factorizing when the load vector has a
    non-finite entry, and FactorizationFailure when the gauge weights m are
    not finite and positive or SuperLU fails; the final full residual is
    checked against ``tol``.
    """
    _check_load(system.F)
    ni = system.n_interior
    if np.linalg.norm(system.F) == 0.0:
        return _zero_solution(system, {"method": "direct"})
    # imported past the zero load: only a factorization needs them
    from scipy.sparse import bmat
    from scipy.sparse.linalg import splu

    _check_gauge(system.m)
    g0 = system.G[:, 1:]
    a = bmat([[system.K, g0], [g0.T, None]], format="csc")
    b = np.concatenate([system.F, np.zeros(system.n_pressure - 1)])
    try:
        lu = splu(a)
        factor_nnz = int(lu.L.nnz + lu.U.nnz)
    except (RuntimeError, SystemError, MemoryError) as exc:
        # SuperLU reports exhausted workspace ("Can't expand MemType") as
        # SystemError; allocations outside it, such as the CSC copies that
        # lu.L and lu.U make of the factor, raise MemoryError
        raise FactorizationFailure(
            f"sparse factorization failed on n = {a.shape[0]} system: {exc}"
        ) from exc
    x = lu.solve(b)
    x += lu.solve(b - a @ x)  # one refinement step
    stats = {
        "method": "direct",
        "n": int(a.shape[0]),
        "nnz": int(a.nnz),
        "factor_nnz": factor_nnz,
    }
    return _finish(system, x[:ni], np.concatenate([[0.0], x[ni:]]), tol,
                   stats)


def _lattice_preconditioner(system: SaddleSystem):
    """Block-diagonal SPD preconditioner of the MINRES iteration.

    Returns ``(velocity, pressure_weight)``.  ``velocity(r)`` applies, per
    component, the inverse of c times the P1 stiffness of the Kuhn lattice
    through the interior P2 nodes (the 7-point stencil times the lattice
    cell volume), diagonalised by DST-I; ``pressure_weight`` is c / m, the
    inverse of the lumped P1 pressure mass divided by c.  The scale
    c = (alpha + ||A||_inf) / 2 comes from the coercivity sandwich.
    """
    _check_gauge(system.m)
    mesh = system.mesh
    dims = 2 * np.array([mesh.nx, mesh.ny, mesh.nz])
    h = np.array(mesh.box) / dims
    shape = tuple(int(d) - 1 for d in dims)
    lam = sum(
        ((2.0 - 2.0 * np.cos(np.pi * np.arange(1, m + 1) / (m + 1))) / hk**2)
        .reshape([-1 if k == axis else 1 for k in range(3)])
        for axis, (m, hk) in enumerate(zip(shape, h))
    )
    c = 0.5 * (system.alpha + system.anorm_inf)
    # DST-I along an axis of m points is the product with the symmetric sine
    # matrix S, S_jk = sin(pi j k / (m + 1)), whose inverse is S / ((m + 1) / 2)
    sines = [np.sin(np.pi * np.outer(k, k) / (k.size + 1))
             for k in (np.arange(1, m + 1) for m in shape)]
    scale = c * np.prod(h) * lam * np.prod([(m + 1) / 2 for m in shape])
    n0, n1, n2 = shape

    def sine_products(grid):
        """S0 x S1 x S2 applied to each component of ``grid`` (3, n0, n1, n2)."""
        grid = np.matmul(sines[0], grid.reshape(3, n0, n1 * n2))
        grid = np.matmul(sines[1], grid.reshape(3 * n0, n1, n2))
        return (grid.reshape(-1, n2) @ sines[2]).reshape(3, n0, n1, n2)

    def velocity(r):
        # interior dof 3 r + a is component a at point r of the grid, C order
        grid = r.reshape(-1, 3).T.reshape(3, n0, n1, n2)
        grid = sine_products(sine_products(grid) / scale)
        return grid.reshape(3, -1).T.ravel()

    return velocity, c / system.m


# MINRES stops on the true relative residual, computed from the blocks every
# _CHECK_EVERY iterations, once it is at most tol / _STOP_DIVISOR.  The margin
# under the gate is needed: stopping at tol = 1e-10 itself leaves the pressure
# up to 4e-8 away from the direct solve's at mesh 8, against the 1e-8 the
# agreement tests allow; stopping at 1e-12 kept it under 1.1e-10 on the
# shipped cases at meshes 2-8
_STOP_DIVISOR = 100.0
_CHECK_EVERY = 10
_MAXITER = 2000
# The checks begin once the recurrence's residual |eta|, relative to its
# start, is at most _CHECK_FROM times the target (or the rounding level, if
# that is larger).  |eta| is the residual in the preconditioner's norm; on
# the shipped cases at meshes 2-8 and the mesh-8 solve-grid inputs its
# relative value stayed within 0.28-4.0 times the true one, so the checks
# begin well before the stop, and MINRES stops where checking from the
# start stopped it
_CHECK_FROM = 100.0
# The true residual levels off at the rounding level of evaluating it
# (about 1e-15 relative).  When _STALL_CHECKS checks in a row bring no new
# least residual, the iteration stops and the gate judges, so a tol the
# rounding level meets does not run into the iteration cap, while a slow
# but steady iteration goes on
_STALL_CHECKS = 10


def _minres(apply_a, b, precond, residual, target):
    """Preconditioned MINRES (Paige & Saunders 1975, in the form of Elman,
    Silvester & Wathen, Alg. 4.1) from x = 0 for symmetric ``apply_a`` and
    SPD ``precond``.

    Every ``_CHECK_EVERY`` iterations once the recurrence's residual is
    near the target (see ``_CHECK_FROM``), and when the Lanczos process
    breaks down, the true relative residual ``residual(x)`` is computed;
    the iteration stops once it is at most ``target``, or has stalled (see
    ``_STALL_CHECKS``).  Returns ``(x, iterations, history)``, ``history``
    the residuals computed.
    """
    x = np.zeros_like(b)
    w_old, w = np.zeros_like(b), np.zeros_like(b)
    v_old, v = np.zeros_like(b), b.copy()
    z = precond(v)
    gamma_old, gamma = 1.0, np.sqrt(z @ v)
    eta = gamma
    check_from = _CHECK_FROM * max(target, np.finfo(float).eps) * gamma
    c_old = c = 1.0
    s_old = s = 0.0
    history = []
    for it in range(1, _MAXITER + 1):
        q = z / gamma
        az = apply_a(q)
        delta = q @ az
        v_old, v = v, az - (delta / gamma) * v - (gamma / gamma_old) * v_old
        z = precond(v)
        gamma_old, gamma = gamma, np.sqrt(z @ v)
        # QR of the Lanczos tridiagonal, one Givens rotation per step
        a0 = c * delta - c_old * s * gamma_old
        a1 = np.hypot(a0, gamma)
        a2 = s * delta + c_old * c * gamma_old
        a3 = s_old * gamma_old
        c_old, s_old = c, s
        c, s = a0 / a1, gamma / a1
        w_old, w = w, (q - a3 * w_old - a2 * w) / a1
        x += (c * eta) * w
        eta = -s * eta
        # gamma = 0 (an invariant subspace: x is exact) or not finite ends
        # the recurrence; the caller's gate judges x
        breakdown = not gamma > 0.0
        if breakdown or (it % _CHECK_EVERY == 0 and abs(eta) <= check_from):
            history.append(residual(x))
            stalled = (len(history) > _STALL_CHECKS
                       and min(history[-_STALL_CHECKS:])
                       >= min(history[:-_STALL_CHECKS]))
            if breakdown or stalled or history[-1] <= target:
                return x, it, history
    raise MaxIterations(f"minres: no convergence in {_MAXITER} iterations")


def minres_solve(system: SaddleSystem, tol: float = 1e-10) -> SolveResult:
    """Block-preconditioned MINRES on [[K, G], [G^t, 0]] (the solve route).

    One MINRES pass on the operator x -> [K u + G p, G^t u], applied from
    the blocks, stops once the true relative residual is at most
    ``tol / _STOP_DIVISOR``.  Raises ResidualTooLarge before iterating when
    the load vector has a non-finite entry, and MaxIterations when the
    stop is not reached within ``_MAXITER`` iterations; the final full
    residual is checked against ``tol``.
    """
    F = system.F
    _check_load(F)
    if np.linalg.norm(F) == 0.0:
        return _zero_solution(system, {"method": "minres", "iterations": 0})
    K, G = system.K, system.G  # a zero load forms neither
    ni = system.n_interior
    velocity, pressure_weight = _lattice_preconditioner(system)
    b = np.concatenate([F, np.zeros(system.n_pressure)])
    bnorm = np.linalg.norm(F)
    stop = tol / _STOP_DIVISOR

    def apply_a(x):
        u = x[:ni]
        return np.concatenate([K @ u + G @ x[ni:], G.T @ u])

    def precond(r):
        return np.concatenate([velocity(r[:ni]), r[ni:] * pressure_weight])

    def residual(x):
        ru, rp = _block_residual(system, x[:ni], x[ni:])
        return float(math.hypot(np.linalg.norm(ru), np.linalg.norm(rp))
                     / bnorm)

    x, iterations, history = _minres(apply_a, b, precond, residual, stop)
    stats = {
        "method": "minres",
        "n": int(b.size),
        "nnz": int(K.nnz + 2 * G.nnz),
        "iterations": int(iterations),
        "stop_rtol": stop,
        "residual_history": history,
    }
    return _finish(system, x[:ni], x[ni:], tol, stats)
