"""Direct and iterative solution of the assembled saddle-point system.

The primary route factors the full symmetric indefinite KKT matrix
(velocity block, divergence block, pressure gauge row) with a sparse LU and
polishes with one step of iterative refinement.  The fallback is a pressure
Schur-complement iteration: conjugate gradients on S = G^t K^{-1} G with
conjugate-gradient inner solves of the velocity block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import SaddleSystem
from .errors import FactorizationFailure, MaxIterations, ResidualTooLarge

__all__ = ["SolveResult", "solve", "uzawa_solve"]


@dataclass
class SolveResult:
    """Discrete solution with algebraic quality metrics.

    ``velocity`` is the full-length coefficient vector (walls zero),
    ``pressure`` has zero weighted mean under the gauge row.
    """

    velocity: np.ndarray
    pressure: np.ndarray
    residual: float
    stats: dict = field(default_factory=dict)


def _finish(system: SaddleSystem, u_int, p, xi, tol, stats) -> SolveResult:
    # pin the gauge exactly (a constant shift stays in the solution set)
    total = np.sum(system.m)
    p = p - (system.m @ p) / total
    a = system.kkt()
    b = system.rhs()
    x = np.concatenate([u_int, p, [xi]])
    bnorm = np.linalg.norm(b)
    res = np.linalg.norm(b - a @ x) / bnorm if bnorm > 0 else 0.0
    if res > tol:
        raise ResidualTooLarge(f"relative residual {res:.3e} > {tol:.3e}")
    stats = dict(stats)
    stats["gauge_multiplier"] = float(xi)
    return SolveResult(
        velocity=system.expand_velocity(u_int),
        pressure=p,
        residual=float(res),
        stats=stats,
    )


def solve(system: SaddleSystem, tol: float = 1e-10) -> SolveResult:
    """Sparse direct solve of the full KKT system."""
    b = system.rhs()
    ni, npr = system.n_interior, system.n_pressure
    if np.linalg.norm(b) == 0.0:
        return SolveResult(
            velocity=np.zeros(system.space.n_velocity),
            pressure=np.zeros(npr),
            residual=0.0,
            stats={"method": "direct", "trivial": True},
        )
    a = system.kkt()
    try:
        lu = spla.splu(a)
    except (RuntimeError, SystemError, MemoryError) as exc:
        # SuperLU reports exhausted workspace ("Can't expand MemType") as
        # SystemError; allocations outside it raise MemoryError
        raise FactorizationFailure(
            f"sparse factorization failed on n = {a.shape[0]} system: {exc}"
        ) from exc
    x = lu.solve(b)
    x += lu.solve(b - a @ x)  # one refinement step
    stats = {
        "method": "direct",
        "n": int(a.shape[0]),
        "nnz": int(a.nnz),
        "factor_nnz": int(lu.L.nnz + lu.U.nnz),
    }
    return _finish(system, x[:ni], x[ni:ni + npr], x[-1], tol, stats)


def _cg(apply_a, b, tol, maxiter, precond=None, label="cg"):
    """Plain (preconditioned) conjugate gradients; returns (x, iterations)."""
    x = np.zeros_like(b)
    r = b.copy()
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return x, 0
    z = precond(r) if precond else r
    p = z.copy()
    rz = r @ z
    for it in range(1, maxiter + 1):
        ap = apply_a(p)
        alpha = rz / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        if np.linalg.norm(r) <= tol * bnorm:
            return x, it
        z = precond(r) if precond else r
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise MaxIterations(f"{label}: no convergence in {maxiter} iterations")


def uzawa_solve(
    system: SaddleSystem,
    outer_tol: float = 1e-10,
    max_outer: int = 400,
    tol: float = 1e-8,
) -> SolveResult:
    """Pressure Schur-complement iteration with CG inner solves.

    Raises MaxIterations when the outer iteration cannot reach
    ``outer_tol`` within ``max_outer`` steps.  The final full residual is
    checked against ``tol``.
    """
    K, G, F, m = system.K, system.G, system.F, system.m
    diag = K.diagonal()
    inner_count = [0]

    def ksolve(rhs):
        x, it = _cg(
            lambda v: K @ v, rhs, tol=1e-13, maxiter=20 * max(K.shape[0], 100),
            precond=lambda r: r / diag, label="inner cg",
        )
        inner_count[0] += it
        return x

    if np.linalg.norm(F) == 0.0:
        return SolveResult(
            velocity=np.zeros(system.space.n_velocity),
            pressure=np.zeros(system.n_pressure),
            residual=0.0,
            stats={"method": "uzawa", "outer_iterations": 0, "trivial": True},
        )

    g = G.T @ ksolve(F)
    outer_count = [0]

    def apply_s(p):
        outer_count[0] += 1
        return G.T @ ksolve(G @ p)

    p, _ = _cg(apply_s, g, tol=outer_tol, maxiter=max_outer, label="schur cg")
    u_int = ksolve(F - G @ p)
    stats = {
        "method": "uzawa",
        "outer_iterations": int(outer_count[0]),
        "inner_iterations": int(inner_count[0]),
    }
    return _finish(system, u_int, p, 0.0, tol, stats)
