"""Generalized Stokes solver with tensor viscosity coefficients.

The linear system solved here is the stationary mixed problem

    -div(D(v) A + A D(v)) + grad p = f,   div v = 0,   v = 0 on the walls,

on a 3-d box, with a symmetric coefficient tensor A = mu1 I + mu2 B
+ mu3 B^{-1} built from a symmetric positive definite tensor field B (a
left Cauchy-Green tensor in the viscoelastic application).  The package
provides the pointwise tensor algebra, the positivity analysis that decides
uniform ellipticity, a quadratic/linear mixed finite element discretization
on structured tetrahedral meshes, a preconditioned MINRES solver, and
a verification layer (manufactured solutions, norm audits, diagnostics).
"""

from .constitutive import MuTriple, acal, audit_bounds, g_eval
from .ellipticity import (
    EllipticityReport,
    IntervalSet,
    Scenario,
    alpha_field,
    classify,
    max_identity_perturbation,
    roots,
)
from .assembly import SaddleSystem, assemble, korn_terms
from .fem import BoxMesh, TaylorHoodSpace, build_mesh
from .fields import ScalarField, TensorField, VectorField
from .solver import SolveResult, minres_solve
from .tensors import (
    EigenTriple,
    Invariants3,
    SymTensor3,
    ch_inverse,
    d2_inverse,
    d_inverse,
    eig_sym3,
    invariants,
    lop,
    symmetrize,
)
from .verification import (
    ConvergenceTable,
    DimNorm,
    MMSCase,
    dim_norm,
    lambda1_box,
    rk_evaluate,
    run_convergence,
)

__version__ = "0.1.0"

__all__ = [
    "MuTriple", "acal", "audit_bounds", "g_eval",
    "EllipticityReport", "IntervalSet", "Scenario", "alpha_field", "classify",
    "max_identity_perturbation", "roots",
    "SaddleSystem", "assemble", "korn_terms",
    "BoxMesh", "TaylorHoodSpace", "build_mesh",
    "ScalarField", "TensorField", "VectorField",
    "SolveResult", "minres_solve",
    "EigenTriple", "Invariants3", "SymTensor3", "ch_inverse", "d2_inverse",
    "d_inverse", "eig_sym3", "invariants", "lop", "symmetrize",
    "ConvergenceTable", "DimNorm", "MMSCase", "dim_norm", "lambda1_box",
    "rk_evaluate", "run_convergence",
    "__version__",
]
