"""MINRES iteration counts against the coercivity ratio ||A||_inf / alpha.

The coercivity sandwich ``alpha ||grad v||^2 <= a(v, v) <=
2 ||A||_inf ||grad v||^2`` bounds how far the velocity block is from the
scaled vector Laplacian that preconditions it, so the iteration count of the
lattice-preconditioned MINRES should grow with ``anorm_inf / alpha`` and stay
flat under mesh refinement.  This sweep checks both on the benchmark's
generic shear grid B (``perfbench.inputs``, solve-grid-8 workload): for each
scenario of ``ellipticity.classify`` it moves ``mu`` so that an endpoint of
the admissible set approaches the range of B's eigenvalues (or, in scenario
i, so that the double root of g approaches it), which drives alpha toward 0.

Run from the repository root (about 8 minutes on two cores at the default
meshes):

    PYTHONPATH=src python scripts/minres_sweep.py [--seed N] [--meshes 4,8,12]

It prints one Markdown table row per ``mu``: the scenario, alpha,
anorm_inf and their ratio at the finest mesh, and the iteration count at
each mesh (``cap`` when MINRES did not converge within its iteration cap).
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir))

from perfbench.inputs import F_EXPR, shear_tensors, write_inputs  # noqa: E402

from genstokes.assembly import assemble  # noqa: E402
from genstokes.constitutive import MuTriple  # noqa: E402
from genstokes.ellipticity import classify  # noqa: E402
from genstokes.errors import MaxIterations  # noqa: E402
from genstokes.fem import TaylorHoodSpace, build_mesh  # noqa: E402
from genstokes.fields import TensorField, VectorField  # noqa: E402
from genstokes.solver import minres_solve  # noqa: E402

# relative distance of the moving endpoint from B's eigenvalue range
DELTAS = (1.0, 0.3, 0.1, 0.03, 0.01, 0.001)


def families(lmin: float, lmax: float):
    """(label, [MuTriple per delta]) for each scenario reached on B."""
    lo = [lmin / (1.0 + d) for d in DELTAS]  # endpoints below the range
    hi = [lmax * (1.0 + d) for d in DELTAS]  # endpoints above the range
    return [
        # g = mu1 + lambda + 1/lambda, double root at 1 as mu1 -> -2
        ("i", [MuTriple(-2.0 + d, 1.0, 1.0) for d in DELTAS]),
        # roots r/2 < r below the range: Lambda = (0, r/2) u (r, inf)
        ("ii", [MuTriple(-1.5 * r, 1.0, 0.5 * r * r) for r in lo]),
        # mu1 + 1/lambda > 0 below r
        ("iv", [MuTriple(-1.0 / r, 0.0, 1.0) for r in hi]),
        # -lambda^2 + mu1 lambda + 1 > 0 below r
        ("v", [MuTriple(r - 1.0 / r, -1.0, 1.0) for r in hi]),
        ("vi", [MuTriple(1.0, 0.0, 0.0)]),
        ("vii", [MuTriple(-r, 1.0, 0.0) for r in lo]),
        ("viii", [MuTriple(r, -1.0, 0.0) for r in hi]),
        # lambda^2 + mu1 lambda - 0.1 > 0 above r
        ("ix", [MuTriple((0.1 - r * r) / r, 1.0, -0.1) for r in lo]),
        # -(lambda - r1)(lambda - r2) > 0 between r1 and r2
        ("x", [MuTriple(r1 + r2, -1.0, -r1 * r2) for r1, r2 in zip(lo, hi)]),
        ("xi", [MuTriple(1.0, 0.0, -r) for r in lo]),
    ]


def shear_fields(seed: int):
    """The benchmark's shear grid B for ``seed`` and its forcing f."""
    with tempfile.TemporaryDirectory() as tmp:
        b = TensorField.from_file(
            write_inputs("solve-grid-8", seed, tmp)["b_grid"])
    return b, VectorField.expression([c.strip() for c in F_EXPR.split(";")])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1301)
    ap.add_argument("--meshes", default="4,8,12")
    args = ap.parse_args(argv)
    meshes = [int(n) for n in args.meshes.split(",")]

    eigs = np.linalg.eigvalsh(shear_tensors(args.seed))
    lmin, lmax = float(eigs.min()), float(eigs.max())
    b, f = shear_fields(args.seed)
    spaces = {}
    for n in meshes:
        mesh = build_mesh(n, n, n, 1.0, 1.0, 1.0)
        spaces[n] = (mesh, TaylorHoodSpace(mesh))

    print(f"shear grid seed {args.seed}: nodal eigenvalues of B in "
          f"[{lmin:.4f}, {lmax:.4f}]")
    print("| scenario | mu | alpha | anorm_inf | ratio | "
          + " | ".join(f"its n={n}" for n in meshes) + " |")
    print("|---|---|---|---|---|" + "---|" * len(meshes))
    for label, mus in families(lmin, lmax):
        for mu in mus:
            assert classify(mu)[0].value == label, (label, mu)
            its = []
            for n in meshes:
                system = assemble(*spaces[n], mu, b, f)
                try:
                    its.append(str(minres_solve(system).stats["iterations"]))
                except MaxIterations:
                    its.append("cap")
            alpha, anorm = system.alpha, system.anorm_inf
            print(f"| {label} | {mu.mu1:.4g}, {mu.mu2:.4g}, {mu.mu3:.4g} | "
                  f"{alpha:.4g} | {anorm:.4g} | {anorm / alpha:.4g} | "
                  + " | ".join(its) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
