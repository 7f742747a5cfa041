"""Library pipelines of the benchmark workloads, each run in a fresh process.

    python3 perfbench/pipeline.py setup --workload W --inputs JSON
    python3 perfbench/pipeline.py trace --workload W --inputs JSON --variant V
                                        --out DIR --result FILE

``setup`` imports genstokes the way the CLI does and builds the workload's
inputs (the MMS case with its symbolic forcing, ``TensorField.from_file``,
the parsed ``--f-expr``, the ``MuTriple``), then exits.  The parent times
the whole process; it meshes and solves nothing.

``trace`` replays the public library calls the CLI makes for the workload,
in the CLI's order, with a span around each call.  A *probe* re-runs an
inner public call of ``assemble`` (or of the verify suite) on the same
inputs; it is recorded beside that call, never inside it.  Work that only
the benchmark does and that is not a probe (preparing probe inputs, the
input statistics) runs under ``Tracer.bench``: it is timed as ``bench_s``
and has no span.  Spans and counts stay in memory and are written once,
with the numbers the checker compares against the CLI run, when the
pipeline ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from contextlib import contextmanager

MMS_DIVISIONS = (2, 4, 8)
QUAD_N = 3
SOLVE_TOL = 1e-10
VERIFY_TRIALS = 50
SCALAR_PROBE_CALLS = 2000

MU = {
    "solve-grid-8": (1.0, 1.0, 0.5),
    "ellipticity-uniaxial": (-2.5, 4.0, 0.25),
}
ELLIPTICITY_SAMPLES = 40


class Tracer:
    """Spans (name, start, end, parent, run id) and counts, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counts = []
        self.bench_s = 0.0
        self._open = []

    @contextmanager
    def span(self, name: str, level=None, probe: bool = False):
        rec = {"name": name, "level": level, "probe": probe,
               "run": self.run_id,
               "parent": self._open[-1] if self._open else None,
               "start": None, "end": None}
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    @contextmanager
    def bench(self):
        """Benchmark-only work outside the CLI's calls: timed, no span."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.bench_s += time.perf_counter() - t0

    def count(self, name: str, value, level=None) -> None:
        self.counts.append({"name": name, "level": level, "value": value})


def _duration(rec) -> float:
    return rec["end"] - rec["start"]


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# set-up only


# genstokes, and numpy with it, are imported inside the functions so that the
# import is timed: by the parent in setup mode, by process.import in trace mode.
def setup(workload: str, inputs: dict) -> None:
    import genstokes.cli  # noqa: F401  (the CLI's import cost)
    from genstokes.constitutive import MuTriple
    from genstokes.fields import TensorField, VectorField
    from genstokes.verification import SHIPPED_CASES

    if workload == "mms-aniso":
        SHIPPED_CASES["anisotropic"]()
    if "b_grid" in inputs:
        TensorField.from_file(inputs["b_grid"])
    if "f_expr" in inputs:
        VectorField.expression([c.strip() for c in inputs["f_expr"].split(";")])
    if workload in MU:
        MuTriple(*MU[workload])


# ---------------------------------------------------------------------------
# traced pipelines


def _import(tr: Tracer) -> None:
    with tr.span("process.import"):
        import genstokes.cli  # noqa: F401


def _assembly_probes(tr: Tracer, mesh, space, mu, b, f, level=None):
    """Replay the inner calls of ``assemble`` on its inputs; returns B samples."""
    import numpy as np
    from genstokes.constitutive import acal_values
    from genstokes.ellipticity import alpha_field
    from genstokes.fem import ElementGeometry
    from genstokes.tensors import ch_inverse_batch, eig_sym3_batch

    with tr.span("fem.geometry", level, probe=True):
        geom = ElementGeometry(mesh, space, QUAD_N)
    pts = geom.flat_points
    with tr.span("fields.b_eval", level, probe=True):
        bvals = b.eval(pts)
    with tr.span("fields.f_eval", level, probe=True):
        f.eval(pts)
    with tr.span("tensors.eig_batch", level, probe=True) as rec:
        eig_sym3_batch(bvals)
    tr.count("tensors.eig_rows_per_s", len(bvals) / _duration(rec), level)
    with tr.span("tensors.ch_inverse_batch", level, probe=True):
        ch_inverse_batch(bvals)
    with tr.span("constitutive.acal_values", level, probe=True):
        acal_values(mu, b, pts)
    with tr.span("ellipticity.alpha_field", level, probe=True):
        alpha_field(mu, b, pts)
    tr.count("fem.n_tets", int(mesh.n_tets), level)
    tr.count("fem.quad_points", int(pts.shape[0]), level)
    return np.asarray(bvals)


def _solve_counts(tr: Tracer, result, level=None) -> None:
    stats = result.stats
    tr.count("assembly.kkt_n", stats["n"], level)
    tr.count("assembly.kkt_nnz", stats["nnz"], level)
    tr.count("solver.factor_nnz", stats["factor_nnz"], level)
    tr.count("solver.fill_ratio", stats["factor_nnz"] / stats["nnz"], level)
    tr.count("solver.residual", result.residual, level)


def trace_mms(tr: Tracer, args) -> dict:
    _import(tr)
    import numpy as np
    from genstokes.assembly import assemble
    from genstokes.fem import TaylorHoodSpace, build_mesh
    from genstokes.solver import solve
    from genstokes.verification import (SHIPPED_CASES, ConvergenceTable,
                                        audit_estimates, case_norm_suite,
                                        errors_against_exact, lambda1_box)

    box = (1.0, 1.0, 1.0)
    with tr.span("verification.case_build"):
        case = SHIPPED_CASES["anisotropic"]()
    with tr.span("verification.case_norm_suite"):
        norms = case_norm_suite(case, lambda1_box(*box), box)
    table = ConvergenceTable(case.name, list(MMS_DIVISIONS), [], [], [], [])
    samples = []
    for n in MMS_DIVISIONS:
        with tr.span("verification.level", n):
            with tr.span("fem.mesh_space", n):
                mesh = build_mesh(n, n, n, *box)
                space = TaylorHoodSpace(mesh)
            with tr.span("assembly.assemble", n):
                system = assemble(mesh, space, case.mu, case.b_field,
                                  case.f_field, quad_n=QUAD_N, threads=1)
            tr.count("assembly.peak_rss_mb", _rss_mb(), n)
            samples.append(_assembly_probes(tr, mesh, space, case.mu,
                                            case.b_field, case.f_field, n))
            with tr.span("solver.solve", n):
                result = solve(system)
            tr.count("solver.peak_rss_mb", _rss_mb(), n)
            _solve_counts(tr, result, n)
            with tr.span("verification.errors", n):
                e_h1, e_l2, e_p = errors_against_exact(system, result, case)
            table.h.append(max(box) / n)
            table.e_h1.append(e_h1)
            table.e_l2.append(e_l2)
            table.e_p.append(e_p)
            with tr.span("verification.audit", n):
                table.audits.append(audit_estimates(
                    system, result, case.mu, case.b_field, case_norms=norms))
            del system, result
    with tr.span("cli.write_outputs"):
        table.to_csv(os.path.join(args.out, "mms.csv"))
    return {"outputs": {"errors": {"h1_v": table.e_h1, "l2_v": table.e_l2,
                                   "l2_p": table.e_p}},
            "b_samples": np.concatenate(samples)}


def trace_solve(tr: Tracer, args) -> dict:
    _import(tr)
    from genstokes.assembly import assemble
    from genstokes.constitutive import MuTriple
    from genstokes.ellipticity import classify
    from genstokes.fem import ElementGeometry, TaylorHoodSpace, build_mesh
    from genstokes.fields import ScalarField, TensorField, VectorField
    from genstokes.solver import solve
    from genstokes.tensors import eig_sym3_batch
    from genstokes.verification import audit_estimates
    from genstokes.vtkio import write_vtk

    paths = args.inputs
    mu = MuTriple(*MU[args.workload])
    with tr.span("fields.grid_load"):
        b = TensorField.from_file(paths["b_grid"])
    with tr.span("fields.f_parse"):
        f = VectorField.expression([c.strip() for c in paths["f_expr"].split(";")])
    with tr.span("fem.mesh_space"):
        mesh = build_mesh(8, 8, 8, 1.0, 1.0, 1.0)
        space = TaylorHoodSpace(mesh)
    with tr.span("assembly.assemble"):
        system = assemble(mesh, space, mu, b, f, quad_n=QUAD_N, threads=1)
    tr.count("assembly.peak_rss_mb", _rss_mb())
    bvals = _assembly_probes(tr, mesh, space, mu, b, f)
    with tr.span("solver.solve"):
        result = solve(system, tol=SOLVE_TOL)
    tr.count("solver.peak_rss_mb", _rss_mb())
    _solve_counts(tr, result)
    with tr.span("verification.audit"):
        report = audit_estimates(system, result, mu, b)
    with tr.span("ellipticity.classify"):
        classify(mu)
    with tr.span("cli.alpha_cells"):
        geom = ElementGeometry(mesh, space, QUAD_N)
        ne, nq = geom.wdet.shape
        eigs = eig_sym3_batch(b.eval(geom.flat_points)).reshape(ne, nq, 3)
        m1, m2, m3 = [ScalarField.constant(v).eval(geom.flat_points)
                      .reshape(ne, nq, 1) for v in mu.as_tuple()]
        alpha_cells = (m1 + m2 * eigs + m3 / eigs).reshape(ne, -1).min(axis=1)
    vtk = os.path.join(args.out, "solution.vtk")
    with tr.span("vtkio.write"):
        write_vtk(vtk, space, result.velocity, result.pressure, alpha_cells)
    tr.count("vtkio.bytes", os.path.getsize(vtk))
    with tr.span("cli.write_outputs"):
        _write_json(os.path.join(args.out, "report.json"), report)
    return {"outputs": {"alpha": report["alpha"],
                        "anorm_inf": report["anorm_inf"],
                        "grad_v_l2": report["norms"]["grad_v_l2"],
                        "residual": result.residual,
                        "vtk_path": vtk},
            "b_samples": bvals}


def sample_points(box, n: int):
    """Cell-centre sample lattice of ``ellipticity --samples n``."""
    import numpy as np

    axes = [np.linspace(0.0, b, n + 1)[:-1] + b / (2 * n) for b in box]
    g = np.meshgrid(*axes, indexing="ij")
    return np.stack([gi.ravel() for gi in g], axis=-1)


def trace_ellipticity(tr: Tracer, args) -> dict:
    _import(tr)
    from genstokes.constitutive import MuTriple
    from genstokes.ellipticity import (alpha_field, classify,
                                       max_identity_perturbation, roots)
    from genstokes.fields import TensorField
    from genstokes.tensors import eig_sym3_batch

    mu = MuTriple(*MU[args.workload])
    with tr.span("ellipticity.classify"):
        classify(mu)
        roots(mu)
    with tr.span("fields.grid_load"):
        b = TensorField.from_file(args.inputs["b_grid"])
    with tr.span("cli.sample_points"):
        pts = sample_points(b.box, ELLIPTICITY_SAMPLES)
    with tr.span("ellipticity.alpha_field"):
        rep = alpha_field(mu, b, pts)
    with tr.span("fields.b_eval", probe=True):
        bvals = b.eval(pts)
    with tr.span("tensors.eig_batch", probe=True) as rec:
        eig_sym3_batch(bvals)
    tr.count("tensors.eig_rows_per_s", len(bvals) / _duration(rec))
    with tr.span("ellipticity.radius"):
        radius = max_identity_perturbation(mu, 0.0)
    with tr.span("cli.write_outputs"):
        _write_json(os.path.join(args.out, "ellipticity.json"),
                    dict(rep.as_dict(), radius=radius))
    return {"outputs": {"alpha": rep.alpha, "radius": radius},
            "b_samples": bvals}


def trace_verify(tr: Tracer, args) -> dict:
    _import(tr)
    import numpy as np
    from genstokes.assembly import korn_terms
    from genstokes.constitutive import MuTriple, audit_bounds, shipped_smooth_fields
    from genstokes.fem import TaylorHoodSpace, build_mesh
    from genstokes.tensors import ch_inverse, eig_sym3
    from genstokes.verifysuite import random_spd, run_suite

    with tr.span("verifysuite.run_suite"):
        report = run_suite(seed=args.variant, trials=VERIFY_TRIALS)
    with tr.span("cli.write_outputs"):
        _write_json(os.path.join(args.out, "verify.json"), report)

    with tr.bench():
        rng = np.random.default_rng(args.variant)
        tensors = [random_spd(rng) for _ in range(SCALAR_PROBE_CALLS)]
        samples = np.stack([t.to_matrix() for t in tensors])
    with tr.span("tensors.eig_sym3", probe=True) as rec:
        for t in tensors:
            eig_sym3(t)
    tr.count("tensors.eig_sym3_us", _duration(rec) / len(tensors) * 1e6)
    with tr.span("tensors.ch_inverse", probe=True) as rec:
        for t in tensors:
            ch_inverse(t)
    tr.count("tensors.ch_inverse_us", _duration(rec) / len(tensors) * 1e6)

    with tr.bench():
        pts = sample_points((1.0, 1.0, 1.0), 8)
        fields = shipped_smooth_fields()
    with tr.span("constitutive.audit_bounds", probe=True):
        for fld in fields.values():
            audit_bounds(MuTriple(1.0, 1.0, 1.0), fld, pts)

    with tr.bench():
        space = TaylorHoodSpace(build_mesh(3, 3, 3, 1.0, 1.0, 1.0))
        vecs = []
        for _ in range(VERIFY_TRIALS):
            u = np.zeros(space.n_velocity)
            u[space.interior_idx] = rng.standard_normal(space.interior_idx.size)
            vecs.append(u)
    with tr.span("assembly.korn_terms", probe=True):
        for u in vecs:
            korn_terms(space, u)
    return {"outputs": {"properties": [[p["name"], bool(p["pass"])]
                                       for p in report["properties"]]},
            "b_samples": samples}


TRACED = {
    "mms-aniso": trace_mms,
    "solve-grid-8": trace_solve,
    "ellipticity-uniaxial": trace_ellipticity,
    "verify-suite": trace_verify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(TRACED))
    parser.add_argument("--inputs", default="{}", help="JSON {name: value}")
    parser.add_argument("--variant", type=int, default=0)
    parser.add_argument("--out", default=".")
    parser.add_argument("--result", help="where trace mode writes its spans")
    args = parser.parse_args(argv)
    args.inputs = json.loads(args.inputs)
    if args.mode == "setup":
        setup(args.workload, args.inputs)
        return 0

    tr = Tracer(run_id=f"{args.workload}-v{args.variant}-{os.getpid()}")
    res = TRACED[args.workload](tr, args)
    with tr.bench():
        from inputs import repeated_eig_share

        bs = res.pop("b_samples")
        tr.count("input.samples", int(len(bs)))
        tr.count("input.repeated_eig_share", repeated_eig_share(bs))
    _write_json(args.result, dict(res, spans=tr.spans, counts=tr.counts,
                                  bench_s=tr.bench_s, run=tr.run_id))
    return 0


if __name__ == "__main__":
    sys.exit(main())
