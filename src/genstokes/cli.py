"""Command-line entry point.

Subcommands:

* ``ellipticity`` -- classify the admissible eigenvalue set for a parameter
  triple, optionally evaluate the positivity constant over a tensor field
  and the safe perturbation radius around the identity.
* ``solve`` -- assemble and solve one generalized Stokes problem; writes a
  legacy VTK file and a JSON report.
* ``mms``   -- manufactured-solution convergence study; writes a CSV table.
* ``verify`` -- run the seeded property suite.

Configuration can come from a flat ``key = value`` text file (``--config``);
explicit command-line flags override file values.  The environment variable
``GENSTOKES_OUTDIR`` overrides the default output directory.

Exit codes: 0 success; 1 property/positivity failure; 2 configuration or
thermodynamic-admissibility error; 3 non-SPD tensor sample; 4 ellipticity
failure during assembly; 5 solver failure; 6 convergence-rate failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import verifysuite
from .assembly import assemble
from .constitutive import MuTriple
from .ellipticity import (
    alpha_field,
    classify,
    max_identity_perturbation,
    roots,
)
from .errors import (
    ConfigError,
    DegenerateQuadratic,
    FactorizationFailure,
    GenStokesError,
    MaxIterations,
    NotElliptic,
    NotSPD,
    ResidualTooLarge,
)
from .fem import TaylorHoodSpace, build_mesh, cell_centres
from .fields import TensorField, VectorField
from .solver import minres_solve, solve
from .verification import (
    SHIPPED_CASES,
    audit_estimates,
    run_convergence,
)
from .vtkio import write_vtk

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NOT_SPD = 3
EXIT_NOT_ELLIPTIC = 4
EXIT_SOLVER = 5
EXIT_RATE = 6


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _write_report(path, report) -> None:
    def clean(x):
        if isinstance(x, float) and math.isinf(x):
            return "inf"
        if isinstance(x, dict):
            return {k: clean(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [clean(v) for v in x]
        return x

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(clean(report), fh, indent=2, sort_keys=True,
                  default=_json_default)
        fh.write("\n")


def load_config(path) -> dict:
    """Flat key = value configuration file; '#' starts a comment."""
    if not os.path.exists(path):
        raise ConfigError(f"config file {path!r} not found")
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _parse_mu(spec: str) -> MuTriple:
    parts = [p.strip() for p in str(spec).split(",")]
    if len(parts) != 3:
        raise ConfigError(f"--mu needs three comma-separated values, got {spec!r}")
    try:
        return MuTriple(*(float(p) for p in parts))
    except ValueError as exc:
        raise ConfigError(f"cannot parse --mu {spec!r}: {exc}") from exc


def _parse_triple(spec: str, name: str, cast=float):
    parts = [p.strip() for p in str(spec).split(",")]
    if len(parts) == 1:
        parts = parts * 3
    if len(parts) != 3:
        raise ConfigError(f"{name} needs one or three comma-separated values")
    return tuple(cast(p) for p in parts)


def _tensor_field_from_args(args) -> TensorField:
    if getattr(args, "b_grid", None):
        return TensorField.from_file(args.b_grid)
    if getattr(args, "b_expr", None):
        comps = {}
        for item in args.b_expr.split(";"):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ConfigError(f"--b-expr entries need name=expression: {item!r}")
            name, expr = item.split("=", 1)
            comps[name.strip()] = expr.strip()
        return TensorField.expression(comps)
    return TensorField.identity()


def cmd_ellipticity(args) -> int:
    mu = _parse_mu(args.mu)
    report = {"mu": list(mu.as_tuple())}
    scenario, lam_set = classify(mu)
    report["scenario"] = scenario.value
    report["lambda_set"] = lam_set.as_dict()
    if not mu.thermodynamically_admissible:
        print(f"mu sum = {sum(mu.as_tuple()):g} <= 0: "
              "thermodynamic admissibility violated")
        print(f"scenario: {scenario.value}")
        if args.report:
            _write_report(args.report, report)
        return EXIT_CONFIG

    print(f"scenario: case ({scenario.value})")
    pretty = ", ".join(
        f"({lo:g}, {'inf' if math.isinf(hi) else f'{hi:g}'})"
        for lo, hi in lam_set.intervals
    ) or "empty"
    print(f"lambda set: {pretty}")
    try:
        rr = roots(mu)
        if rr is not None:
            print(f"quadratic roots: {rr[0]:.10g}, {rr[1]:.10g}")
            report["roots"] = list(rr)
        else:
            print("quadratic roots: none (negative discriminant)")
    except DegenerateQuadratic:
        if mu.mu1 != 0.0:
            lam0 = -mu.mu3 / mu.mu1
            print(f"linear root: {lam0:.10g}")
            report["linear_root"] = lam0

    code = EXIT_OK
    if args.b_grid or args.b_expr:
        b = _tensor_field_from_args(args)
        box = b.box if b.box else _parse_triple(args.box, "--box")
        pts = cell_centres(box, args.samples)
        try:
            rep = alpha_field(mu, b, pts)
        except NotSPD as exc:
            print(f"error: {exc}")
            return EXIT_NOT_SPD
        report.update(rep.as_dict())
        print(f"alpha = {rep.alpha:.10g} ({'positive' if rep.positive else 'NOT positive'})")
        if not rep.positive:
            code = EXIT_NOT_ELLIPTIC
    if args.radius:
        try:
            delta = max_identity_perturbation(mu, args.eps)
        except GenStokesError as exc:
            print(f"radius: {exc}")
            delta = None
        if delta is not None:
            print(f"identity perturbation radius: "
                  f"{'inf' if math.isinf(delta) else f'{delta:.8g}'}")
            report["radius"] = delta
    if args.report:
        _write_report(args.report, report)
    return code


def cmd_solve(args) -> int:
    mu = _parse_mu(args.mu)
    nx, ny, nz = _parse_triple(args.mesh, "--mesh", int)
    lx, ly, lz = _parse_triple(args.box, "--box")
    if args.tol <= 0:
        raise ConfigError("--tol must be positive")
    b = _tensor_field_from_args(args)
    if args.f_expr:
        comps = [c.strip() for c in args.f_expr.split(";")]
        if len(comps) != 3:
            raise ConfigError("--f-expr needs three ';'-separated expressions")
        f = VectorField.expression(comps)
    else:
        f = VectorField.zero()

    mesh = build_mesh(nx, ny, nz, lx, ly, lz)
    space = TaylorHoodSpace(mesh)
    try:
        system = assemble(mesh, space, mu, b, f, quad_n=args.quad,
                          threads=args.threads)
    except (NotElliptic, NotSPD) as exc:
        print(f"ellipticity precheck failed: {exc}")
        return EXIT_NOT_ELLIPTIC
    try:
        if args.method == "direct":
            result = solve(system, tol=args.tol)
        else:
            result = minres_solve(system, tol=args.tol)
    except (FactorizationFailure, ResidualTooLarge, MaxIterations) as exc:
        print(f"solver failed: {exc}")
        return EXIT_SOLVER

    report = audit_estimates(system, result, mu, b)
    scenario, lam_set = classify(mu)
    report["scenario"] = scenario.value
    report["lambda_set"] = lam_set.as_dict()

    # per-cell alpha: the minimum over the cell's assembly quadrature points
    samples = system.alpha_report.alpha_samples
    alpha_cells = samples.reshape(mesh.n_tets, -1).min(axis=1)

    write_vtk(args.vtk, space, result.velocity, result.pressure, alpha_cells)
    _write_report(args.report, report)
    print(f"alpha = {system.alpha:.8g}; residual = {result.residual:.3e}")
    apriori = next(b_ for b_ in report["bounds"]
                   if b_["id"] == "velocity_gradient_apriori")
    print(f"a-priori velocity bound satisfied: {apriori['satisfied']}")
    print(f"wrote {args.vtk} and {args.report}")
    return EXIT_OK


def cmd_mms(args) -> int:
    if args.case not in SHIPPED_CASES:
        raise ConfigError(f"unknown case {args.case!r}; "
                          f"available: {sorted(SHIPPED_CASES)}")
    divisions = [int(v) for v in str(args.meshes).split(",") if v.strip()]
    if not divisions:
        raise ConfigError("--meshes must list at least one division count")
    case = SHIPPED_CASES[args.case]()
    try:
        table = run_convergence(case, divisions, quad_n=args.quad,
                                threads=args.threads)
    except (FactorizationFailure, ResidualTooLarge, MaxIterations) as exc:
        # an unsolvable level (e.g. under-integrated quadrature) cannot
        # establish the required rates
        print(f"convergence study failed before rates could be checked: {exc}")
        return EXIT_RATE
    table.to_csv(args.csv)
    print(f"wrote {args.csv}")
    if args.report:
        _write_report(args.report, {
            "case": case.name,
            "divisions": table.divisions,
            "errors": {"h1_v": table.e_h1, "l2_v": table.e_l2, "l2_p": table.e_p},
            "rates": table.rates(),
            "audits": table.audits,
            "thresholds_note": (
                "rate thresholds are standard quadratic/linear mixed-element "
                "expectations, not values from the analysis"
            ),
        })
    last = table.last_rates()
    if last is None:
        print("single mesh level: no rates to check")
        return EXIT_OK
    print(f"observed rates: H1 velocity {last['h1_v']:.3f}, "
          f"L2 velocity {last['l2_v']:.3f}, L2 pressure {last['l2_p']:.3f}")
    ok = (last["h1_v"] >= args.min_rate_h1
          and last["l2_v"] >= args.min_rate_l2
          and last["l2_p"] >= args.min_rate_p)
    if not ok:
        print(f"rate thresholds not met "
              f"(need {args.min_rate_h1}/{args.min_rate_l2}/{args.min_rate_p})")
        return EXIT_RATE
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.tol <= 0:
        raise ConfigError("--tol must be positive")
    report = verifysuite.run_suite(seed=args.seed, trials=args.trials)
    for prop in report["properties"]:
        status = "PASS" if prop["pass"] else "FAIL"
        print(f"{status} {prop['name']} ({prop['detail']})")
    if args.report:
        _write_report(args.report, report)
    return EXIT_OK if report["all_pass"] else EXIT_FAIL


def _outdir(args) -> str:
    if args.out:
        return args.out
    return os.environ.get("GENSTOKES_OUTDIR", ".")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genstokes",
        description="generalized Stokes solver with tensor viscosity",
    )
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument("--out", help="output directory (default '.', or "
                                      "GENSTOKES_OUTDIR)")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for assembly")
    # the global flags are also accepted after the subcommand; SUPPRESS keeps
    # the subparser from clobbering values parsed by the main parser
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    common.add_argument("--threads", type=int, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("ellipticity", parents=[common],
                        help="classify and evaluate positivity")
    pe.add_argument("--mu", required=False, help="mu1,mu2,mu3")
    pe.add_argument("--b-grid", "--b-field", dest="b_grid",
                    help="tensor grid field file")
    pe.add_argument("--b-expr", help="a11=expr;a12=expr;... components")
    pe.add_argument("--box", default="1,1,1", help="box edge lengths")
    pe.add_argument("--samples", type=int, default=16,
                    help="sample divisions per axis")
    pe.add_argument("--eps", type=float, default=0.0,
                    help="positivity margin for the radius computation")
    pe.add_argument("--radius", action="store_true",
                    help="also compute the identity perturbation radius")
    pe.add_argument("--report", help="JSON report path")

    ps = sub.add_parser("solve", parents=[common],
                        help="assemble and solve one problem")
    ps.add_argument("--mu", required=False, help="mu1,mu2,mu3")
    ps.add_argument("--mesh", default="4", help="divisions nx[,ny,nz]")
    ps.add_argument("--box", default="1,1,1", help="edge lengths Lx[,Ly,Lz]")
    ps.add_argument("--b-grid", "--b-field", dest="b_grid",
                    help="tensor grid field file")
    ps.add_argument("--b-expr", help="a11=expr;... components")
    ps.add_argument("--f-expr", help="fx;fy;fz forcing expressions")
    ps.add_argument("--quad", type=int, default=3,
                    help="quadrature points per direction")
    ps.add_argument("--method", choices=("minres", "direct"),
                    default="minres")
    ps.add_argument("--tol", type=float, default=1e-10)
    ps.add_argument("--vtk", help="VTK output path")
    ps.add_argument("--report", help="JSON report path")

    pm = sub.add_parser("mms", parents=[common],
                        help="manufactured-solution convergence study")
    pm.add_argument("--case", default="classical",
                    help="classical | anisotropic")
    pm.add_argument("--meshes", default="2,4,8", help="division counts")
    pm.add_argument("--quad", type=int, default=3)
    pm.add_argument("--csv", help="CSV output path")
    pm.add_argument("--report", help="JSON report path")
    pm.add_argument("--min-rate-h1", type=float, default=1.9)
    pm.add_argument("--min-rate-l2", type=float, default=2.8)
    pm.add_argument("--min-rate-p", type=float, default=1.9)

    pv = sub.add_parser("verify", parents=[common],
                        help="run the seeded property suite")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--trials", type=int, default=50)
    pv.add_argument("--tol", type=float, default=1e-10,
                    help="must be positive; the suite's thresholds are fixed")
    pv.add_argument("--report", help="JSON report path")
    return parser


_NUMERIC_VALUE_FLAGS = {"--mu", "--box", "--meshes", "--eps", "--tol",
                        "--min-rate-h1", "--min-rate-l2", "--min-rate-p"}


def _merge_negative_values(argv):
    """Join '--mu -1,1,1' into '--mu=-1,1,1' so argparse keeps the value."""
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (tok in _NUMERIC_VALUE_FLAGS and nxt is not None
                and nxt.startswith("-") and len(nxt) > 1
                and set(nxt[1:]) <= set("0123456789.,+-eE")):
            out.append(f"{tok}={nxt}")
            skip = True
        else:
            out.append(tok)
    return out


def _coerce_like(current, raw: str):
    if isinstance(current, bool):
        return raw.strip().lower() in ("1", "true", "yes", "on")
    if isinstance(current, int) and not isinstance(current, bool):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    return raw


def _apply_config(args, argv, path) -> None:
    """Fill parsed args from the config file; explicit flags win."""
    cfg = load_config(path)
    supplied = set()
    for tok in argv:
        if tok.startswith("--"):
            supplied.add(tok[2:].split("=", 1)[0].replace("-", "_"))
    for key, raw in cfg.items():
        if key in supplied or not hasattr(args, key):
            continue
        try:
            setattr(args, key, _coerce_like(getattr(args, key), raw))
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc


def main(argv=None) -> int:
    argv = _merge_negative_values(list(sys.argv[1:] if argv is None else argv))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            _apply_config(args, argv, args.config)
        outdir = _outdir(args)
        os.makedirs(outdir, exist_ok=True)
        _apply_default_paths(args, outdir)
        if args.command in ("ellipticity", "solve") and not args.mu:
            raise ConfigError("--mu is required")
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        handler = {
            "ellipticity": cmd_ellipticity,
            "solve": cmd_solve,
            "mms": cmd_mms,
            "verify": cmd_verify,
        }[args.command]
        return handler(args)
    except SystemExit as exc:
        # argparse exits on --help (0) and on a usage error (2)
        return exc.code
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GenStokesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


def _apply_default_paths(args, outdir: str) -> None:
    def place(name, default):
        val = getattr(args, name, None)
        if val is None and default is not None:
            val = default
        if val is not None and not os.path.isabs(val):
            val = os.path.join(outdir, val)
        if hasattr(args, name):
            setattr(args, name, val)

    if args.command == "solve":
        place("vtk", "solution.vtk")
        place("report", "report.json")
    elif args.command == "mms":
        place("csv", f"mms_{args.case}.csv")
        place("report", None)
    else:
        place("report", None)
    val = getattr(args, "b_grid", None)
    if val and not os.path.exists(val):
        raise ConfigError(f"input file {val!r} not found")


if __name__ == "__main__":
    sys.exit(main())
