"""Command-line entry point.

Subcommands:

* ``ellipticity`` -- classify the admissible eigenvalue set for a parameter
  triple, optionally evaluate the positivity constant over a tensor field
  and the safe perturbation radius around the identity.
* ``solve`` -- assemble and solve one generalized Stokes problem; writes a
  legacy VTK file and a JSON report.
* ``mms``   -- manufactured-solution convergence study; writes a CSV table.
* ``verify`` -- run the seeded property suite.

Settings have one parser, argparse: each option's ``type=`` converts and
checks its value.  A ``--config`` file's ``key = value`` lines are read as
the subcommand's options ``--key=value``, ahead of the explicit ones, which
therefore win.  The environment variable ``GENSTOKES_OUTDIR`` overrides the
default output directory.

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
from .solver import minres_solve
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


def _flag_type(what, cast=float, ok=math.isfinite, counts=(1,), distinct=False,
               shape=lambda vals: vals[0]):
    """An argparse ``type=``: comma-separated values, each converted by
    ``cast`` and kept by ``ok``, as many as ``counts`` allows (any number
    when it is None), none repeated if ``distinct``, handed to ``shape``.
    argparse names the option in the message of a refused value."""
    def convert(text):
        try:
            vals = [cast(v) for v in text.split(",")]
        except ValueError:
            vals = []
        if (not vals or not all(ok(v) for v in vals)
                or (counts is not None and len(vals) not in counts)
                or (distinct and len(set(vals)) < len(vals))):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return shape(vals)
    return convert


def _triple(vals) -> tuple:
    return tuple(vals * (3 // len(vals)))  # one value stands for all three


_MU = _flag_type("three finite numbers mu1,mu2,mu3", counts=(3,),
                 shape=lambda vals: MuTriple(*vals))
_COUNT = _flag_type("a whole number >= 1", int, lambda v: v >= 1)
# a repeated division count has no refinement to take a rate over
_COUNTS = _flag_type("distinct comma-separated whole numbers >= 1", int,
                     lambda v: v >= 1, counts=None, distinct=True, shape=list)
_MESH = _flag_type("one or three whole numbers >= 1", int, lambda v: v >= 1,
                   counts=(1, 3), shape=_triple)
_BOX = _flag_type("one or three finite positive numbers",
                  ok=lambda v: math.isfinite(v) and v > 0, counts=(1, 3),
                  shape=_triple)
_POSITIVE = _flag_type("a number > 0", ok=lambda v: v > 0)
_FINITE = _flag_type("a finite number")
_SEED = _flag_type("a whole number >= 0", int, lambda v: v >= 0)


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
            name, expr = (part.strip() for part in item.split("=", 1))
            if name in comps:
                raise ConfigError(f"--b-expr names {name} twice: {item!r}")
            comps[name] = expr
        return TensorField.expression(comps)
    return TensorField.identity()


def _box(args, b: TensorField) -> tuple:
    """The box of a run: ``--box``, else the grid file's, else the unit
    cube.  A ``--box`` that differs from the grid file's is refused."""
    if b.box and args.box and args.box != b.box:
        raise ConfigError(f"--box {args.box} differs from the grid file's box {b.box}")
    return args.box or b.box or (1.0, 1.0, 1.0)


def cmd_ellipticity(args) -> int:
    mu = args.mu
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
        pts = cell_centres(_box(args, b), args.samples)
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
    b = _tensor_field_from_args(args)
    if args.f_expr:
        comps = [c.strip() for c in args.f_expr.split(";")]
        if len(comps) != 3:
            raise ConfigError("--f-expr needs three ';'-separated expressions")
        f = VectorField.expression(comps)
    else:
        f = VectorField.zero()

    mesh = build_mesh(*args.mesh, *_box(args, b))
    space = TaylorHoodSpace(mesh)
    try:
        system = assemble(mesh, space, args.mu, b, f, quad_n=args.quad,
                          threads=args.threads)
    except (NotElliptic, NotSPD) as exc:
        print(f"ellipticity precheck failed: {exc}")
        return EXIT_NOT_ELLIPTIC
    try:
        result = minres_solve(system, tol=args.tol)
    except (FactorizationFailure, ResidualTooLarge, MaxIterations) as exc:
        print(f"solver failed: {exc}")
        return EXIT_SOLVER

    report = audit_estimates(system, result, args.mu, b, threads=args.threads)
    scenario, lam_set = classify(args.mu)
    report["scenario"] = scenario.value
    report["lambda_set"] = lam_set.as_dict()

    # per-cell alpha: the minimum over the cell's assembly quadrature points
    write_vtk(args.vtk, space, result.velocity, result.pressure,
              system.alpha_report.alpha_samples)
    _write_report(args.report, report)
    print(f"alpha = {system.alpha:.8g}; residual = {result.residual:.3e}")
    apriori = next(b_ for b_ in report["bounds"]
                   if b_["id"] == "velocity_gradient_apriori")
    print(f"a-priori velocity bound satisfied: {apriori['satisfied']}")
    print(f"wrote {args.vtk} and {args.report}")
    return EXIT_OK


def cmd_mms(args) -> int:
    case = SHIPPED_CASES[args.case]()
    try:
        table = run_convergence(case, args.meshes, quad_n=args.quad,
                                threads=args.threads,
                                with_audits=args.report is not None)
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
    parser.add_argument("--threads", type=_COUNT, default=1,
                        help="worker threads for assembly, error integration "
                             "and the estimate audits")
    # the global flags are also accepted after the subcommand; SUPPRESS keeps
    # the subparser from clobbering values parsed by the main parser
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    common.add_argument("--threads", type=_COUNT, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("ellipticity", parents=[common],
                        help="classify and evaluate positivity")
    pe.add_argument("--mu", type=_MU, required=True, help="mu1,mu2,mu3")
    b_source = pe.add_mutually_exclusive_group()
    b_source.add_argument("--b-grid", "--b-field", dest="b_grid",
                          help="tensor grid field file")
    b_source.add_argument("--b-expr", help="a11=expr;a12=expr;... components")
    pe.add_argument("--box", type=_BOX, default=None,
                    help="box edge lengths (default: the grid file's, else 1,1,1)")
    pe.add_argument("--samples", type=_COUNT, default=16,
                    help="sample divisions per axis")
    pe.add_argument("--eps", type=_FINITE, default=0.0,
                    help="positivity margin for the radius computation")
    pe.add_argument("--radius", action="store_true",
                    help="also compute the identity perturbation radius")
    pe.add_argument("--report", help="JSON report path")

    ps = sub.add_parser("solve", parents=[common],
                        help="assemble and solve one problem")
    ps.add_argument("--mu", type=_MU, required=True, help="mu1,mu2,mu3")
    ps.add_argument("--mesh", type=_MESH, default="4", help="divisions nx[,ny,nz]")
    ps.add_argument("--box", type=_BOX, default=None,
                    help="edge lengths Lx[,Ly,Lz] (default: the grid file's, "
                         "else 1,1,1)")
    b_source = ps.add_mutually_exclusive_group()
    b_source.add_argument("--b-grid", "--b-field", dest="b_grid",
                          help="tensor grid field file")
    b_source.add_argument("--b-expr", help="a11=expr;... components")
    ps.add_argument("--f-expr", help="fx;fy;fz forcing expressions")
    ps.add_argument("--quad", type=_COUNT, default=3,
                    help="quadrature points per direction")
    ps.add_argument("--tol", type=_POSITIVE, default=1e-10)
    ps.add_argument("--vtk", help="VTK output path")
    ps.add_argument("--report", help="JSON report path")

    pm = sub.add_parser("mms", parents=[common],
                        help="manufactured-solution convergence study")
    pm.add_argument("--case", choices=sorted(SHIPPED_CASES), default="classical")
    pm.add_argument("--meshes", type=_COUNTS, default="2,4,8",
                    help="division counts")
    pm.add_argument("--quad", type=_COUNT, default=3)
    pm.add_argument("--csv", help="CSV output path")
    pm.add_argument("--report", help="JSON report path")
    pm.add_argument("--min-rate-h1", type=_FINITE, default=1.9)
    pm.add_argument("--min-rate-l2", type=_FINITE, default=2.8)
    pm.add_argument("--min-rate-p", type=_FINITE, default=1.9)

    pv = sub.add_parser("verify", parents=[common],
                        help="run the seeded property suite")
    pv.add_argument("--seed", type=_SEED, default=0)
    pv.add_argument("--trials", type=_COUNT, default=50)
    pv.add_argument("--report", help="JSON report path")
    return parser


# options that take no value
_SWITCHES = ("--help", "--radius")


def _attached(argv) -> list:
    """Each '--option value' pair written as '--option=value', so that a value
    starting with '-' (say '--mu -1,1,1') stays the option's value."""
    out, rest = [], iter(argv)
    for tok in rest:
        if tok.startswith("--") and "=" not in tok and tok not in _SWITCHES:
            val = next(rest, None)
            tok = tok if val is None else f"{tok}={val}"
        out.append(tok)
    return out


def _config_flags(path) -> list:
    """The lines of a flat 'key = value' config file ('#' starts a comment) as
    options '--key=value' ('b_grid' and 'b-grid' are both '--b-grid').  A
    'radius' line of yes/true/on/1 is the switch '--radius' and one of
    no/false/off/0 is dropped; argparse refuses any other value."""
    if not os.path.exists(path):
        raise ConfigError(f"config file {path!r} not found")
    flags = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, val = (part.strip() for part in line.partition("="))
            if not (key and eq):
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key = key.replace("_", "-")
            if key == "radius" and val.lower() in ("1", "true", "yes", "on"):
                flags.append("--radius")
            elif key != "radius" or val.lower() not in ("0", "false", "no", "off"):
                flags.append(f"--{key}={val}")
    return flags


def main(argv=None) -> int:
    argv = _attached(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        pre = argparse.ArgumentParser(add_help=False)
        pre.add_argument("--config")
        config = pre.parse_known_args(argv)[0].config
        if config:
            # the file's options go right after the subcommand, ahead of every
            # explicit option, global ones written before the subcommand too
            at = next((i for i, tok in enumerate(argv) if tok[:1] != "-"), len(argv))
            argv = argv[at:at + 1] + _config_flags(config) + argv[:at] + argv[at + 1:]
        args = parser.parse_args(argv)
        outdir = _outdir(args)
        os.makedirs(outdir, exist_ok=True)
        _apply_default_paths(args, outdir)
        return {"ellipticity": cmd_ellipticity, "solve": cmd_solve,
                "mms": cmd_mms, "verify": cmd_verify}[args.command](args)
    except SystemExit as exc:
        # argparse exits on --help (0) and on a usage error or refused value (2)
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
        if val is None:
            return
        if not os.path.isabs(val):
            val = os.path.join(outdir, val)
        # refuse the path before the command's work, not when writing to it
        if not os.path.isdir(os.path.dirname(val) or "."):
            raise ConfigError(f"output path {val!r}: no directory "
                              f"{os.path.dirname(val)!r}")
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
