"""Command-line interface: exit codes, artifacts, determinism."""

import importlib.util
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import all_samples_minimizer

from genstokes import cli, verification
from genstokes.cli import main
from genstokes.constitutive import MuTriple
from genstokes.fem import ElementGeometry, TaylorHoodSpace, build_mesh, cell_centres
from genstokes.fields import TensorField, write_grid_file
from genstokes.solver import minres_solve
from genstokes.tensors import eig_sym3_batch


def make_identity_grid(path, n=3, spd=True, box=(1.0, 1.0, 1.0)):
    values = np.zeros((n, n, n, 6))
    values[..., :3] = 1.0
    if not spd:
        values[1, 1, 1, 1] = -1.0  # one indefinite node
    write_grid_file(path, values, box)


# ---------------------------------------------------------------------------
# ellipticity


def test_ellipticity_case_i(capsys, tmp_path):
    code = main(["--out", str(tmp_path), "ellipticity", "--mu", "-1,1,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "case (i)" in out
    assert "(0, inf)" in out


def test_ellipticity_not_thermodynamic(tmp_path):
    code = main(["--out", str(tmp_path), "ellipticity", "--mu", "1,-1,-1"])
    assert code == 2


def test_ellipticity_alpha_over_grid(tmp_path, capsys):
    grid = tmp_path / "b.txt"
    make_identity_grid(grid)
    code = main(["--out", str(tmp_path), "ellipticity",
                 "--mu", "-2.5,4,0.25", "--b-grid", str(grid)])
    out = capsys.readouterr().out
    assert code == 0  # B = I: g(1) = 1.75 > 0
    assert "alpha = 1.75" in out


def test_ellipticity_grid_box_conflict_refused(tmp_path, capsys):
    # a grid file carries its box; an explicit --box that differs is refused
    # rather than ignored, and one that agrees is accepted
    grid = tmp_path / "b.txt"
    make_identity_grid(grid)
    args = ["--out", str(tmp_path), "ellipticity", "--mu", "-2.5,4,0.25",
            "--b-grid", str(grid)]
    assert main(args + ["--box", "5,5,5"]) == 2
    assert "differs from the grid file's box (1.0, 1.0, 1.0)" in capsys.readouterr().err
    assert main(args + ["--box", "1"]) == 0
    assert "alpha = 1.75" in capsys.readouterr().out


def test_ellipticity_non_spd_grid(tmp_path):
    grid = tmp_path / "bad.txt"
    make_identity_grid(grid, spd=False)
    code = main(["--out", str(tmp_path), "ellipticity",
                 "--mu", "1,1,1", "--b-grid", str(grid)])
    assert code == 3


def test_ellipticity_alpha_not_positive(tmp_path, capsys):
    # constant B = diag(2, 1/2, 1) has the eigenvalue 1/2 on the boundary of
    # the admissible set, so alpha = 0
    code = main(["--out", str(tmp_path), "ellipticity", "--mu", "-2.5,4,0.25",
                 "--b-expr", "a11=2; a22=0.5; a33=1", "--samples", "4"])
    out = capsys.readouterr().out
    assert "NOT positive" in out
    assert code == 4


def test_ellipticity_radius_report(tmp_path):
    report = tmp_path / "r.json"
    code = main(["--out", str(tmp_path), "ellipticity", "--mu", "-2.5,4,0.25",
                 "--radius", "--report", str(report)])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["scenario"] == "ii"
    assert data["radius"] == pytest.approx(1.0 / 6.0, rel=1e-4)


@pytest.mark.parametrize("workload, mu", [("solve-grid-8", (1.0, 1.0, 0.5)),
                                        ("ellipticity-uniaxial", (-2.5, 4.0, 0.25))])
def test_ellipticity_report_on_benchmark_grids_names_all_samples_minimizer(
        tmp_path, workload, mu):
    # the benchmark's shear and uniaxial grids (seed 1301), sampled as the
    # benchmark samples them: alpha, the minimizer point and its eigenvalue
    # in the report are those of the rule over all samples at once
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    grid = inputs.write_inputs(workload, 1301, str(tmp_path))["b_grid"]
    report = tmp_path / "r.json"
    code = main(["--out", str(tmp_path), "ellipticity", "--mu", ",".join(map(str, mu)),
                 "--b-grid", grid, "--samples", "40", "--radius",
                 "--report", str(report)])
    assert code == 0
    data = json.loads(report.read_text())
    b = TensorField.from_file(grid)
    alpha, point, eigenvalue, _ = all_samples_minimizer(
        MuTriple(*mu), b, cell_centres(b.box, 40))
    assert data["alpha"] == alpha
    assert data["minimizer_point"] == list(point)
    assert data["minimizer_eigenvalue"] == eigenvalue


def test_missing_mu_is_config_error(tmp_path):
    assert main(["--out", str(tmp_path), "ellipticity"]) == 2


# ---------------------------------------------------------------------------
# solve


def test_solve_writes_artifacts(tmp_path):
    code = main(["--out", str(tmp_path), "solve", "--mu", "1,0,0",
                 "--mesh", "2", "--f-expr", "1; 0; 0"])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    apriori = [b for b in report["bounds"]
               if b["id"] == "velocity_gradient_apriori"][0]
    assert apriori["satisfied"] is True
    assert report["solver"]["method"] == "minres"  # the one route
    assert report["solver"]["iterations"] > 0
    vtk = (tmp_path / "solution.vtk").read_text().splitlines()
    assert vtk[0] == "# vtk DataFile Version 3.0"
    assert vtk[3] == "DATASET UNSTRUCTURED_GRID"
    assert any(line.startswith("CELL_TYPES") for line in vtk)
    assert "24" in vtk


def test_solve_box_follows_the_grid_file(tmp_path, capsys):
    # the rule of ellipticity: --box defaults to the grid file's box, and an
    # explicit --box that differs from it is refused, naming both boxes
    grid = tmp_path / "b.txt"
    make_identity_grid(grid, box=(2.0, 2.0, 2.0))
    args = ["--out", str(tmp_path), "solve", "--mu", "1,0,0", "--mesh", "2",
            "--b-grid", str(grid), "--f-expr", "1; 0; 0"]
    assert main(args + ["--box", "1,1,1"]) == 2
    assert ("--box (1.0, 1.0, 1.0) differs from the grid file's box (2.0, 2.0, 2.0)"
            in capsys.readouterr().err)
    assert not (tmp_path / "report.json").exists()
    vtks = []
    for box in ([], ["--box", "2"]):  # the default, and an equal box
        assert main(args + box) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["lambda1"] == pytest.approx(3 * np.pi**2 / 4, rel=1e-15)
        vtks.append((tmp_path / "solution.vtk").read_text())
    assert vtks[0] == vtks[1]


def test_solve_cell_alpha_is_min_over_cell_quadrature(tmp_path):
    # per-cell alpha comes from the assembly samples; it must equal the
    # minimum of g over each cell's quadrature points, recomputed here
    s = "0.4*sin(pi*x)*sin(pi*y)*sin(pi*z)"
    b_expr = f"a11=1 + ({s})**2; a12={s}; a22=1; a33=1"
    code = main(["--out", str(tmp_path), "solve", "--mu", "1,1,0.5",
                 "--mesh", "2", "--b-expr", b_expr, "--f-expr", "1; 0; 0"])
    assert code == 0
    lines = (tmp_path / "solution.vtk").read_text().splitlines()
    start = lines.index("SCALARS alpha double 1") + 2
    space = TaylorHoodSpace(build_mesh(2, 2, 2, 1.0, 1.0, 1.0))
    geom = ElementGeometry(space.mesh, space, 3)
    b = TensorField.expression(dict(item.strip().split("=", 1)
                                    for item in b_expr.split(";")))
    eigs = eig_sym3_batch(b.eval(geom.flat_points))
    g = 1.0 + 1.0 * eigs + 0.5 / eigs
    want = g.reshape(space.mesh.n_tets, -1).min(axis=1)
    got = lines[start:start + space.mesh.n_tets]
    assert got == [f"{a:.12g}" for a in want]


def test_vtk_rows_are_the_per_row_format_in_any_batch(tmp_path, monkeypatch):
    # the sections are %-formatted in joined batches; every row must read
    # as its own "{:.12g}" format would, across batch boundaries too
    from genstokes import vtkio

    space = TaylorHoodSpace(build_mesh(2, 2, 2, 1.0, 1.0, 1.0))
    rng = np.random.default_rng(7)
    u = rng.standard_normal(space.n_velocity)
    u[:4] = (-0.0, 1e-300, 1e20, np.inf)
    p = rng.standard_normal(space.n_pressure)
    alpha = rng.random(space.mesh.n_tets)
    texts = []
    for rows in (1 << 14, 7):
        monkeypatch.setattr(vtkio, "_ROWS_PER_WRITE", rows)
        vtkio.write_vtk(tmp_path / "s.vtk", space, u, p, alpha)
        texts.append((tmp_path / "s.vtk").read_text())
    assert texts[0] == texts[1]
    lines = texts[0].splitlines()
    start = lines.index("VECTORS velocity double") + 1
    want = [" ".join(f"{v:.12g}" for v in row) for row in u.reshape(-1, 3)]
    assert lines[start:start + len(want)] == want
    start = lines.index(f"CELLS {space.mesh.n_tets} {space.mesh.n_tets * 11}") + 1
    assert lines[start] == "10 " + " ".join(
        str(i) for i in space.tet_nodes[0, vtkio._VTK_NODE_ORDER])


def test_solve_zero_forcing_zero_fields(tmp_path):
    code = main(["--out", str(tmp_path), "solve", "--mu", "1,0,0", "--mesh", "2"])
    assert code == 0
    text = (tmp_path / "solution.vtk").read_text()
    vec_start = text.index("VECTORS velocity double")
    block = text[vec_start:].splitlines()[1:]
    n_zero = sum(1 for line in block[:50] if set(line.split()) <= {"0"})
    assert n_zero == 50


def test_solve_non_spd_grid_exits_4(tmp_path, capsys):
    grid = tmp_path / "bad.txt"
    make_identity_grid(grid, spd=False)
    code = main(["--out", str(tmp_path), "solve", "--mu", "1,1,1",
                 "--mesh", "2", "--b-grid", str(grid)])
    assert code == 4
    assert "precheck failed" in capsys.readouterr().out


def test_solve_not_elliptic_exits_4(tmp_path):
    code = main(["--out", str(tmp_path), "solve", "--mu", "-2.5,4,0.25",
                 "--mesh", "2", "--b-expr", "a11=2; a22=0.5; a33=1"])
    assert code == 4


def _non_finite_grid_exits_4(tmp_path, capsys, command, bad):
    # nan <= 0 is false, so a NaN alpha must not slip through the precheck;
    # an inf entry makes the sample's eigenvalues NaN, not a triple point
    grid = tmp_path / "bad.txt"
    values = np.zeros((3, 3, 3, 6))
    values[..., :3] = 1.0
    values[1, 1, 1, 0 if bad == "nan" else 3] = float(bad)
    write_grid_file(grid, values, (1.0, 1.0, 1.0))
    args = ["--mesh", "2", "--f-expr", "1; 0; 0"] if command == "solve" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        code = main(["--out", str(tmp_path), command, "--mu", "1,1,1",
                     "--b-grid", str(grid)] + args)
    captured = capsys.readouterr()
    assert code == 4
    assert "alpha = nan" in captured.out
    assert "Traceback" not in captured.out + captured.err
    return captured.out


def test_solve_nan_grid_exits_4(tmp_path, capsys):
    out = _non_finite_grid_exits_4(tmp_path, capsys, "solve", "nan")
    assert "precheck failed" in out
    # the minimizer as plain numbers, not numpy scalar reprs
    assert "np.float64" not in out
    assert re.search(r"alpha = nan at \((0\.\d+, ){2}0\.\d+\)", out)


@pytest.mark.parametrize("command, bad", [
    ("solve", "inf"), ("ellipticity", "nan"), ("ellipticity", "inf"),
])
def test_non_finite_grid_exits_4(tmp_path, capsys, command, bad):
    _non_finite_grid_exits_4(tmp_path, capsys, command, bad)


_RECORDS = "1 1 1 0 0 0\n" * 8


@pytest.mark.parametrize("command", ["solve", "ellipticity"])
@pytest.mark.parametrize("text", [
    "2 2 2 1 1 1\n" + "1 1 1 0 0 0\n" * 7 + "1 1 1 0 x 0\n",  # non-numeric record
    "2.5 2 2 1 1 1\n" + _RECORDS,  # non-integer node count
    "-2 -2 2 1 1 1\n" + _RECORDS,  # negative node counts
    "2 2 2 nan 1 1\n" + _RECORDS,
    "2 2 2 1 inf 1\n" + _RECORDS,
    "2 2 2 1 1 0\n" + _RECORDS,
    "2 2 0 1 1 1\n",  # a zero node count and no records
    "2 1 2 1 1 1\n" + "1 1 1 0 0 0\n" * 4,  # one node on an axis
    "2 2 2 1 1 1\n",  # a header and no records
    "2 2 2 1 1 1\n \n\n# a comment is not a record\n",
], ids=["record", "count", "negative-count", "nan-box", "inf-box", "zero-box",
        "zero-count", "one-node", "no-records", "blank-or-comment-records"])
def test_malformed_grid_file_exits_2(tmp_path, capsys, command, text):
    grid = tmp_path / "bad.txt"
    grid.write_text(text)
    mesh = ["--mesh", "2"] if command == "solve" else []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # refused before numpy could warn
        code = main(["--out", str(tmp_path), command, "--mu", "1,1,1", *mesh,
                     "--b-grid", str(grid)])
    captured = capsys.readouterr()
    assert code == 2
    assert "configuration error" in captured.err
    assert str(grid) in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert [str(w.message) for w in caught] == []
    assert "Warning" not in captured.err
    if text.startswith("2 2 0") or text.startswith("2 1"):
        assert text.splitlines()[0] in captured.err  # the refused header


def test_solve_unknown_method_exits_2(tmp_path, capsys):
    # solve has one route, MINRES; --method is gone, as a flag with any
    # value and as a config line
    cfg = tmp_path / "run.cfg"
    cfg.write_text("method = direct\n")
    for head, tail in [([], ["--method", "direct"]), ([], ["--method", "minres"]),
                       (["--config", str(cfg)], [])]:
        code = main(["--out", str(tmp_path), *head, "solve", "--mu", "1,0,0",
                     "--mesh", "2", *tail])
        captured = capsys.readouterr()
        assert code == 2
        assert "--method" in captured.err.splitlines()[-1]
        assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "report.json").exists()


def test_help_returns_0(capsys):
    assert main(["solve", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--tol" in out
    assert "--method" not in out


def test_solve_nan_forcing_exits_5(tmp_path):
    # a NaN load is refused before the solver iterates
    code = main(["--out", str(tmp_path), "solve", "--mu", "1,0,0",
                 "--mesh", "2", "--f-expr", "nan; 0; 0"])
    assert code == 5


@pytest.mark.parametrize("text, node", [("I*x", "Name I"),
                                        ("zoo", "Name zoo"),
                                        ("oo", "Name oo"),
                                        ("x>0.5", "Compare"),
                                        ("Max(x,y)", "Call Max"),
                                        ("x/0", "x / 0"),
                                        ("x/(1-1)", "x / (1 - 1)")])
def test_solve_expression_outside_grammar_exits_2(tmp_path, capsys, text, node):
    # the grammar is the Taylor evaluator's node set: another name, a
    # comparison or another function is refused where the text is parsed,
    # and so is a division by a constant zero
    code = main(["--out", str(tmp_path), "solve", "--mu", "1,0,0",
                 "--mesh", "2", "--f-expr", f"{text};0;0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "configuration error" in captured.err
    assert node in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_solve_tol_gates_final_residual(tmp_path, monkeypatch):
    # --tol reaches the solver, whose final residual gate it is
    seen = {}

    def spy(system, **kwargs):
        seen.update(kwargs)
        return minres_solve(system, **kwargs)

    monkeypatch.setattr("genstokes.cli.minres_solve", spy)
    code = main(["--out", str(tmp_path), "solve", "--mu", "1,0,0",
                 "--mesh", "2", "--tol", "1e-12", "--f-expr", "0; 1; 0"])
    assert seen["tol"] == 1e-12
    assert code in (0, 5)
    if code == 0:
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["solver"]["residual"] <= 1e-12


# ---------------------------------------------------------------------------
# mms


def test_mms_single_mesh_no_thresholds(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "mms", "--case", "classical",
                 "--meshes", "2"])
    assert code == 0
    assert "no rates" in capsys.readouterr().out


def test_mms_rate_failure_exit_code(tmp_path):
    code = main(["--out", str(tmp_path), "mms", "--case", "classical",
                 "--meshes", "2,4", "--min-rate-h1", "5.0"])
    assert code == 6


def test_mms_under_integration_surfaces_as_rate_failure(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "mms", "--case", "classical",
                 "--meshes", "2,4", "--quad", "1"])
    assert code == 6
    assert "failed" in capsys.readouterr().out


def test_mms_unknown_case(tmp_path):
    assert main(["--out", str(tmp_path), "mms", "--case", "nope"]) == 2


@pytest.mark.parametrize("report", [False, True])
def test_mms_audits_only_for_report(tmp_path, monkeypatch, report):
    calls = {"case_norm_suite": 0, "audit_estimates": 0}

    def spy(name):
        real = getattr(verification, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(verification, name, spy(name))
    argv = ["--out", str(tmp_path), "mms", "--case", "classical", "--meshes", "2,3",
            "--min-rate-h1", "0", "--min-rate-l2", "0", "--min-rate-p", "0"]
    assert main(argv + (["--report", "r.json"] if report else [])) == 0
    assert calls == {"case_norm_suite": int(report), "audit_estimates": 2 * int(report)}
    if report:
        assert len(json.loads((tmp_path / "r.json").read_text())["audits"]) == 2


@pytest.mark.parametrize("argv, option", [
    (["solve", "--mu", "1,1,1", "--mesh", "2"], "--report"),
    (["solve", "--mu", "1,1,1", "--mesh", "2"], "--vtk"),
    (["mms", "--meshes", "2"], "--csv"),
    (["mms", "--meshes", "2"], "--report"),
    (["verify", "--trials", "1"], "--report"),
    (["ellipticity", "--mu", "1,1,1"], "--report"),
])
def test_output_path_without_directory_exits_2_before_work(tmp_path, capsys,
                                                            monkeypatch, argv, option):
    for name in ("cmd_ellipticity", "cmd_solve", "cmd_mms", "cmd_verify"):
        monkeypatch.setattr(cli, name, lambda args: pytest.fail("the command ran"))
    path = tmp_path / "nodir" / "out.txt"
    code = main(["--out", str(tmp_path), *argv, option, str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert str(path) in captured.err
    assert "Traceback" not in captured.out + captured.err


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_and_reports(tmp_path):
    report = tmp_path / "v.json"
    code = main(["--out", str(tmp_path), "verify", "--trials", "5",
                 "--report", str(report)])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["all_pass"] is True


def test_verify_seed_independence(tmp_path):
    assert main(["--out", str(tmp_path), "verify", "--trials", "5",
                 "--seed", "12345"]) == 0


def test_verify_has_no_tol_option(tmp_path, capsys):
    # the suite's thresholds are fixed; --tol, as a flag or a config line,
    # is refused as an unknown option
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol = 1e-3\n")
    for head in (["verify", "--tol", "1e-3"], ["--config", str(cfg), "verify"]):
        assert main(["--out", str(tmp_path)] + head + ["--trials", "1"]) == 2
        assert "--tol" in capsys.readouterr().err.splitlines()[-1]


def test_verify_determinism_byte_identical(tmp_path):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    main(["--threads", "1", "--out", str(tmp_path), "verify", "--trials", "5",
          "--seed", "7", "--report", str(r1)])
    main(["--threads", "1", "--out", str(tmp_path), "verify", "--trials", "5",
          "--seed", "7", "--report", str(r2)])
    assert r1.read_bytes() == r2.read_bytes()


# ---------------------------------------------------------------------------
# configuration plumbing


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mu = -1,1,1\nsamples = 4\n# comment\n")
    code = main(["--config", str(cfg), "--out", str(tmp_path), "ellipticity"])
    assert code == 0
    assert "case (i)" in capsys.readouterr().out
    # flag overrides the file value
    code = main(["--config", str(cfg), "--out", str(tmp_path),
                 "ellipticity", "--mu", "1,-1,-1"])
    assert code == 2


_SOLVE = ["solve", "--mu", "1,0,0", "--mesh", "2"]


@pytest.mark.parametrize("config, argv, named", [
    ("case = uzawa", ["mms", "--meshes", "2"], "--case"),
    ("methdo = direct", _SOLVE, "--methdo"),
    ("= direct", _SOLVE, "run.cfg:1: expected key = value"),
    (None, _SOLVE + ["--quad", "0"], "--quad"),
    (None, ["mms", "--meshes", "2", "--quad", "0"], "--quad"),
    (None, ["ellipticity", "--mu", "1,1,1", "--b-expr", "a11=1;a22=1;a33=1",
            "--samples", "0"], "--samples"),
    (None, ["solve", "--mu", "1,0,0", "--mesh", "a"], "--mesh"),
    (None, _SOLVE + ["--box", "a"], "--box"),
    (None, ["mms", "--meshes", "a"], "--meshes"),
    (None, ["solve", "--mu", "1,0,0", "--mesh", "0"], "--mesh"),
    (None, _SOLVE + ["--box", "0"], "--box"),
    (None, ["mms", "--meshes", "0"], "--meshes"),
    (None, ["mms", "--meshes", "2,2"], "--meshes"),
    (None, ["mms", "--meshes", "2,4,4"], "--meshes"),
    (None, _SOLVE + ["--f-expr", "open('F','w').close() or x; 0; 0"], "BoolOp"),
    (None, ["ellipticity", "--mu", "nan,1,1"], "--mu"),
    (None, ["ellipticity", "--mu", "1,1,1", "--radius", "--eps", "nan"], "--eps"),
    (None, ["verify", "--seed", "-1"], "--seed"),
    (None, ["verify", "--trials", "0"], "--trials"),
    (None, ["ellipticity", "--mu", "1,1,1", "--b-expr",
            "a11=1; a22=1; a33=1; a21=0.9"], "a21"),
    (None, ["ellipticity", "--mu", "1,1,1", "--b-expr",
            "a11=1; a22=1; a33=1; a12=0.9; a12=0"], "a12"),
    (None, ["ellipticity", "--mu", "1,1,1", "--b-grid", "F", "--b-expr", "a11=nan"],
     "--b-expr: not allowed with argument --b-grid"),
    (None, _SOLVE + ["--b-expr", "a11=1;a22=1;a33=1", "--b-field", "F"],
     "--b-grid/--b-field: not allowed with argument --b-expr"),
    ("b_grid = F", ["ellipticity", "--mu", "1,1,1", "--b-expr", "a11=1;a22=1;a33=1"],
     "--b-expr: not allowed with argument --b-grid"),
], ids=["config-choice", "config-unknown-key", "config-no-key", "solve-quad", "mms-quad",
        "samples", "mesh-text", "box-text", "meshes-text", "mesh-zero",
        "box-zero", "meshes-zero", "meshes-repeated", "meshes-repeated-last",
        "expression-code", "mu-nan", "eps-nan",
        "seed-negative", "trials-zero", "b-expr-unknown-name",
        "b-expr-repeated-name", "ellipticity-b-grid-and-b-expr",
        "solve-b-expr-and-b-field", "config-b-grid-and-b-expr"])
def test_refused_setting_exits_2(tmp_path, capsys, monkeypatch, config, argv,
                                 named):
    # refused where it enters: exit 2, the flag, key or node named, no
    # traceback, and nothing in the text run
    monkeypatch.chdir(tmp_path)
    head = ["--out", str(tmp_path)]
    if config:
        (tmp_path / "run.cfg").write_text(config + "\n")
        head += ["--config", str(tmp_path / "run.cfg")]
    code = main(head + argv)
    captured = capsys.readouterr()
    assert code == 2
    assert named in captured.err.splitlines()[-1]  # the error, not the usage
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "F").exists()


@pytest.mark.parametrize("key, value", [
    ("quad", "0"), ("mesh", "2,2"), ("box", "nan"), ("tol", "0"),
    ("mu", "1,1"), ("threads", "0"), ("case", "uzawa"), ("radius", "maybe"),
])
def test_config_value_is_checked_like_its_flag(tmp_path, capsys, key, value):
    # a config line is the subcommand's option --key=value
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    command = {"radius": "ellipticity", "case": "mms"}.get(key, "solve")
    mu = [] if command == "mms" else ["--mu", "1,0,0"]
    flag_code = main(["--out", str(tmp_path), command, *mu, f"--{key}={value}"])
    flag_err = capsys.readouterr().err.splitlines()[-1]
    code = main(["--config", str(cfg), "--out", str(tmp_path), command,
                 *(mu if key != "mu" else [])])
    err = capsys.readouterr().err.splitlines()[-1]
    assert code == flag_code == 2
    assert err == flag_err and f"--{key}" in err


def test_config_radius_line_switches_radius_on(tmp_path):
    cfg = tmp_path / "run.cfg"
    report = tmp_path / "r.json"
    for value, on in [("yes", True), ("On", True), ("1", True), ("no", False)]:
        cfg.write_text(f"mu = -2.5,4,0.25\nradius = {value}\n")
        code = main(["--config", str(cfg), "--out", str(tmp_path),
                     "ellipticity", "--report", str(report)])
        assert code == 0
        assert ("radius" in json.loads(report.read_text())) is on


def test_flags_before_subcommand_beat_config(tmp_path, monkeypatch):
    seen = {}
    real = cli.assemble

    def spy(*args, **kwargs):
        seen.update(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "assemble", spy)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"mu = 1,0,0\nmesh = 2\nthreads = 2\nout = {tmp_path / 'file'}\n")
    code = main(["--threads", "1", "--out", str(tmp_path / "flag"),
                 "--config", str(cfg), "solve"])
    assert code == 0
    assert seen["threads"] == 1
    assert (tmp_path / "flag" / "report.json").exists()
    assert not (tmp_path / "file").exists()


def test_values_starting_with_minus_parse(tmp_path):
    # '--f-expr -x*y;...' was read by argparse as an unknown option
    for head in (["--f-expr", "-x*y; 0; 0"], ["--config", str(tmp_path / "run.cfg")]):
        (tmp_path / "run.cfg").write_text("f_expr = -x*y; 0; 0\n")
        code = main(["--out", str(tmp_path), "solve", "--mu", "-1,1,1",
                     "--mesh", "2", *head])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["norms"]["f_l2"] > 0.0


def test_config_file_missing(tmp_path):
    assert main(["--config", str(tmp_path / "none.cfg"), "verify"]) == 2


@pytest.mark.parametrize("command", ["solve", "ellipticity"])
def test_missing_b_grid_exits_2(tmp_path, capsys, command):
    grid = tmp_path / "absent.txt"
    code = main(["--out", str(tmp_path), command, "--mu", "1,1,1",
                 "--b-grid", str(grid)])
    captured = capsys.readouterr()
    assert code == 2
    assert "configuration error" in captured.err
    assert str(grid) in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("GENSTOKES_OUTDIR", str(tmp_path / "envout"))
    code = main(["ellipticity", "--mu", "-1,1,1", "--report", "rep.json"])
    assert code == 0
    assert (tmp_path / "envout" / "rep.json").exists()
