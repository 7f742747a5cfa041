"""Checked-in scripts stay importable and consistent with the library."""

import importlib.util
import re
from pathlib import Path

import numpy as np

from genstokes.assembly import assemble
from genstokes.fem import TaylorHoodSpace, build_mesh
from genstokes.solver import minres_solve, solve

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_minres_sweep_families_classify_to_their_labels():
    # the check main() makes on every mu before it solves anything
    sweep = _load("minres_sweep")
    eigs = np.linalg.eigvalsh(sweep.shear_tensors(1301))
    lmin, lmax = float(eigs.min()), float(eigs.max())
    for label, mus in sweep.families(lmin, lmax):
        for mu in mus:
            assert sweep.classify(mu)[0].value == label, (label, mu)


def test_minres_reaches_the_last_member_of_every_family():
    # the member of each family with the least alpha (ratio
    # ||A||_inf / alpha up to 3,869 here) converges within the iteration
    # cap and agrees with the reference LU (worst difference 1.7e-10)
    sweep = _load("minres_sweep")
    eigs = np.linalg.eigvalsh(sweep.shear_tensors(1301))
    b, f = sweep.shear_fields(1301)
    mesh = build_mesh(4, 4, 4, 1.0, 1.0, 1.0)
    space = TaylorHoodSpace(mesh)
    for label, mus in sweep.families(float(eigs.min()), float(eigs.max())):
        system = assemble(mesh, space, mus[-1], b, f)
        m, d = minres_solve(system), solve(system)
        assert np.max(np.abs(m.velocity - d.velocity)) <= 1e-8, label
        assert np.max(np.abs(m.pressure - d.pressure)) <= 1e-8, label


def test_peak_rss_reports_a_mesh_2_solve(capfd):
    # the parent runs the solve command in a capped child and reports the
    # child's own peak resident set
    code = _load("peak_rss").main(["--mesh", "2", "--limit-gb", "4"])
    out = capfd.readouterr().out
    assert code == 0, out
    assert re.search(r"^wrote \S+solution\.vtk and \S+report\.json$", out, re.MULTILINE)
    assert re.search(r"^mesh 2: wall [0-9.]+ s, peak RSS [0-9.]+ MB \(limit 4 GB\)$",
                     out, re.MULTILINE)
