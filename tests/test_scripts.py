"""Checked-in scripts stay importable and consistent with the library."""

import importlib.util
from pathlib import Path

import numpy as np

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
