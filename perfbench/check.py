"""Output checks of the benchmark workloads.

Each workload's outputs are read back from the files the CLI wrote and
compared with ``references.json``, recorded by ``record.py`` on the
program as it was when the benchmark was defined.  Floating-point outputs
must agree to a relative ``RTOL``: loose enough for last-bit changes (a
reordered sum, a common-subexpression lambdify), tight enough to catch a
solution that was only converged to a looser solver tolerance.  Rate,
residual and PASS checks are absolute.
"""

from __future__ import annotations

import csv
import json
import math
import os

RTOL = 1e-8
# the CLI's own thresholds for the last observed rates (mms defaults)
MIN_RATES = {"h1_v": 1.9, "l2_v": 2.8, "l2_p": 1.9}
# the relative residual the solve workload requests (solve --tol default)
MAX_RESIDUAL = 1e-10

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references.json")


def load_references() -> dict:
    with open(REFERENCES, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def vtk_counts(path) -> dict:
    """Point and cell counts from a legacy VTK file's section headers."""
    counts = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("POINTS "):
                counts["vtk_points"] = int(line.split()[1])
            elif line.startswith("CELLS "):
                counts["vtk_cells"] = int(line.split()[1])
    return counts


def read_outputs(workload: str, outdir: str) -> dict:
    """The checked numbers of one CLI run, from the files it wrote."""
    if workload == "mms-aniso":
        errors = {"h1_v": [], "l2_v": [], "l2_p": []}
        rates = {}
        with open(os.path.join(outdir, "mms.csv"), "r", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                for key in errors:
                    errors[key].append(float(row[f"err_{key}"]))
                    if row[f"rate_{key}"]:
                        rates[key] = float(row[f"rate_{key}"])
        return {"errors": errors, "rates": rates}
    if workload == "solve-grid-8":
        rep = _read_json(os.path.join(outdir, "report.json"))
        out = {"alpha": rep["alpha"], "anorm_inf": rep["anorm_inf"],
               "grad_v_l2": rep["norms"]["grad_v_l2"],
               "residual": rep["solver"]["residual"]}
        out.update(vtk_counts(os.path.join(outdir, "solution.vtk")))
        return out
    if workload == "ellipticity-uniaxial":
        rep = _read_json(os.path.join(outdir, "ellipticity.json"))
        return {"alpha": rep["alpha"], "radius": rep["radius"],
                "positive": rep["positive"]}
    if workload == "verify-suite":
        rep = _read_json(os.path.join(outdir, "verify.json"))
        return {"properties": [[p["name"], bool(p["pass"])]
                               for p in rep["properties"]]}
    raise KeyError(workload)


def _close(name, got, want, problems) -> None:
    if not (isinstance(got, (int, float)) and math.isfinite(got)
            and abs(got - want) <= RTOL * abs(want)):
        problems.append(f"{name} = {got!r}, reference {want!r} (rtol {RTOL:g})")


def compare(workload: str, got: dict, ref: dict) -> list:
    """Problems found comparing outputs ``got`` with reference ``ref``."""
    problems = []
    if workload == "mms-aniso":
        for key, want in ref["errors"].items():
            have = got["errors"].get(key, [])
            if len(have) != len(want):
                problems.append(f"{key}: {len(have)} levels, want {len(want)}")
                continue
            for i, (g, w) in enumerate(zip(have, want)):
                _close(f"err_{key}[{i}]", g, w, problems)
        if "rates" in got:
            for key, floor in MIN_RATES.items():
                if not got["rates"].get(key, -math.inf) >= floor:
                    problems.append(f"rate_{key} {got['rates'].get(key)} < {floor}")
    elif workload == "solve-grid-8":
        for key in ("alpha", "anorm_inf", "grad_v_l2"):
            _close(key, got.get(key), ref[key], problems)
        if not got.get("residual", math.inf) <= MAX_RESIDUAL:
            problems.append(f"residual {got.get('residual')} > {MAX_RESIDUAL:g}")
        for key in ("vtk_points", "vtk_cells"):
            if got.get(key) != ref[key]:
                problems.append(f"{key} = {got.get(key)}, want {ref[key]}")
    elif workload == "ellipticity-uniaxial":
        for key in ("alpha", "radius"):
            _close(key, got.get(key), ref[key], problems)
        if got.get("positive") is False:
            problems.append("alpha reported not positive")
    elif workload == "verify-suite":
        failing = [name for name, ok in got["properties"] if not ok]
        if failing:
            problems.append(f"properties FAIL: {failing}")
        if got["properties"] != ref["properties"]:
            problems.append(f"properties {got['properties']} != reference "
                            f"{ref['properties']}")
    return problems


def reference_for(refs: dict, workload: str, variant: int) -> dict:
    """mms-aniso has one reference (it reads no seeded input); the others
    have one per input variant."""
    entry = refs[workload]
    return entry if workload == "mms-aniso" else entry[str(variant)]
