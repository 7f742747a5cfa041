"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a single pass line after its assertions; run with
``pytest -s tests/test_acceptance.py`` to see them.
"""

import time

import numpy as np
import pytest

from genstokes.assembly import assemble, korn_terms
from genstokes.cli import main
from genstokes.constitutive import (
    MuTriple,
    audit_bounds,
    shipped_smooth_fields,
)
from genstokes.ellipticity import classify
from genstokes.fem import TaylorHoodSpace, build_mesh
from genstokes.fields import TensorField
from genstokes.tensors import SymTensor3, ch_inverse, d2_inverse, d_inverse
from genstokes.verification import (
    make_anisotropic_case,
    make_classical_case,
    run_convergence,
)

from test_tensors import adjugate_inverse_oracle, random_spd, unimodular_path


def report(num, text):
    print(f"[criterion {num:2d}] PASS - {text}")


@pytest.fixture(scope="module")
def mms_tables():
    tables = {}
    for make in (make_classical_case, make_anisotropic_case):
        case = make()
        tables[case.name] = run_convergence(case, [2, 4, 8], with_audits=True)
    return tables


def grid_points(n):
    axes = [np.linspace(0.0, 1.0, n + 1)[:-1] + 0.5 / n] * 3
    g = np.meshgrid(*axes, indexing="ij")
    return np.stack([x.ravel() for x in g], axis=-1)


def test_criterion_1_cayley_hamilton_inverse():
    rng = np.random.default_rng(2024)
    tensors = [random_spd(rng, cond_max=1e4, unit_det=True) for _ in range(1000)]
    start = time.perf_counter()
    for b in tensors:
        got = ch_inverse(b).to_matrix()
        want = adjugate_inverse_oracle(b.to_matrix())
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
        assert np.max(np.abs(b.to_matrix() @ got - np.eye(3))) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    report(1, f"1000 inversions vs adjugate oracle in {elapsed:.2f}s")


def test_criterion_2_derivative_formulas():
    rng = np.random.default_rng(2025)
    paths = [unimodular_path(rng) for _ in range(100)]
    start = time.perf_counter()
    for b0, db, d2b, b_at in paths:
        h = 1e-5
        fd1 = (ch_inverse(b_at(h)).to_matrix()
               - ch_inverse(b_at(-h)).to_matrix()) / (2 * h)
        an1 = d_inverse(b0, db).to_matrix()
        assert np.max(np.abs(an1 - fd1)) <= 1e-6 * max(np.max(np.abs(fd1)), 1e-30)
        h = 1e-4
        fd2 = (ch_inverse(b_at(h)).to_matrix()
               - 2 * ch_inverse(b0).to_matrix()
               + ch_inverse(b_at(-h)).to_matrix()) / h**2
        an2 = d2_inverse(b0, db, db, d2b).to_matrix()
        assert np.max(np.abs(an2 - fd2)) <= 1e-4 * max(np.max(np.abs(fd2)), 1e-30)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    report(2, f"100 derivative paths vs finite differences in {elapsed:.2f}s")


def test_criterion_3_lambda_classification():
    from test_ellipticity import REPRESENTATIVES

    rng = np.random.default_rng(2026)
    triples = [mu for mu, _ in REPRESENTATIVES.values()]
    while len(triples) < 511:
        mu = MuTriple(*rng.uniform(-3.0, 3.0, size=3))
        if mu.thermodynamically_admissible:
            triples.append(mu)
    lams = np.logspace(-6, 6, 1000)
    start = time.perf_counter()
    for mu in triples:
        _, lam_set = classify(mu)
        g = mu.mu1 + mu.mu2 * lams + mu.mu3 / lams
        member = np.zeros(lams.shape, dtype=bool)
        for lo, hi in lam_set.intervals:
            member |= (lams > lo) & (lams < hi)
        scale = abs(mu.mu1) + abs(mu.mu2) * lams + abs(mu.mu3) / lams
        safe = np.abs(g) > 1e-9 * scale
        assert np.array_equal(member[safe], g[safe] > 0.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    report(3, f"511 triples vs 1000-point sign sampling in {elapsed:.2f}s")


def test_criterion_4_explicit_constant_bounds():
    rng = np.random.default_rng(2027)
    start = time.perf_counter()
    pts_small = grid_points(2)
    for _ in range(100):
        b = TensorField.constant(random_spd(rng, unit_det=True))
        mu = MuTriple(*rng.uniform(0.1, 2.0, size=3))
        for audit in audit_bounds(mu, b, pts_small):
            if audit.satisfied is not None:
                assert audit.satisfied, f"{audit.id}: {audit.lhs} > {audit.rhs}"
    pts16 = grid_points(16)
    names = set()
    for name, fld in shipped_smooth_fields().items():
        names.add(name)
        for audit in audit_bounds(MuTriple(1.0, 1.0, 1.0), fld, pts16):
            if audit.satisfied is not None:
                assert audit.satisfied, f"{name}/{audit.id}"
    assert len(names) == 5
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"
    report(4, f"bounds on 100 constant + 5 smooth fields in {elapsed:.2f}s")


def test_criterion_5_korn_identity():
    start = time.perf_counter()
    mesh = build_mesh(3, 3, 3, 1.0, 1.0, 1.0)
    space = TaylorHoodSpace(mesh)
    rng = np.random.default_rng(2028)
    idx = space.interior_idx
    for _ in range(200):
        u = np.zeros(space.n_velocity)
        u[idx] = rng.standard_normal(idx.size)
        dd, gg, div2 = korn_terms(space, u)
        assert abs(dd - 0.5 * gg - 0.5 * div2) <= 1e-10 * dd
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s"
    report(5, f"200 discrete fields, identity residual <= 1e-10, {elapsed:.1f}s")


def test_criterion_6_coercivity_sandwich():
    start = time.perf_counter()
    mesh = build_mesh(3, 3, 3, 1.0, 1.0, 1.0)
    space = TaylorHoodSpace(mesh)
    coefficient_choices = [
        (MuTriple(1.0, 0.0, 0.0), TensorField.identity()),
        (MuTriple(1.0, 1.0, 1.0),
         TensorField.constant(SymTensor3.diag(2.0, 0.5, 1.0))),
        (MuTriple(1.0, 1.0, 1.0), make_anisotropic_case().b_field),
    ]
    rng = np.random.default_rng(2029)
    for mu, b in coefficient_choices:
        system = assemble(mesh, space, mu, b)
        for _ in range(200):
            ui = rng.standard_normal(system.n_interior)
            u = system.expand_velocity(ui)
            _, gg, _ = korn_terms(space, u)
            energy = float(ui @ (system.K @ ui))
            assert energy >= system.alpha * gg * (1.0 - 1e-12)
            assert energy <= 2.0 * system.anorm_inf * gg * (1.0 + 1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"
    report(6, f"600 fields x 3 coefficient choices in {elapsed:.1f}s")


def test_criterion_7_apriori_velocity_bound(mms_tables):
    start = time.perf_counter()
    n_solves = 0
    for table in mms_tables.values():
        for audit in table.audits:
            entry = [b for b in audit["bounds"]
                     if b["id"] == "velocity_gradient_apriori"][0]
            assert entry["satisfied"] is True
            n_solves += 1
    assert n_solves >= 6
    elapsed = time.perf_counter() - start
    report(7, f"bound satisfied on {n_solves} solves ({elapsed:.1f}s check)")


def test_criterion_8_mms_convergence(mms_tables):
    # thresholds are standard expectations for the quadratic/linear mixed
    # pair, pinned here as release gates
    for name, table in mms_tables.items():
        rates = table.last_rates()
        assert rates["h1_v"] >= 1.9, f"{name}: H1 velocity rate {rates['h1_v']}"
        assert rates["l2_v"] >= 2.8, f"{name}: L2 velocity rate {rates['l2_v']}"
        assert rates["l2_p"] >= 1.9, f"{name}: L2 pressure rate {rates['l2_p']}"
    rlines = {n: {k: round(v, 2) for k, v in t.last_rates().items()}
              for n, t in mms_tables.items()}
    report(8, f"observed rates {rlines}")


def _ratio_blowup_guard(audit_seq, factor: float = 10.0):
    """Check that no ratio diagnostic grows by more than ``factor`` between
    consecutive refinement levels.  Returns a list of offending ids."""
    offenders = []
    for prev, cur in zip(audit_seq[:-1], audit_seq[1:]):
        prev_map = {b["id"]: b for b in prev["bounds"] if "ratio" in b}
        for b in cur["bounds"]:
            if "ratio" not in b or b["id"] not in prev_map:
                continue
            r0 = prev_map[b["id"]]["ratio"]
            if r0 > 0 and b["ratio"] > factor * r0:
                offenders.append(b["id"])
    return offenders


def test_criterion_9_ratio_diagnostics(mms_tables):
    ratio_ids = {"pressure_l2", "d2v_broken", "grad_p_broken",
                 "d3v_exact", "d2p_exact"}
    for name, table in mms_tables.items():
        for audit in table.audits:
            present = {b["id"] for b in audit["bounds"] if "ratio" in b}
            assert ratio_ids <= present, f"{name}: missing {ratio_ids - present}"
            assert "rk_k2" in audit["norms"]
        offenders = _ratio_blowup_guard(table.audits, factor=10.0)
        assert not offenders, f"{name}: ratio blow-up in {offenders}"
    report(9, "ratio diagnostics emitted for all solves; no 10x blow-up")


def test_criterion_10_end_to_end_determinism(tmp_path):
    start = time.perf_counter()
    pairs = []
    for tag in ("a", "b"):
        rep = tmp_path / f"verify_{tag}.json"
        code = main(["--threads", "1", "--out", str(tmp_path), "verify",
                     "--seed", "11", "--trials", "20",
                     "--report", str(rep)])
        assert code == 0
        pairs.append(rep.read_bytes())
    assert pairs[0] == pairs[1]

    pairs = []
    for tag in ("a", "b"):
        rep = tmp_path / f"mms_{tag}.json"
        csv = tmp_path / f"mms_{tag}.csv"
        code = main(["--threads", "1", "--out", str(tmp_path), "mms",
                     "--case", "classical", "--meshes", "2,4",
                     "--csv", str(csv), "--report", str(rep)])
        assert code == 0
        pairs.append(rep.read_bytes() + csv.read_bytes())
    assert pairs[0] == pairs[1]
    elapsed = time.perf_counter() - start
    report(10, f"verify and mms reports byte-identical across runs ({elapsed:.1f}s)")
