"""Admissible-set classification, alpha evaluation, perturbation radius."""

import math

import numpy as np
import pytest

from genstokes.constitutive import MuTriple, g_eval, mu_values
from genstokes.ellipticity import (
    IntervalSet,
    Scenario,
    alpha_field,
    classify,
    lambda_endpoints,
    max_identity_perturbation,
    positivity_report,
    positivity_samples,
    roots,
)
from genstokes.errors import DegenerateQuadratic, NotAdmissible, NotSPD
from genstokes.fields import TensorField
from genstokes.tensors import SymTensor3, eig_sym3_batch

from test_tensors import as_array, random_spd

GOLDEN = math.sqrt(5.0)

# representative triple per documented scenario, with the expected set
REPRESENTATIVES = {
    Scenario.I: (MuTriple(-1.0, 1.0, 1.0), ((0.0, math.inf),)),
    Scenario.II: (MuTriple(-2.5, 4.0, 0.25), ((0.0, 0.125), (0.5, math.inf))),
    Scenario.III: (MuTriple(1.0, 0.0, 2.0), ((0.0, math.inf),)),
    Scenario.IV: (MuTriple(-1.0, 0.0, 2.0), ((0.0, 2.0),)),
    Scenario.V: (MuTriple(1.0, -1.0, 1.0), ((0.0, (1.0 + GOLDEN) / 2.0),)),
    Scenario.VI: (MuTriple(1.0, 0.0, 0.0), ((0.0, math.inf),)),
    Scenario.VII: (MuTriple(-1.0, 2.0, 0.0), ((0.5, math.inf),)),
    Scenario.VIII: (MuTriple(1.0, -0.5, 0.0), ((0.0, 2.0),)),
    Scenario.IX: (MuTriple(0.5, 1.0, -0.5), ((0.5, math.inf),)),
    Scenario.X: (MuTriple(3.0, -1.0, -1.0), (((3.0 - GOLDEN) / 2.0,
                                              (3.0 + GOLDEN) / 2.0),)),
    Scenario.XI: (MuTriple(2.0, 0.0, -1.0), ((0.5, math.inf),)),
}


def intervals_close(got, want, rel=1e-12):
    if len(got) != len(want):
        return False
    for (a, b), (c, d) in zip(got, want):
        for u, v in ((a, c), (b, d)):
            if math.isinf(u) != math.isinf(v):
                return False
            if math.isfinite(u) and abs(u - v) > rel * max(1.0, abs(v)):
                return False
    return True


# ---------------------------------------------------------------------------
# roots


def test_roots_examples():
    lo, hi = roots(MuTriple(-3.0, 1.0, 1.0))
    assert lo == pytest.approx((3.0 - GOLDEN) / 2.0)
    assert hi == pytest.approx((3.0 + GOLDEN) / 2.0)
    lo, hi = roots(MuTriple(-2.5, 4.0, 0.25))  # disc 2.25, roots (2.5 +- 1.5)/8
    assert (lo, hi) == pytest.approx((0.125, 0.5))
    assert roots(MuTriple(0.0, 1.0, 1.0)) is None  # disc = -4


def test_roots_degenerate_quadratic():
    with pytest.raises(DegenerateQuadratic):
        roots(MuTriple(1.0, 0.0, 1.0))


def test_roots_ascending_for_negative_mu2():
    lo, hi = roots(MuTriple(1.0, -1.0, 1.0))
    assert lo < hi
    # the positive root of p is the upper endpoint of the admissible set
    assert hi == pytest.approx((1.0 + GOLDEN) / 2.0)


# ---------------------------------------------------------------------------
# classification


@pytest.mark.parametrize("scenario", list(REPRESENTATIVES))
def test_classify_representatives(scenario):
    mu, want = REPRESENTATIVES[scenario]
    got_scenario, got_set = classify(mu)
    assert got_scenario == scenario
    assert intervals_close(got_set.intervals, want), got_set.intervals


def test_classify_not_thermodynamic():
    scenario, lam_set = classify(MuTriple(1.0, -1.0, -1.0))
    assert scenario == Scenario.NOT_THERMODYNAMIC
    assert isinstance(lam_set, IntervalSet)


def test_classify_guards_partition_parameter_space():
    rng = np.random.default_rng(13)
    count = 0
    while count < 500:
        mu = MuTriple(*rng.uniform(-3.0, 3.0, size=3))
        if not mu.thermodynamically_admissible:
            continue
        count += 1
        scenario, _ = classify(mu)
        assert scenario != Scenario.NOT_THERMODYNAMIC


def brute_force_membership(mu, lams):
    g = mu.mu1 + mu.mu2 * lams + mu.mu3 / lams
    return g > 0.0, g


def interval_membership(lam_set, lams):
    member = np.zeros(lams.shape, dtype=bool)
    for lo, hi in lam_set.intervals:
        member |= (lams > lo) & (lams < hi)
    return member


def test_classify_matches_brute_force_sampling():
    lams = np.logspace(-6, 6, 1000)
    rng = np.random.default_rng(17)
    triples = [mu for mu, _ in REPRESENTATIVES.values()]
    while len(triples) < 111:
        mu = MuTriple(*rng.uniform(-3.0, 3.0, size=3))
        if mu.thermodynamically_admissible:
            triples.append(mu)
    for mu in triples:
        _, lam_set = classify(mu)
        want, g = brute_force_membership(mu, lams)
        got = interval_membership(lam_set, lams)
        scale = abs(mu.mu1) + abs(mu.mu2) * lams + abs(mu.mu3) / lams
        safe = np.abs(g) > 1e-9 * scale
        assert np.array_equal(got[safe], want[safe])


def test_classify_scaling_invariance():
    rng = np.random.default_rng(19)
    for _ in range(100):
        mu = MuTriple(*rng.uniform(-2.0, 2.0, size=3))
        if not mu.thermodynamically_admissible:
            continue
        _, base = classify(mu)
        c = float(rng.uniform(0.1, 10.0))
        _, scaled = classify(MuTriple(c * mu.mu1, c * mu.mu2, c * mu.mu3))
        assert intervals_close(scaled.intervals, base.intervals, rel=1e-9)


def test_classify_double_root_excluded():
    # mu1 = -2 sqrt(mu2 mu3) with positive sum: double root at
    # sqrt(mu3/mu2) = 1/2, excluded from the open admissible set
    mu = MuTriple(-4.0, 4.0, 1.0)
    scenario, lam_set = classify(mu)
    assert scenario == Scenario.II
    assert len(lam_set.intervals) == 2
    assert not lam_set.contains(0.5)
    assert lam_set.contains(0.499)
    assert lam_set.contains(0.501)


@pytest.mark.parametrize("intervals", [
    (), ((0.0, 0.5), (0.5, math.inf)), ((0.25, 2.0),), ((0.0, 1e-3), (4.0, 8.0))])
def test_interval_set_contains_an_array_elementwise(intervals):
    # endpoints, points inside and outside each interval, 0 and inf
    lam_set = IntervalSet(intervals)
    ends = [x for lo, hi in intervals for x in (lo, hi)]
    lams = np.array([0.0, 1e-4, 0.1, 0.25, 0.5, 0.499, 0.501, 1.0, 2.0, 3.0,
                     4.0, 6.0, 8.0, 1e6, math.inf, *ends])
    member = lam_set.contains(lams)
    assert member.dtype == bool
    assert member.tolist() == [lam_set.contains(float(x)) for x in lams]
    assert member.tolist() == [any(lo < x < hi for lo, hi in intervals) for x in lams]
    assert lam_set.contains(lams.reshape(-1, 1)).ravel().tolist() == member.tolist()


# ---------------------------------------------------------------------------
# alpha over fields


def sample_pts(n=3):
    axes = [np.linspace(0.05, 0.95, n)] * 3
    g = np.meshgrid(*axes, indexing="ij")
    return np.stack([x.ravel() for x in g], axis=-1)


def test_alpha_identity_field():
    rep = alpha_field(MuTriple(1.0, 1.0, 1.0), TensorField.identity(), sample_pts())
    assert rep.alpha == pytest.approx(3.0)
    assert rep.positive
    assert rep.scenario == Scenario.I


def test_alpha_constant_diag():
    b = TensorField.constant(SymTensor3.diag(2.0, 0.5, 1.0))
    rep = alpha_field(MuTriple(1.0, 1.0, 1.0), b, sample_pts())
    # g(0.5) = g(2) = 3.5, g(1) = 3 -> alpha = 3 at the unit eigenvalue
    assert rep.alpha == pytest.approx(3.0)
    assert rep.minimizer_eigenvalue == pytest.approx(1.0)


def test_alpha_on_admissibility_boundary():
    b = TensorField.constant(SymTensor3.diag(2.0, 0.5, 1.0))
    rep = alpha_field(MuTriple(-2.5, 4.0, 0.25), b, sample_pts())
    # g(0.5) = 0, g(1) = 1.75, g(2) = 5.625 -> alpha = 0, not positive
    assert rep.alpha == pytest.approx(0.0, abs=1e-14)
    assert not rep.positive
    assert rep.minimizer_eigenvalue == pytest.approx(0.5)
    assert rep.margin == pytest.approx(0.0, abs=1e-12)


def test_alpha_margin_and_samples_on_scenario_ii_grid():
    # a stretch whose eigenvalues sweep across both endpoints 1/8 and 1/2
    mu = MuTriple(-2.5, 4.0, 0.25)
    a = "0.9*sin(pi*x)*cos(pi*y) + 0.5*z"
    b = TensorField.expression({"a11": f"exp({a})", "a22": f"exp(-({a}))",
                                "a33": "0.2 + x*y"})
    axes = [np.linspace(0.0, 1.0, 17)[:-1] + 1.0 / 32] * 3
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], -1)
    rep = alpha_field(mu, b, pts)
    eigs = eig_sym3_batch(b.eval(pts))
    endpoints = rep.interval_set.finite_endpoints()
    assert endpoints == [0.125, 0.5]
    # the generator formula the vectorized margin replaced, float for float
    assert rep.margin == min(abs(e - lam) for e in endpoints for lam in eigs.ravel())
    g = mu.mu1 + mu.mu2 * eigs + mu.mu3 / eigs
    np.testing.assert_array_equal(rep.alpha_samples, g.min(axis=1))
    assert rep.alpha == rep.alpha_samples.min()
    assert "alpha_samples" not in rep.as_dict()


def test_alpha_rejects_non_spd():
    b = TensorField.constant(SymTensor3.diag(1.0, -0.5, 1.0))
    with pytest.raises(NotSPD) as err:
        alpha_field(MuTriple(1.0, 1.0, 1.0), b, sample_pts())
    assert err.value.point is not None


def test_alpha_brute_force_constant_fields():
    rng = np.random.default_rng(23)
    pts = sample_pts()
    for _ in range(100):
        b = random_spd(rng, cond_max=100.0)
        mu = MuTriple(*rng.uniform(0.1, 2.0, size=3))
        rep = alpha_field(mu, TensorField.constant(b), pts)
        from genstokes.tensors import eig_sym3

        brute = min(g_eval(mu, lam) for lam in as_array(eig_sym3(b)))
        assert rep.alpha == pytest.approx(brute, rel=1e-10)


def test_alpha_varying_field_minimizer():
    fld = TensorField.expression({
        "a11": "exp(0.25*sin(pi*x))", "a22": "exp(-0.25*sin(pi*x))", "a33": "1",
    })
    rep = alpha_field(MuTriple(-1.0, 1.0, 1.0), fld, sample_pts(9))
    assert rep.positive
    # brute force over the same samples
    pts = sample_pts(9)
    vals = np.exp(0.25 * np.sin(np.pi * pts[:, 0]))
    lams = np.concatenate([vals, 1.0 / vals, np.ones_like(vals)])
    brute = np.min(-1.0 + lams + 1.0 / lams)
    assert rep.alpha == pytest.approx(brute, rel=1e-12)


class _Samples:
    """A tensor field that returns fixed matrices, one per sample point."""

    def __init__(self, mats):
        self.mats = mats

    def eval(self, pts):
        return self.mats.copy()


def test_alpha_minimizer_stays_put_under_rounding_level_ties():
    # ten samples tie at lambda_min = 1/2; nudging the later ones down by
    # 1e-16 (half an ulp of 1/2) must not move the reported minimizer
    pts = np.column_stack([np.linspace(0.05, 0.95, 10), np.full(10, 0.5),
                           np.full(10, 0.5)])
    lams = np.tile([0.5, 1.0, 2.0], (10, 1))
    mu = MuTriple(0.0, 1.0, 0.0)  # g(lambda) = lambda
    flat = alpha_field(mu, _Samples(lams[:, None, :] * np.eye(3)), pts)
    lams[3:, 0] -= 1e-16
    assert lams[3, 0] < 0.5
    nudged = alpha_field(mu, _Samples(lams[:, None, :] * np.eye(3)), pts)
    assert nudged.alpha == lams[3, 0] < flat.alpha == 0.5
    assert nudged.minimizer_point == flat.minimizer_point == tuple(pts[0])
    assert nudged.minimizer_eigenvalue == flat.minimizer_eigenvalue == 0.5
    assert nudged.as_dict()["minimizer_point"] == flat.as_dict()["minimizer_point"]


def test_report_over_blocks_is_the_one_block_report():
    # the minimizer's eigenvalue is read from the block that holds it, here
    # the third of four unequal blocks
    rng = np.random.default_rng(5)
    pts = rng.uniform(size=(600, 3))
    eigs = np.sort(rng.uniform(0.5, 3.0, size=(600, 3)), axis=1)
    eigs[400, 0] = 0.2  # the first sample of a block
    mu = MuTriple(0.0, 1.0, 0.0)  # g(lambda) = lambda

    def samples(sl):
        return positivity_samples(mu_values(mu, pts[sl]), eigs[sl], pts[sl],
                                  lambda_endpoints(mu))

    one = positivity_report(mu, pts.__getitem__, [samples(slice(None))])
    cuts = (0, 150, 400, 500, 600)
    many = positivity_report(mu, pts.__getitem__,
                             [samples(slice(a, b)) for a, b in zip(cuts, cuts[1:])])
    assert many.alpha == one.alpha == 0.2
    assert many.minimizer_point == one.minimizer_point == tuple(pts[400])
    assert many.minimizer_eigenvalue == one.minimizer_eigenvalue == 0.2
    assert np.array_equal(many.alpha_samples, one.alpha_samples)


# ---------------------------------------------------------------------------
# perturbation radius


def test_radius_unbounded():
    assert math.isinf(max_identity_perturbation(MuTriple(1.0, 1.0, 1.0), 0.0))


def test_radius_bounded_by_lambda_boundary():
    delta = max_identity_perturbation(MuTriple(-2.5, 4.0, 0.25), 0.0)
    # nearest boundary of the admissible set at lam = 1/2; shift bound 3 delta
    assert delta == pytest.approx((1.0 - 0.5) / 3.0, rel=1e-5)


def test_radius_margin_shrinks_delta():
    d0 = max_identity_perturbation(MuTriple(-2.5, 4.0, 0.25), 0.0)
    d1 = max_identity_perturbation(MuTriple(-2.5, 4.0, 0.25), 0.5)
    assert d1 < d0


def test_radius_boundary_case_raises():
    mu = MuTriple(-2.5, 4.0, 0.25)
    with pytest.raises(NotAdmissible):
        max_identity_perturbation(mu, g_eval(mu, 1.0))


def test_radius_respects_spd_reachability():
    # case (iii): admissible for all positive lam, g -> +inf at 0, so any
    # positive-definite perturbation stays admissible
    assert math.isinf(max_identity_perturbation(MuTriple(1.0, 0.0, 2.0), 0.0))
