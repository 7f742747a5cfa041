"""Positivity analysis of the constitutive operator A(B).

For constant parameters the admissible set
Lambda = {lambda > 0 : mu1 + mu2*lambda + mu3/lambda > 0} is computed by
sign analysis of p(lambda) = mu2*lambda^2 + mu1*lambda + mu3 on (0, inf)
and then matched against the eleven documented parameter scenarios.  The
quadratic root formula labels its branches by sign choice, which for
mu2 < 0 makes the "+" branch the smaller (possibly negative) root; sign
analysis is unambiguous, so interval endpoints always come from it and the
scenario label is attached afterwards.

For spatially varying data, the uniform positivity constant alpha is the
sampled minimum of g over the eigenvalues of B(x).  Assembly streams its
quadrature points through ``positivity_samples`` block by block, keeping
one value per element, the least g over its points, and joins the blocks
with ``positivity_report``; ``alpha_field`` is the one-block case, whose
groups are single samples.  The report evaluates again only the first
group within the tie tolerance of alpha, to name the first tied sample,
its point and its eigenvalue: the sample a pass over all samples names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .constitutive import MuTriple, g_eval, mu_values
from .errors import DegenerateQuadratic, NotAdmissible, NotSPD
from .fields import TensorField
from .tensors import eig_sym3_batch

__all__ = [
    "IntervalSet",
    "Scenario",
    "EllipticityReport",
    "roots",
    "classify",
    "alpha_field",
    "PositivitySamples",
    "lambda_endpoints",
    "positivity_samples",
    "positivity_report",
    "max_identity_perturbation",
]


class Scenario(Enum):
    """The eleven constant-parameter cases, plus the inadmissible one."""

    I = "i"
    II = "ii"
    III = "iii"
    IV = "iv"
    V = "v"
    VI = "vi"
    VII = "vii"
    VIII = "viii"
    IX = "ix"
    X = "x"
    XI = "xi"
    NOT_THERMODYNAMIC = "not_thermodynamic"


@dataclass(frozen=True)
class IntervalSet:
    """Up to two disjoint open intervals with endpoints in [0, inf]."""

    intervals: tuple = ()

    def __post_init__(self):
        prev_hi = -1.0
        for lo, hi in self.intervals:
            if not (lo < hi):
                raise ValueError(f"empty or reversed interval ({lo}, {hi})")
            if lo < 0:
                raise ValueError("interval endpoints must be >= 0")
            if lo < prev_hi:
                raise ValueError("intervals must be disjoint and ordered")
            prev_hi = hi
        if len(self.intervals) > 2:
            raise ValueError("at most two intervals supported")

    def contains(self, lam):
        """Whether ``lam`` lies in the set, elementwise for an array."""
        inside = np.zeros(np.shape(lam), dtype=bool)
        for lo, hi in self.intervals:
            inside |= (lo < lam) & (lam < hi)
        return inside if inside.ndim else bool(inside)

    def finite_endpoints(self) -> list:
        out = []
        for lo, hi in self.intervals:
            if lo > 0.0:
                out.append(lo)
            if math.isfinite(hi):
                out.append(hi)
        return out

    def as_dict(self) -> dict:
        return {"intervals": [[lo, hi] for lo, hi in self.intervals]}


@dataclass
class EllipticityReport:
    """Outcome of the positivity analysis over a sample set."""

    alpha: float
    positive: bool
    scenario: Optional[Scenario] = None
    interval_set: Optional[IntervalSet] = None
    minimizer_point: Optional[tuple] = None
    minimizer_eigenvalue: Optional[float] = None
    margin: Optional[float] = None
    # min_i g(lambda_i) per sample group in order (a sample in alpha_field,
    # an element in assembly); not part of the report
    alpha_samples: Optional[np.ndarray] = field(default=None, repr=False,
                                                compare=False)

    def as_dict(self) -> dict:
        d = {"alpha": self.alpha, "positive": bool(self.positive)}
        if self.scenario is not None:
            d["scenario"] = self.scenario.value
        if self.interval_set is not None:
            d["lambda_set"] = self.interval_set.as_dict()
        if self.minimizer_point is not None:
            d["minimizer_point"] = list(self.minimizer_point)
            d["minimizer_eigenvalue"] = self.minimizer_eigenvalue
        if self.margin is not None and math.isfinite(self.margin):
            d["margin"] = self.margin
        return d


def roots(mu: MuTriple):
    """Real roots of p(lambda) = mu2 lambda^2 + mu1 lambda + mu3, ascending.

    Returns None when the discriminant is negative.  Raises
    DegenerateQuadratic for mu2 = 0 (the linear root is -mu3/mu1).
    """
    if mu.mu2 == 0.0:
        raise DegenerateQuadratic("mu2 = 0: use the linear root -mu3/mu1")
    disc = mu.mu1 * mu.mu1 - 4.0 * mu.mu2 * mu.mu3
    if disc < 0.0:
        return None
    sq = math.sqrt(disc)
    r1 = (-mu.mu1 + sq) / (2.0 * mu.mu2)
    r2 = (-mu.mu1 - sq) / (2.0 * mu.mu2)
    return (min(r1, r2), max(r1, r2))


def _p(mu: MuTriple, lam: float) -> float:
    return mu.mu2 * lam * lam + mu.mu1 * lam + mu.mu3


def _positive_roots(mu: MuTriple) -> list:
    if mu.mu2 == 0.0:
        if mu.mu1 == 0.0:
            return []
        r = -mu.mu3 / mu.mu1
        return [r] if r > 0.0 else []
    rr = roots(mu)
    if rr is None:
        return []
    out = [r for r in rr if r > 0.0]
    # collapse a numerically double root to one breakpoint
    if len(out) == 2 and out[1] - out[0] <= 1e-15 * max(1.0, abs(out[1])):
        out = [out[0]]
    return out


def _lambda_set(mu: MuTriple) -> IntervalSet:
    """Sign analysis of p on (0, inf)."""
    breaks = _positive_roots(mu)
    edges = [0.0] + breaks + [math.inf]
    intervals = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if math.isinf(hi):
            probe = max(2.0 * lo, 1.0) if lo > 0 else 1.0
        else:
            probe = 0.5 * (lo + hi)
        if _p(mu, probe) > 0.0:
            intervals.append((lo, hi))
    # adjacent kept intervals can only arise across a double root; keep them
    # separate (the root itself is excluded from the open set)
    return IntervalSet(tuple(intervals))


def _scenario_label(mu: MuTriple) -> Scenario:
    m1, m2, m3 = mu.mu1, mu.mu2, mu.mu3
    if m1 + m2 + m3 <= 0.0:
        return Scenario.NOT_THERMODYNAMIC
    if m3 > 0.0:
        if m2 > 0.0:
            crit = -2.0 * math.sqrt(m2 * m3)
            return Scenario.I if m1 > crit else Scenario.II
        if m2 == 0.0:
            return Scenario.III if m1 >= 0.0 else Scenario.IV
        return Scenario.V
    if m3 == 0.0:
        if m2 >= 0.0 and m1 >= 0.0:
            return Scenario.VI
        if m2 > 0.0 and m1 < 0.0:
            return Scenario.VII
        return Scenario.VIII  # m2 < 0, m1 > 0 forced by admissibility
    # m3 < 0
    if m2 > 0.0:
        return Scenario.IX
    if m2 == 0.0:
        return Scenario.XI  # m1 > 0 forced by admissibility
    return Scenario.X  # m1 > 2 sqrt(m2 m3) follows from admissibility


def classify(mu: MuTriple):
    """(Scenario, IntervalSet) for a constant parameter triple."""
    return _scenario_label(mu), _lambda_set(mu)


@dataclass
class PositivitySamples:
    """Positivity data of one block of sample groups (see :func:`positivity_samples`)."""

    g_min: np.ndarray   # (n_groups,) least g over each group's samples
    g_max: float        # the block's largest g: its largest eigenvalue of A
    margin: Optional[float]  # least |eigenvalue - endpoint of Lambda|


def lambda_endpoints(mu) -> Optional[list]:
    """Finite endpoints of the admissible set for a constant triple, else None."""
    if isinstance(mu, MuTriple):
        return classify(mu)[1].finite_endpoints()
    return None


def _g_samples(mu_vals, eigs: np.ndarray):
    """g at every eigenvalue (n, 3), and per sample the least g and the
    eigenvalue attaining it (the first of equal ones)."""
    m1, m2, m3 = mu_vals
    g = m1[:, None] + m2[:, None] * eigs + m3[:, None] / eigs
    rows = np.arange(g.shape[0])
    col = np.argmin(g, axis=1)
    return g, g[rows, col], eigs[rows, col]


def positivity_samples(mu_vals, eigs: np.ndarray, pts: np.ndarray,
                       endpoints: Optional[list]) -> PositivitySamples:
    """g_x(lambda_i(B(x))) = mu1 + mu2 lambda_i + mu3 / lambda_i at samples.

    ``mu_vals`` are the sampled (mu1, mu2, mu3), ``eigs`` the ascending
    eigenvalues of B at the points ``pts``, (n, 3) for groups of one
    sample or (n_groups, group, 3) for groups of ``group`` consecutive
    samples (an element's quadrature points); ``g_min`` keeps each group's
    least g.  The eigenvalues of A are the g(lambda_i), since A is a
    function of B.  Raises NotSPD naming the first sample with a
    non-positive eigenvalue.
    """
    groups = eigs.shape[0]
    eigs = eigs.reshape(-1, 3)
    bad = eigs[:, 0] <= 0.0
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NotSPD(
            f"B has eigenvalue {eigs[k, 0]:.6g} <= 0 at sample {pts[k]}",
            point=tuple(pts[k]),
        )
    g, g_min, _ = _g_samples(mu_vals, eigs)
    margin = None
    if endpoints is not None:
        margin = (float(np.min(np.abs(np.subtract.outer(endpoints, eigs.ravel()))))
                  if endpoints else math.inf)
    return PositivitySamples(g_min.reshape(groups, -1).min(axis=1), float(g.max()),
                             margin)


# A sample whose g lies within this relative distance of the minimum ties
# with it; the first tied sample is reported, so rounding-level changes in
# the eigenvalues do not move the reported point.
_TIE_RTOL = 1e-12


def _first_minimizer(g: np.ndarray, alpha: float) -> int:
    """The first entry of ``g`` within a relative ``_TIE_RTOL`` of its
    least value ``alpha``; for NaN or -inf, the first entry attaining it."""
    if math.isfinite(alpha):
        return int(np.argmax(g <= alpha + _TIE_RTOL * abs(alpha)))
    return int(np.argmin(g))


def positivity_report(mu, group, blocks) -> EllipticityReport:
    """The report over consecutive blocks of :class:`PositivitySamples`.

    alpha is the least g; the minimizer is the first sample whose g lies
    within a relative 1e-12 of it.  ``group(i)`` gives the points (k, 3),
    the ``mu_values`` and the eigenvalues (k, 3) of group i's samples; only
    the first group holding a tied sample is evaluated again, and its
    first tied sample is the first over all samples.
    """
    g_min = np.concatenate([b.g_min for b in blocks])
    alpha = float(g_min.min())
    pts, mu_vals, eigs = group(_first_minimizer(g_min, alpha))
    _, g, lam = _g_samples(mu_vals, eigs)
    q = _first_minimizer(g, alpha)
    scenario = lam_set = margin = None
    if isinstance(mu, MuTriple):
        scenario, lam_set = classify(mu)
        margin = min(b.margin for b in blocks)
    return EllipticityReport(
        alpha=alpha,
        positive=alpha > 0.0,
        scenario=scenario,
        interval_set=lam_set,
        minimizer_point=tuple(pts[q]),
        minimizer_eigenvalue=float(lam[q]),
        margin=margin,
        alpha_samples=g_min,
    )


def alpha_field(mu, b: TensorField, pts) -> EllipticityReport:
    """Sampled uniform-positivity constant of A(B) over ``pts``.

    alpha = min over samples and i of g_x(lambda_i(B(x))); the report keeps
    the per-sample minima as ``alpha_samples`` (groups of one sample).
    Raises NotSPD when some sample of B has a non-positive eigenvalue.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    eigs = eig_sym3_batch(b.eval(pts))  # (N, 3) ascending
    mu_vals = mu_values(mu, pts)
    samples = positivity_samples(mu_vals, eigs, pts, lambda_endpoints(mu))

    def group(i):
        return pts[i:i + 1], [m[i:i + 1] for m in mu_vals], eigs[i:i + 1]

    return positivity_report(mu, group, [samples])


def _inf_g(mu: MuTriple, lo: float, hi: float) -> float:
    """Infimum of g over the reachable eigenvalue range.

    ``lo`` = 0 means the open interval (0, hi]; otherwise [lo, hi].
    """
    cands = [g_eval(mu, hi)]
    if lo > 0.0:
        cands.append(g_eval(mu, lo))
    else:
        # behaviour as lambda -> 0+
        if mu.mu3 < 0.0:
            return -math.inf
        if mu.mu3 == 0.0:
            cands.append(mu.mu1)  # infimum, not attained
    if mu.mu2 != 0.0 and mu.mu3 / mu.mu2 > 0.0:
        crit = math.sqrt(mu.mu3 / mu.mu2)
        if (lo if lo > 0 else 0.0) < crit <= hi:
            cands.append(g_eval(mu, crit))
    return min(cands)


def max_identity_perturbation(mu: MuTriple, eps: float = 0.0) -> float:
    """Largest safe sup-norm perturbation radius of B around the identity.

    Uses the conservative eigenvalue shift bound
    |lambda_i(B) - 1| <= ||B - I||_2 <= 3 ||B - I||_max, so a radius delta
    makes the eigenvalue range [1 - 3 delta, 1 + 3 delta] (intersected with
    (0, inf); B itself is positive definite by premise).  The returned delta
    is the largest value keeping g >= eps on that whole range, found by
    bisection to 1e-6 relative accuracy; +inf when g >= eps on all of
    (0, inf).
    """
    if g_eval(mu, 1.0) <= eps:
        raise NotAdmissible(f"g(1) = {g_eval(mu, 1.0):.6g} <= eps = {eps:.6g}")

    def ok(delta: float) -> bool:
        lo = max(1.0 - 3.0 * delta, 0.0)
        hi = 1.0 + 3.0 * delta
        return _inf_g(mu, lo, hi) >= eps

    hi = 1.0
    while ok(hi):
        hi *= 2.0
        if hi > 1e12:
            return math.inf
    lo = 0.0
    while hi - lo > 1e-6 * max(hi, 1e-30):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo
