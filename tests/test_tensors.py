"""Pointwise tensor algebra against independent oracles.

Oracles implemented here (not shared with the library): characteristic
polynomial coefficients by cofactor expansion, cyclic Jacobi rotations for
eigenvalues, adjugate-formula inversion, and central finite differences of
the inverse along unimodular tensor paths.  The library's eigenvalues come
from ``numpy.linalg.eigvalsh``, so they are checked against the Jacobi oracle
and against the spectra that the test matrices are built from, never
against that routine itself.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.spatial.transform import Rotation

from genstokes import tensors
from genstokes.errors import NotUnimodular, SingularTensor
from genstokes.tensors import (
    SymTensor3,
    ch_inverse,
    ch_inverse_batch,
    d2_inverse,
    d2_inverse_batch,
    d_inverse,
    d_inverse_batch,
    eig_sym3,
    eig_sym3_batch,
    invariants,
    lop,
    symmetrize,
)


# ---------------------------------------------------------------------------
# oracles
def as_array(ev) -> np.ndarray:
    """The eigenvalues of an ``EigenTriple``, ascending."""
    return np.array([ev.l1, ev.l2, ev.l3])




def charpoly_oracle(m):
    """det(lam I - M) = lam^3 - c2 lam^2 + c1 lam - c0 by cofactor expansion."""
    def det3(a):
        return (
            a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
        )

    c2 = m[0, 0] + m[1, 1] + m[2, 2]
    minors = 0.0
    for i in range(3):
        rows = [r for r in range(3) if r != i]
        sub = [[m[rows[0], rows[0]], m[rows[0], rows[1]]],
               [m[rows[1], rows[0]], m[rows[1], rows[1]]]]
        minors += sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]
    c0 = det3(m.tolist())
    return c2, minors, c0


def jacobi_oracle(m, sweeps=50):
    a = np.array(m, dtype=float)
    for _ in range(sweeps):
        p, q = max(
            ((0, 1), (0, 2), (1, 2)), key=lambda pq: abs(a[pq[0], pq[1]])
        )
        if abs(a[p, q]) < 1e-300:
            break
        theta = 0.5 * (a[q, q] - a[p, p]) / a[p, q]
        t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
        c = 1.0 / math.hypot(t, 1.0)
        s = t * c
        rot = np.eye(3)
        rot[p, p] = rot[q, q] = c
        rot[p, q] = s
        rot[q, p] = -s
        a = rot.T @ a @ rot
    return np.sort(np.diag(a))


def adjugate_inverse_oracle(m):
    cof = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            sub = np.delete(np.delete(m, i, axis=0), j, axis=1)
            cof[i, j] = (-1) ** (i + j) * (
                sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0]
            )
    det = m[0, 0] * cof[0, 0] + m[0, 1] * cof[0, 1] + m[0, 2] * cof[0, 2]
    return cof.T / det


def random_sym(rng, scale=1.0):
    m = rng.standard_normal((3, 3)) * scale
    return SymTensor3.from_matrix(0.5 * (m + m.T))


def random_spd(rng, cond_max=1e4, unit_det=False):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    half = 0.5 * math.log(cond_max)
    d = np.exp(rng.uniform(-half, half, size=3))
    m = (q * d) @ q.T
    if unit_det:
        m /= np.linalg.det(m) ** (1.0 / 3.0)
    return SymTensor3.from_matrix(0.5 * (m + m.T))


def unimodular_path(rng, scale=0.5):
    """B(t) = e^{tC} B0 e^{tC^t}, C trace-free, so det B(t) = det B0 = 1."""
    b0 = random_spd(rng, cond_max=100.0, unit_det=True)
    c = rng.standard_normal((3, 3)) * scale
    c -= np.trace(c) / 3.0 * np.eye(3)
    b0m = b0.to_matrix()

    def b_at(t):
        e = expm(t * c)
        return SymTensor3.from_matrix(e @ b0m @ e.T)

    db = SymTensor3.from_matrix(c @ b0m + b0m @ c.T)
    d2b = SymTensor3.from_matrix(c @ c @ b0m + 2 * c @ b0m @ c.T + b0m @ c.T @ c.T)
    return b0, db, d2b, b_at


# ---------------------------------------------------------------------------
# invariants


def test_invariants_identity():
    inv = invariants(SymTensor3.identity())
    assert (inv.i1, inv.i2, inv.i3) == (3.0, 3.0, 1.0)


def test_invariants_diagonal():
    # characteristic polynomial of diag(2, 1/2, 1) expanded by hand:
    # (lam-2)(lam-1/2)(lam-1) = lam^3 - 3.5 lam^2 + 3.5 lam - 1
    inv = invariants(SymTensor3.diag(2.0, 0.5, 1.0))
    assert inv.i1 == pytest.approx(3.5, abs=1e-15)
    assert inv.i2 == pytest.approx(3.5, abs=1e-15)
    assert inv.i3 == pytest.approx(1.0, abs=1e-15)


def test_invariants_match_charpoly_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        b = random_sym(rng, scale=2.0)
        inv = invariants(b)
        c2, c1, c0 = charpoly_oracle(b.to_matrix())
        assert inv.i1 == pytest.approx(c2, rel=1e-13, abs=1e-13)
        assert inv.i2 == pytest.approx(c1, rel=1e-12, abs=1e-12)
        assert inv.i3 == pytest.approx(c0, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# eigenvalues


def test_eig_identity():
    ev = eig_sym3(SymTensor3.identity())
    assert (ev.l1, ev.l2, ev.l3) == (1.0, 1.0, 1.0)


def test_eig_diagonal_sorted():
    ev = eig_sym3(SymTensor3.diag(2.0, 0.5, 1.0))
    assert (ev.l1, ev.l2, ev.l3) == (0.5, 1.0, 2.0)


def test_eig_matches_jacobi_oracle():
    rng = np.random.default_rng(11)
    for _ in range(300):
        b = random_sym(rng, scale=3.0)
        got = as_array(eig_sym3(b))
        want = jacobi_oracle(b.to_matrix())
        assert np.max(np.abs(got - want)) < 1e-10


def test_eig_charpoly_residual_contract():
    rng = np.random.default_rng(13)
    for _ in range(200):
        b = random_sym(rng, scale=5.0)
        inv = invariants(b)
        tol = 1e-9 * (1.0 + math.sqrt(b.ddot(b)) ** 3)
        for lam in as_array(eig_sym3(b)):
            res = lam**3 - inv.i1 * lam**2 + inv.i2 * lam - inv.i3
            assert abs(res) <= tol


def test_eig_degenerate_spectra():
    ev = eig_sym3(SymTensor3.diag(2.0, 2.0, 2.0))
    assert np.allclose(as_array(ev), 2.0)
    # double eigenvalue reached through a rotation
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    m = (q * np.array([1.0, 1.0, 4.0])) @ q.T
    ev = eig_sym3(SymTensor3.from_matrix(0.5 * (m + m.T)))
    assert np.max(np.abs(as_array(ev) - np.array([1.0, 1.0, 4.0]))) < 1e-9


def test_eig_reconstruction_invariants():
    rng = np.random.default_rng(17)
    for _ in range(200):
        b = random_sym(rng, scale=2.0)
        inv = invariants(b)
        le = eig_sym3(b)
        scale = max(1.0, abs(inv.i1), abs(inv.i2), abs(inv.i3))
        assert abs(le.l1 + le.l2 + le.l3 - inv.i1) <= 1e-10 * scale
        assert abs(le.l1 * le.l2 + le.l1 * le.l3 + le.l2 * le.l3 - inv.i2) <= 1e-10 * scale
        assert abs(le.l1 * le.l2 * le.l3 - inv.i3) <= 1e-10 * scale


def test_eig_batch_matches_scalar():
    rng = np.random.default_rng(19)
    mats = np.stack([random_sym(rng).to_matrix() for _ in range(50)])
    batch = eig_sym3_batch(mats)
    for k in range(50):
        single = as_array(eig_sym3(SymTensor3.from_matrix(mats[k])))
        assert np.max(np.abs(batch[k] - single)) < 1e-12


def _eig_tol(want):
    return 1e-9 * max(1.0, float(np.max(np.abs(want))))


@st.composite
def _rotated_spectra(draw):
    """Symmetric matrices Q diag(l) Q^T with adversarial spectra.

    Largest magnitude 1e-6 .. 1e6, condition number 1 .. 1e12, and double,
    triple, nearly double (relative gap 1e-15 .. 1) or nearly triple roots.
    """
    top = 10.0 ** draw(st.floats(-6.0, 6.0))
    low = top / 10.0 ** draw(st.floats(0.0, 12.0))
    gap = 10.0 ** draw(st.floats(-15.0, 0.0))
    kind = draw(st.sampled_from(
        ["generic", "double_low", "double_high", "triple", "near_double",
         "near_triple"]))
    mid = low * (top / low) ** draw(st.floats(0.0, 1.0))
    lams = {
        "generic": [low, mid, top],
        "double_low": [low, low, top],
        "double_high": [low, top, top],
        "triple": [top, top, top],
        "near_double": [low, mid, mid * (1.0 + gap)],
        "near_triple": [top, top * (1.0 + gap), top * (1.0 + 2.0 * gap)],
    }[kind]
    sign = draw(st.sampled_from([1.0, -1.0]))
    angles = draw(st.tuples(*[st.floats(0.0, 2.0 * math.pi)] * 3))
    q = Rotation.from_euler("zyz", angles).as_matrix()
    m = (q * (sign * np.array(lams))) @ q.T
    return 0.5 * (m + m.T)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_rotated_spectra())
def test_eig_batch_matches_jacobi_on_adversarial_spectra(m):
    want = jacobi_oracle(m)
    got = eig_sym3_batch(m[None])[0]
    assert np.max(np.abs(got - want)) <= _eig_tol(want)


def test_eig_batch_near_triple_root_below_unit_scale():
    # 1e-6 diag(1, 1, 1 + 1e-6) rotated: a near-triple spectrum whose spread
    # (3e-13) is below an absolute 1e-12 but far above rounding at its scale
    q = Rotation.from_euler("zyz", (0.3, 1.1, -0.7)).as_matrix()
    lams = 1e-6 * np.array([1.0, 1.0, 1.0 + 1e-6])
    m = (q * lams) @ q.T
    m = 0.5 * (m + m.T)
    want = jacobi_oracle(m)
    got = eig_sym3_batch(m[None])[0]
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def _rotated_uniaxial(n, seed=41):
    """Rotated uniaxial stretches and their ascending spectra
    (1/s, 1/s, s^2), s in [1.1, 1.7]."""
    rng = np.random.default_rng(seed)
    q = Rotation.random(n, random_state=rng).as_matrix()
    stretch = rng.uniform(1.1, 1.7, size=n)
    lams = np.stack([stretch**2, 1.0 / stretch, 1.0 / stretch], axis=1)
    return np.einsum("nij,nj,nkj->nik", q, lams, q), np.sort(lams, axis=1)


def test_eig_batch_degenerate_rows_stay_vectorized(monkeypatch):
    # rows with a double eigenvalue must not fall back to per-row scalar work
    def refuse(_b):
        raise AssertionError("eig_sym3_batch called the scalar eig_sym3")

    monkeypatch.setattr(tensors, "eig_sym3", refuse)
    mats, want = _rotated_uniaxial(20_000)
    got = eig_sym3_batch(mats)
    assert np.max(np.abs(got - want)) <= _eig_tol(want)


@pytest.mark.parametrize("entry, bad", [
    ((0, 0), np.nan), ((1, 2), np.inf), ((2, 2), -np.inf),
])
def test_eig_batch_non_finite_row_is_nan(entry, bad):
    # LAPACK gives a NaN diagonal entry the eigenvalue 0; such a row must
    # read as NaN, and the other rows keep their spectra
    mats = np.stack([np.eye(3), np.diag([2.0, 0.5, 1.0])])
    mats[0][entry] = mats[0][entry[::-1]] = bad
    got = eig_sym3_batch(mats)
    assert np.isnan(got[0]).all()
    assert np.array_equal(got[1], [0.5, 1.0, 2.0])
    assert np.isnan(as_array(eig_sym3(SymTensor3.from_matrix(mats[0])))).all()


def _stored(row):
    """The six components a SymTensor3 keeps of a batch row (its upper triangle)."""
    return SymTensor3.from_matrix(row).to_matrix()


def test_scalar_api_equals_batch_rows_bit_for_bit():
    rng = np.random.default_rng(43)
    n = 60
    sym = np.stack([random_sym(rng, scale=2.0).to_matrix() for _ in range(n)])
    spd = np.stack([random_spd(rng, unit_det=True).to_matrix() for _ in range(n)])
    dbi, dbj, d2b = (
        np.stack([random_sym(rng).to_matrix() for _ in range(n)])
        for _ in range(3)
    )
    eigs = eig_sym3_batch(sym)
    invs = ch_inverse_batch(spd)
    d1 = d_inverse_batch(spd, dbi)
    d2 = d2_inverse_batch(spd, dbi, dbj, d2b)
    t = SymTensor3.from_matrix
    for k in range(n):
        assert np.array_equal(as_array(eig_sym3(t(sym[k]))), eigs[k])
        assert np.array_equal(ch_inverse(t(spd[k])).to_matrix(), _stored(invs[k]))
        assert np.array_equal(d_inverse(t(spd[k]), t(dbi[k])).to_matrix(),
                              _stored(d1[k]))
        assert np.array_equal(
            d2_inverse(t(spd[k]), t(dbi[k]), t(dbj[k]), t(d2b[k])).to_matrix(),
            _stored(d2[k]))


# ---------------------------------------------------------------------------
# Cayley-Hamilton inverse


def test_ch_inverse_identity():
    binv = ch_inverse(SymTensor3.identity())
    assert np.allclose(binv.to_matrix(), np.eye(3))


def test_ch_inverse_diagonal():
    binv = ch_inverse(SymTensor3.diag(2.0, 0.5, 1.0))
    assert np.allclose(binv.to_matrix(), np.diag([0.5, 2.0, 1.0]))


def test_ch_inverse_matches_adjugate_oracle():
    rng = np.random.default_rng(23)
    for _ in range(200):
        b = random_spd(rng, unit_det=True)
        got = ch_inverse(b).to_matrix()
        want = adjugate_inverse_oracle(b.to_matrix())
        denom = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) / denom < 1e-10
        assert np.max(np.abs(b.to_matrix() @ got - np.eye(3))) < 1e-9


def test_ch_inverse_product_well_conditioned():
    rng = np.random.default_rng(24)
    for _ in range(200):
        b = random_spd(rng, cond_max=100.0, unit_det=True)
        got = ch_inverse(b).to_matrix()
        assert np.max(np.abs(b.to_matrix() @ got - np.eye(3))) < 1e-10


def test_ch_inverse_product_property():
    rng = np.random.default_rng(29)
    for _ in range(200):
        b = random_sym(rng, scale=2.0)
        if abs(invariants(b).i3) <= 1e-10:
            continue
        binv = ch_inverse(b)
        assert np.max(np.abs(b.to_matrix() @ binv.to_matrix() - np.eye(3))) < 1e-9


def test_ch_inverse_singular_raises():
    with pytest.raises(SingularTensor):
        ch_inverse(SymTensor3.diag(1.0, 1.0, 0.0))


def test_ch_inverse_batch_names_first_singular_sample():
    mats = np.broadcast_to(np.eye(3), (2, 3, 3, 3)).copy()
    mats[1, 0] = np.diag([1.0, 1.0, 0.0])  # flat index 3
    mats[1, 2] = np.diag([2.0, 0.0, 1.0])
    with pytest.raises(SingularTensor,
                       match=r"^2 sample\(s\) .*flat index 3, det = 0\.000e\+00"):
        ch_inverse_batch(mats)


def test_ch_inverse_batch_refuses_ill_conditioned_unimodular():
    # rotated diag(l, l, 1/l^2), condition l^3: the cofactor inverse returns
    # l = 300 and 1000 (max|BX - I| 2.1e-9 and 4.8e-8) and refuses l = 3000
    # and 1e4 on the residual; from l = 1e5 the determinant check refuses
    q = Rotation.from_euler("zyz", (0.3, 1.1, -0.7)).as_matrix()

    def stack(lams):
        mats = np.broadcast_to(np.eye(3), (4, 3, 3)).copy()
        for k, lam in zip((2, 3), lams):
            m = (q * np.array([lam, lam, lam**-2])) @ q.T
            mats[k] = 0.5 * (m + m.T)
        return mats

    mats = stack((1000.0, 300.0))
    resid = np.abs(mats @ ch_inverse_batch(mats) - np.eye(3))
    assert np.max(resid) <= tensors._INVERSE_RESIDUAL_TOL
    with pytest.raises(SingularTensor,
                       match=r"^2 sample\(s\) too ill-conditioned .*flat index 2,"):
        ch_inverse_batch(stack((3000.0, 1e4)))


@pytest.mark.parametrize("entry, value",
                         [((0, 1), np.nan), ((0, 0), np.inf), ((0, 1), 1e200)])
def test_ch_inverse_batch_refuses_non_finite_entries(entry, value):
    # a NaN fails both refusals' comparisons; before they were written so,
    # B with B_01 = B_10 = NaN came back as an all-NaN inverse.  The refusal
    # comes with no numpy warning: inf * 0 in the cofactors of an inf entry
    # and the overflow of 1e200 squared once each warned before it
    mats = np.broadcast_to(np.eye(3), (3, 3, 3)).copy()
    mats[0][entry] = mats[0][entry[::-1]] = value
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SingularTensor, match=r"^1 sample\(s\) .*flat index 0,"):
            ch_inverse_batch(mats)
    assert [str(w.message) for w in caught] == []


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_rotated_spectra())
def test_ch_inverse_batch_right_or_refused(m):
    # condition numbers up to 1e12: an inverse that is returned meets the
    # product bound; anything worse raises
    try:
        x = ch_inverse_batch(m[None])
    except SingularTensor:
        return
    resid = np.max(np.abs(m[None] @ x - np.eye(3)))
    assert resid <= tensors._INVERSE_RESIDUAL_TOL


def test_ch_inverse_batch_consistency():
    rng = np.random.default_rng(31)
    mats = np.stack([random_spd(rng).to_matrix() for _ in range(40)])
    batch = ch_inverse_batch(mats)
    for k in range(40):
        single = ch_inverse(SymTensor3.from_matrix(mats[k])).to_matrix()
        scale = np.max(np.abs(single))
        assert np.max(np.abs(batch[k] - single)) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# symmetrization and the product operator


def test_symmetrize_fixed_point():
    rng = np.random.default_rng(37)
    s = random_sym(rng)
    assert np.allclose(symmetrize(s.to_matrix()).to_matrix(), s.to_matrix())


def test_symmetrize_antisymmetric_is_zero():
    m = np.array([[0.0, 1.0, -2.0], [-1.0, 0.0, 3.0], [2.0, -3.0, 0.0]])
    assert symmetrize(m).max_abs() == 0.0


def test_symmetrize_rank_one_frobenius_identity():
    # for M = xi (x) eta:  S(M):S(M) = M:M/2 + (tr M)^2/2
    rng = np.random.default_rng(41)
    for _ in range(100):
        xi = rng.standard_normal(3)
        eta = rng.standard_normal(3)
        m = np.outer(xi, eta)
        s = symmetrize(m)
        lhs = s.ddot(s)
        rhs = 0.5 * float(np.tensordot(m, m)) + 0.5 * np.trace(m) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_lop_identity_coefficient():
    rng = np.random.default_rng(43)
    s = random_sym(rng)
    out = lop(SymTensor3.identity(), s.to_matrix())
    assert np.allclose(out.to_matrix(), 2.0 * s.to_matrix())


def test_lop_antisymmetric_kernel():
    rng = np.random.default_rng(47)
    a = random_spd(rng)
    m = rng.standard_normal((3, 3))
    anti = m - m.T
    assert lop(a, anti).max_abs() < 1e-14


def test_lop_lower_bound_with_eigen_oracle():
    rng = np.random.default_rng(53)
    for _ in range(200):
        a = random_spd(rng, cond_max=100.0)
        m = rng.standard_normal((3, 3))
        lam_min = jacobi_oracle(a.to_matrix())[0]
        s = symmetrize(m)
        contraction = float(np.tensordot(lop(a, m).to_matrix(), m))
        assert contraction >= 2.0 * lam_min * s.ddot(s) - 1e-12


def test_lop_contraction_equals_symmetric_contraction():
    rng = np.random.default_rng(59)
    for _ in range(100):
        a = random_spd(rng)
        m = rng.standard_normal((3, 3))
        lm = lop(a, m).to_matrix()
        lhs = float(np.tensordot(lm, m))
        rhs = float(np.tensordot(lm, symmetrize(m).to_matrix()))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# derivatives of the inverse


def test_d_inverse_zero_direction():
    out = d_inverse(SymTensor3.identity(), SymTensor3.zero())
    assert out.max_abs() == 0.0


def test_d_inverse_at_identity_traceless():
    # at B = I with trace-free direction the derivative is -db
    db = SymTensor3.diag(1.0, -1.0, 0.0)
    out = d_inverse(SymTensor3.identity(), db)
    assert np.allclose(out.to_matrix(), np.diag([-1.0, 1.0, 0.0]))


def test_d_inverse_requires_unimodular():
    with pytest.raises(NotUnimodular):
        d_inverse(SymTensor3.diag(2.0, 2.0, 2.0), SymTensor3.zero())
    with pytest.raises(NotUnimodular):
        d2_inverse(SymTensor3.diag(2.0, 2.0, 2.0), SymTensor3.zero(),
                   SymTensor3.zero(), SymTensor3.zero())


def test_d_inverse_matches_finite_difference():
    rng = np.random.default_rng(61)
    for _ in range(100):
        b0, db, _, b_at = unimodular_path(rng)
        h = 1e-5
        fd = (ch_inverse(b_at(h)).to_matrix()
              - ch_inverse(b_at(-h)).to_matrix()) / (2 * h)
        got = d_inverse(b0, db).to_matrix()
        assert np.max(np.abs(got - fd)) / max(np.max(np.abs(fd)), 1e-30) < 1e-6


def test_d2_inverse_zero_directions():
    z = SymTensor3.zero()
    out = d2_inverse(SymTensor3.identity(), z, z, z)
    assert out.max_abs() == 0.0


def test_d2_inverse_argument_symmetry():
    rng = np.random.default_rng(67)
    b0, db, d2b, _ = unimodular_path(rng)
    dbj = SymTensor3.from_matrix(random_sym(rng).to_matrix())
    a = d2_inverse(b0, db, dbj, d2b).to_matrix()
    b = d2_inverse(b0, dbj, db, d2b).to_matrix()
    assert np.allclose(a, b, rtol=1e-12, atol=1e-12)


def test_d2_inverse_matches_second_difference():
    rng = np.random.default_rng(71)
    for _ in range(100):
        b0, db, d2b, b_at = unimodular_path(rng)
        h = 1e-4
        fd = (
            ch_inverse(b_at(h)).to_matrix()
            - 2 * ch_inverse(b0).to_matrix()
            + ch_inverse(b_at(-h)).to_matrix()
        ) / h**2
        got = d2_inverse(b0, db, db, d2b).to_matrix()
        assert np.max(np.abs(got - fd)) / max(np.max(np.abs(fd)), 1e-30) < 1e-4


def test_verify_suite_exponential_matches_scipy_expm():
    # verify's unimodular paths take e^{tC} from a numpy exponential, so
    # that the suite loads no scipy; scipy's expm is the oracle
    from genstokes.verifysuite import _expm

    rng = np.random.default_rng(73)
    for _ in range(200):
        c = rng.standard_normal((3, 3)) * 0.5
        c -= np.trace(c) / 3.0 * np.eye(3)
        t = rng.uniform(-1.0, 1.0)
        want = expm(t * c)
        assert np.max(np.abs(_expm(t * c) - want)) <= 1e-13 * np.max(np.abs(want))


def test_verify_suite_unimodular_path_keeps_det():
    from genstokes.verifysuite import unimodular_path as suite_path

    rng = np.random.default_rng(79)
    for _ in range(50):
        b0, _, _, b_at = suite_path(rng)
        det0 = np.linalg.det(b0.to_matrix())
        for t in rng.uniform(-1.0, 1.0, size=4):
            assert abs(np.linalg.det(b_at(t)) - det0) <= 1e-13 * abs(det0)
