"""Assembly of the mixed system against independent dense oracles."""

import numpy as np
import pytest
from conftest import traced_peak
from scipy.special import roots_legendre

from genstokes.assembly import assemble, korn_terms
from genstokes.constitutive import MuTriple
from genstokes.errors import BCViolation, NotElliptic, SingularTensor
from genstokes.fem import LOCAL_EDGES, TaylorHoodSpace, build_mesh
from genstokes.fields import TensorField, VectorField
from genstokes.tensors import SymTensor3


# ---------------------------------------------------------------------------
# dense element oracle (independent quadrature and geometry path)


def duffy_rule(n=4):
    """Tensor Gauss rule on the unit tetrahedron via the collapsed cube."""
    x, w = roots_legendre(n)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    pts, wts = [], []
    for a, wa in zip(u, wu):
        for b, wb in zip(u, wu):
            for c, wc in zip(u, wu):
                pts.append((a, b * (1 - a), c * (1 - a) * (1 - b)))
                wts.append(wa * wb * wc * (1 - a) ** 2 * (1 - b))
    return np.array(pts), np.array(wts)


def barycentric_system(verts):
    """Coefficients making lam_k(x) affine with lam_k(v_j) = delta_kj."""
    mat = np.vstack([np.ones(4), verts.T])  # (4, 4)
    return np.linalg.inv(mat)  # rows: [const, cx, cy, cz] per lam_k


def p2_eval(lam, dlam):
    """Values (10,) and gradients (10, 3) from barycentric data."""
    vals = np.empty(10)
    grads = np.empty((10, 3))
    for k in range(4):
        vals[k] = lam[k] * (2 * lam[k] - 1)
        grads[k] = (4 * lam[k] - 1) * dlam[k]
    for e, (a, b) in enumerate(LOCAL_EDGES):
        vals[4 + e] = 4 * lam[a] * lam[b]
        grads[4 + e] = 4 * (lam[a] * dlam[b] + lam[b] * dlam[a])
    return vals, grads


def dense_velocity_block(mesh, space, a_of_x):
    """Brute-force K for the coefficient tensor ``a_of_x(x)`` (3, 3)."""
    n = space.n_velocity
    K = np.zeros((n, n))
    ref_pts, ref_wts = duffy_rule()
    eye = np.eye(3)
    for e in range(mesh.n_tets):
        verts = mesh.vertices[mesh.tets[e]]
        coef = barycentric_system(verts)
        const, grad_l = coef[:, 0], coef[:, 1:]
        # physical volume of the tet = |det|/6 of the edge matrix
        edge = (verts[1:] - verts[0]).T
        vol = abs(np.linalg.det(edge)) / 6.0
        dofs = (3 * space.tet_nodes[e][:, None] + np.arange(3)).ravel()
        # quadrature points in physical coordinates
        phys = verts[0] + ref_pts @ edge.T
        for xq, wq in zip(phys, ref_wts):
            lam = const + grad_l @ xq
            _, grads = p2_eval(lam, grad_l)
            weight = wq * 6.0 * vol  # duffy weights sum to 1/6 on the ref tet
            a_mat = a_of_x(xq)
            # grad(phi_i e_a) = e_a (x) grad phi_i, for the 30 pairs (i, a)
            gw = np.einsum("ab,il->iabl", eye, grads).reshape(30, 3, 3)
            d = 0.5 * (gw + gw.transpose(0, 2, 1))
            flux = d @ a_mat + a_mat @ d
            K[np.ix_(dofs, dofs)] += weight * np.einsum("imn,jmn->ij", gw, flux)
    return K


def interior_block(space, K_dense):
    """The dense matrix restricted to the interior (non-wall) velocity dofs."""
    idx = space.interior_idx
    return K_dense[np.ix_(idx, idx)]


def test_dense_oracle_constant_diagonal():
    # mesh 2: mesh 1 has a single interior node
    mesh = build_mesh(2, 2, 2, 1.0, 1.0, 1.0)
    space = TaylorHoodSpace(mesh)
    a_mat = np.diag([2.0, 0.5, 1.25])
    b = TensorField.constant(SymTensor3.from_matrix(a_mat))
    # build A = B by choosing mu = (0, 1, 0)
    system = assemble(mesh, space, MuTriple(0.0, 1.0, 0.0), b)
    K_dense = dense_velocity_block(mesh, space, lambda x: a_mat)
    assert np.max(np.abs(system.K.toarray() - interior_block(space, K_dense))) < 1e-12


# a linear, full SPD tensor on [0,1]x[0,2]x[0,0.5] (diagonally dominant):
# the integrand has degree 5, so both quadratures are exact
VARYING_B = {"a11": "2 + x", "a22": "1.5 + 0.5*z", "a33": "1 + 0.25*y",
             "a12": "0.3*y", "a13": "0.2*z", "a23": "0.1*x"}


def varying_b_matrix(x):
    return np.array([[2 + x[0], 0.3 * x[1], 0.2 * x[2]],
                     [0.3 * x[1], 1.5 + 0.5 * x[2], 0.1 * x[0]],
                     [0.2 * x[2], 0.1 * x[0], 1 + 0.25 * x[1]]])


def test_dense_oracle_varying_full_tensor_all_shapes():
    # 2x3x2 cells with unequal spacings: all six Kuhn shapes, off-diagonal A
    mesh = build_mesh(2, 3, 2, 1.0, 2.0, 0.5)
    space = TaylorHoodSpace(mesh)
    b = TensorField.expression(VARYING_B)
    system = assemble(mesh, space, MuTriple(0.0, 1.0, 0.0), b)
    K_dense = dense_velocity_block(mesh, space, varying_b_matrix)
    assert np.max(np.abs(system.K.toarray() - interior_block(space, K_dense))) < 1e-12
    assert (system.K - system.K.T).count_nonzero() == 0


def test_threads_bitwise_equal_over_several_chunks(monkeypatch):
    import genstokes.assembly as assembly

    # 36-element chunks: the 162 elements of a 3x3x3 mesh make five
    monkeypatch.setattr(assembly, "_CHUNK_BYTES", 36 * 900 * 8)
    assert len(assembly._chunks(162)) == 5
    mesh = build_mesh(3, 3, 3, 1.0, 2.0, 0.5)
    space = TaylorHoodSpace(mesh)
    b = TensorField.expression(VARYING_B)
    f = VectorField.expression(["sin(x)*y", "z**2", "x*y*z"])
    mu = MuTriple(1.0, 1.0, 0.5)
    s1 = assemble(mesh, space, mu, b, f, threads=1)
    s3 = assemble(mesh, space, mu, b, f, threads=3)
    for a, c in ((s1.K, s3.K), (s1.G, s3.G)):
        assert np.array_equal(a.indptr, c.indptr)
        assert np.array_equal(a.indices, c.indices)
        assert a.data.tobytes() == c.data.tobytes()
    assert s1.F.tobytes() == s3.F.tobytes()
    assert (s1.alpha, s1.anorm_inf, s1.f_l2) == (s3.alpha, s3.anorm_inf, s3.f_l2)
    assert s1.alpha_report.alpha_samples.tobytes() == s3.alpha_report.alpha_samples.tobytes()


def test_first_assemble_memory_budget():
    # tracemalloc peak of the first assembly on a fresh mesh-8 space:
    # geometry, per-shape tables and patterns included (18.8 MB; 23.6 MB
    # with per-element points and one K index per scalar entry)
    from genstokes.verification import make_anisotropic_case

    case = make_anisotropic_case()
    tiny = build_mesh(1, 1, 1, 1.0, 1.0, 1.0)
    # build the lazily differentiated forcing first; it is not assembly memory
    assemble(tiny, TaylorHoodSpace(tiny), case.mu, case.b_field, case.f_field)
    mesh = build_mesh(8, 8, 8, 1.0, 1.0, 1.0)
    space = TaylorHoodSpace(mesh)
    peak = traced_peak(lambda: assemble(mesh, space, case.mu, case.b_field,
                                        case.f_field))
    assert peak <= 80 * 2**20, f"assembly peak {peak / 2**20:.1f} MB > 80 MB"


def test_newtonian_reduction_matches_double_strain_form():
    # with A = I the block equals the assembled form of 2 int D(phi_i):D(phi_j);
    # mesh 2: mesh 1 has a single interior node
    mesh = build_mesh(2, 2, 2, 1.0, 1.0, 1.0)
    space = TaylorHoodSpace(mesh)
    system = assemble(mesh, space, MuTriple(1.0, 0.0, 0.0), TensorField.identity())
    n = space.n_velocity
    K_dense = np.zeros((n, n))
    ref_pts, ref_wts = duffy_rule()
    eye = np.eye(3)
    for e in range(mesh.n_tets):
        verts = mesh.vertices[mesh.tets[e]]
        coef = barycentric_system(verts)
        const, grad_l = coef[:, 0], coef[:, 1:]
        edge = (verts[1:] - verts[0]).T
        vol = abs(np.linalg.det(edge)) / 6.0
        dofs = (3 * space.tet_nodes[e][:, None] + np.arange(3)).ravel()
        phys = verts[0] + ref_pts @ edge.T
        for xq, wq in zip(phys, ref_wts):
            lam = const + grad_l @ xq
            _, grads = p2_eval(lam, grad_l)
            weight = wq * 6.0 * vol
            # D(phi_i e_a) for the 30 pairs (i, a)
            gw = np.einsum("ab,il->iabl", eye, grads).reshape(30, 3, 3)
            d = 0.5 * (gw + gw.transpose(0, 2, 1))
            K_dense[np.ix_(dofs, dofs)] += weight * 2.0 * np.einsum("imn,jmn->ij", d, d)
    assert np.max(np.abs(system.K.toarray() - interior_block(space, K_dense))) < 1e-12


def test_energy_equals_korn_combination():
    # u^t K u = 2 ||D(v)||^2 = ||grad v||^2 + ||div v||^2 for constrained u
    mesh = build_mesh(2, 2, 2, 1.0, 1.0, 1.0)
    space = TaylorHoodSpace(mesh)
    system = assemble(mesh, space, MuTriple(1.0, 0.0, 0.0), TensorField.identity())
    rng = np.random.default_rng(5)
    for _ in range(10):
        ui = rng.standard_normal(system.n_interior)
        u = system.expand_velocity(ui)
        dd, gg, div2 = korn_terms(space, u)
        energy = float(ui @ (system.K @ ui))
        assert energy == pytest.approx(2.0 * dd, rel=1e-12)
        assert energy == pytest.approx(gg + div2, rel=1e-10)


def test_korn_identity_on_200_random_fields():
    mesh = build_mesh(3, 3, 3, 1.0, 1.0, 1.0)
    space = TaylorHoodSpace(mesh)
    rng = np.random.default_rng(7)
    idx = space.interior_idx
    for _ in range(200):
        u = np.zeros(space.n_velocity)
        u[idx] = rng.standard_normal(idx.size)
        dd, gg, div2 = korn_terms(space, u)
        assert abs(dd - 0.5 * gg - 0.5 * div2) <= 1e-10 * dd


def test_korn_terms_zero_field():
    mesh = build_mesh(2, 2, 2, 1.0, 1.0, 1.0)
    space = TaylorHoodSpace(mesh)
    assert korn_terms(space, np.zeros(space.n_velocity)) == (0.0, 0.0, 0.0)


def test_korn_terms_rejects_bc_violation():
    mesh = build_mesh(2, 2, 2, 1.0, 1.0, 1.0)
    space = TaylorHoodSpace(mesh)
    u = np.ones(space.n_velocity)
    with pytest.raises(BCViolation):
        korn_terms(space, u)


def test_assembled_block_symmetry():
    mesh = build_mesh(2, 2, 2, 1.0, 1.0, 1.0)
    space = TaylorHoodSpace(mesh)
    from genstokes.verification import make_anisotropic_case

    case = make_anisotropic_case()
    system = assemble(mesh, space, case.mu, case.b_field)
    diff = system.K - system.K.T
    assert np.max(np.abs(diff.toarray())) == 0.0


def dense_load_vector(mesh, space, f_of_x):
    """Brute-force F[(i, a)] = int f_a phi_i over all velocity dofs."""
    F = np.zeros(space.n_velocity)
    ref_pts, ref_wts = duffy_rule()
    for e in range(mesh.n_tets):
        verts = mesh.vertices[mesh.tets[e]]
        coef = barycentric_system(verts)
        const, grad_l = coef[:, 0], coef[:, 1:]
        edge = (verts[1:] - verts[0]).T
        vol = abs(np.linalg.det(edge)) / 6.0
        dofs = (3 * space.tet_nodes[e][:, None] + np.arange(3)).ravel()
        phys = verts[0] + ref_pts @ edge.T
        for xq, wq in zip(phys, ref_wts):
            vals, _ = p2_eval(const + grad_l @ xq, grad_l)
            F[dofs] += wq * 6.0 * vol * np.outer(vals, f_of_x(xq)).ravel()
    return F


def test_load_vector_dense_oracle():
    # polynomial f of degree 3: the degree-5 integrands are exact under both
    # rules, so F matches the oracle on the interior dofs up to rounding
    mesh = build_mesh(2, 3, 2, 1.0, 2.0, 0.5)
    space = TaylorHoodSpace(mesh)
    f = VectorField.expression(["x**2*y", "z**3", "x*y*z"])
    system = assemble(mesh, space, MuTriple(1.0, 0.0, 0.0), TensorField.identity(), f)
    F_dense = dense_load_vector(
        mesh, space, lambda x: np.array([x[0] ** 2 * x[1], x[2] ** 3, x[0] * x[1] * x[2]]))
    np.testing.assert_allclose(system.F, F_dense[space.interior_idx], rtol=1e-13, atol=0.0)


def test_zero_forcing_zero_load():
    mesh = build_mesh(2, 2, 2, 1.0, 1.0, 1.0)
    space = TaylorHoodSpace(mesh)
    system = assemble(mesh, space, MuTriple(1.0, 0.0, 0.0), TensorField.identity())
    assert np.all(system.F == 0.0)
    assert system.f_l2 == 0.0


def test_assemble_rejects_non_elliptic():
    mesh = build_mesh(1, 1, 1, 1.0, 1.0, 1.0)
    space = TaylorHoodSpace(mesh)
    b = TensorField.constant(SymTensor3.diag(2.0, 0.5, 1.0))
    with pytest.raises(NotElliptic) as err:
        assemble(mesh, space, MuTriple(-2.5, 4.0, 0.25), b)
    assert err.value.alpha is not None and err.value.alpha <= 0.0


def test_assemble_singular_coefficient_names_first_sample(monkeypatch):
    # positive but numerically singular B: g > 0, the inverse is refused;
    # the error names the first sample over all points, not within a chunk
    import genstokes.assembly as assembly

    monkeypatch.setattr(assembly, "_CHUNK_BYTES", 6 * 900 * 8)
    mesh = build_mesh(2, 1, 1, 1.0, 1.0, 1.0)
    space = TaylorHoodSpace(mesh)
    class Split:
        def eval(self, pts):
            mats = np.broadcast_to(np.eye(3), (len(pts), 3, 3)).copy()
            mats[pts[:, 0] > 0.5, 2, 2] = 1e-15
            return mats

    b = Split()
    with pytest.raises(SingularTensor, match=r"first: flat index 162,"):
        assemble(mesh, space, MuTriple(1.0, 1.0, 0.5), b)


def _ill_conditioned():
    """A rotated diag(l, l, l^-2), l^3 = 1e11: its determinant passes the
    inverse's test, the residual of its inverse does not."""
    c, s = np.cos(0.3), np.sin(0.3)
    rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]]) @ np.array(
        [[1, 0, 0], [0, c, -s], [0, s, c]])
    b = rot @ np.diag([1e11 ** (1 / 3)] * 2 + [1e11 ** (-2 / 3)]) @ rot.T
    return 0.5 * (b + b.T)


@pytest.mark.parametrize("cells", [("ill", "eye", "flat"), ("ill", "eye", "ill"),
                                   ("flat", "ill", "flat")])
def test_singular_refusal_is_one_call_over_all_points(monkeypatch, cells):
    # one chunk per cell; the refusal counts and names the samples as
    # ch_inverse_batch does over every point: the determinant test first
    import genstokes.assembly as assembly
    from genstokes.tensors import ch_inverse_batch

    monkeypatch.setattr(assembly, "_CHUNK_BYTES", 6 * 900 * 8)
    mesh = build_mesh(3, 1, 1, 3.0, 1.0, 1.0)
    space = TaylorHoodSpace(mesh)
    flat = np.diag([1.0, 1.0, 1e-15])
    kinds = {"ill": _ill_conditioned(), "eye": np.eye(3), "flat": flat}

    class ByCell:
        def eval(self, pts):
            return np.stack([kinds[cells[int(x)]] for x in pts[:, 0]])

    with pytest.raises(SingularTensor) as one_call:
        ch_inverse_batch(ByCell().eval(space.geometry(3).flat_points))
    with pytest.raises(SingularTensor) as err:
        assemble(mesh, space, MuTriple(1.0, 1.0, 0.5), ByCell())
    assert str(err.value) == str(one_call.value)
    assert err.value.count == 162 * cells.count("flat" if "flat" in cells else "ill")


def test_singular_b_assembles_without_the_inverse_term():
    # A = I + B is uniformly elliptic (alpha = 1) whatever det B is; with
    # mu3 = 0 no B^-1 is formed, so a33 = 1e-15 assembles as 1e-9 does
    mesh = build_mesh(2, 2, 2, 1.0, 1.0, 1.0)
    space = TaylorHoodSpace(mesh)
    for a33 in ("1e-9", "1e-15"):
        b = TensorField.expression({"a11": "1", "a22": "1", "a33": a33})
        system = assemble(mesh, space, MuTriple(1.0, 1.0, 0.0), b)
        assert system.alpha == pytest.approx(1.0, rel=1e-8)
        assert system.anorm_inf == 2.0
    with pytest.raises(SingularTensor):  # the term is there when mu3 is not 0
        assemble(mesh, space, MuTriple(1.0, 1.0, 0.5), b)


def test_singular_refusal_memory_budget():
    # tracemalloc peak of a mesh-8 refusal, patterns and tables built first:
    # 28.3 MB when the refusal re-evaluated A over every quadrature point to
    # name the first sample, against 11.8 MB for a full assembly of
    # a33 = 1 + x; the chunks now keep their counts and first samples
    mesh = build_mesh(8, 8, 8, 1.0, 1.0, 1.0)
    space = TaylorHoodSpace(mesh)
    space.pattern("K"), space.pattern("G"), space.geometry(3).kuhn_tables
    b = TensorField.expression({"a11": "1", "a22": "1", "a33": "1e-15*(1 + x)"})
    b.eval(np.zeros((1, 3)))

    def refuse():
        with pytest.raises(SingularTensor, match="first: flat index 0,"):
            assemble(mesh, space, MuTriple(1.0, 1.0, 0.5), b)

    peak = traced_peak(refuse)
    assert peak <= 16 * 2**20, f"refusal peak {peak / 2**20:.1f} MB > 16 MB"


def test_thread_count_does_not_change_entries():
    mesh = build_mesh(2, 2, 2, 1.0, 1.0, 1.0)
    space = TaylorHoodSpace(mesh)
    from genstokes.verification import make_anisotropic_case

    case = make_anisotropic_case()
    s1 = assemble(mesh, space, case.mu, case.b_field, case.f_field, threads=1)
    s4 = assemble(mesh, space, case.mu, case.b_field, case.f_field, threads=4)
    diff = (s1.K - s4.K)
    denom = np.max(np.abs(s1.K.toarray()))
    assert np.max(np.abs(diff.toarray())) <= 1e-14 * denom
    assert np.allclose(s1.F, s4.F, rtol=1e-14, atol=0.0)


def test_coercivity_sandwich_three_coefficients():
    mesh = build_mesh(3, 3, 3, 1.0, 1.0, 1.0)
    space = TaylorHoodSpace(mesh)
    from genstokes.verification import make_anisotropic_case

    coefficients = [
        (MuTriple(1.0, 0.0, 0.0), TensorField.identity()),
        (MuTriple(1.0, 1.0, 1.0),
         TensorField.constant(SymTensor3.diag(2.0, 0.5, 1.0))),
        (MuTriple(1.0, 1.0, 1.0), make_anisotropic_case().b_field),
    ]
    rng = np.random.default_rng(11)
    for mu, b in coefficients:
        system = assemble(mesh, space, mu, b)
        for _ in range(50):
            ui = rng.standard_normal(system.n_interior)
            u = system.expand_velocity(ui)
            _, gg, _ = korn_terms(space, u)
            energy = float(ui @ (system.K @ ui))
            assert energy >= system.alpha * gg * (1 - 1e-12)
            assert energy <= 2.0 * system.anorm_inf * gg * (1 + 1e-12)
            # verify's sandwich takes u^t K u from the entries
            assert system.energy(ui) == pytest.approx(energy, rel=1e-13)


def test_blocks_are_formed_once_over_the_assembled_entries():
    mesh = build_mesh(2, 2, 2, 1.0, 1.0, 1.0)
    space = TaylorHoodSpace(mesh)
    system = assemble(mesh, space, MuTriple(1.0, 1.0, 1.0),
                      TensorField.constant(SymTensor3.diag(2.0, 0.5, 1.0)))
    assert system.K is system.K and system.G is system.G
    assert np.shares_memory(system.K.data, system.k_data)
    assert np.shares_memory(system.G.data, system.g_data)
    assert system.K.shape == (system.n_interior, system.n_interior)
    assert system.G.shape == (system.n_interior, system.n_pressure)
    # K in 3x3 node blocks, one column index per node pair; G read as the
    # transpose of the CSR matrix G^T over the same entries
    assert system.K.format == "bsr" and system.K.blocksize == (3, 3)
    assert system.K.indices.size * 9 == system.k_data.size
    assert system.G.T.format == "csr"
    assert np.shares_memory(system.G.T.data, system.g_data)


def test_block_product_is_bitwise_the_scalar_product():
    # the BSR product sums each row's entries in the CSR product's order
    mesh = build_mesh(4, 4, 4, 1.0, 2.0, 0.5)
    space = TaylorHoodSpace(mesh)
    system = assemble(mesh, space, MuTriple(1.0, 1.0, 0.5), TensorField.expression(VARYING_B))
    u = np.random.default_rng(5).standard_normal(system.n_interior)
    assert (system.K @ u).tobytes() == (system.K.tocsr() @ u).tobytes()
    assert system.energy(u) == pytest.approx(float(u @ (system.K.tocsr() @ u)), rel=1e-13)


def test_korn_terms_builds_geometry_once(monkeypatch):
    # 200 calls on one space share one geometry table
    import genstokes.fem as fem

    built = []

    class Counting(fem.ElementGeometry):
        def __init__(self, mesh, space, quad_n=3):
            built.append(quad_n)
            super().__init__(mesh, space, quad_n)

    monkeypatch.setattr(fem, "ElementGeometry", Counting)
    mesh = build_mesh(2, 2, 2, 1.0, 1.0, 1.0)
    space = TaylorHoodSpace(mesh)
    rng = np.random.default_rng(11)
    idx = space.interior_idx
    for _ in range(200):
        u = np.zeros(space.n_velocity)
        u[idx] = rng.standard_normal(idx.size)
        korn_terms(space, u)
    assert built == [3]
    # assembly at the same rule reuses it
    assemble(mesh, space, MuTriple(1.0, 0.0, 0.0), TensorField.identity())
    assert built == [3]
