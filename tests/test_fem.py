"""Mesh construction, quadrature rules, and basis tables."""

import gc
import weakref
from math import factorial

import numpy as np
import pytest
from conftest import traced_peak

from genstokes import fem
from genstokes.errors import InvalidDimensions
from genstokes.fem import (
    LOCAL_EDGES,
    BoxMesh,
    TaylorHoodSpace,
    build_mesh,
    p1_basis,
    p2_basis,
    quad_tet,
)


def _mesh_volume(mesh):
    return TaylorHoodSpace(mesh).geometry().integrate_constant(
        np.ones(mesh.n_tets))


def test_single_cell_counts():
    mesh = build_mesh(1, 1, 1, 1.0, 1.0, 1.0)
    assert mesh.n_tets == 6
    assert mesh.n_vertices == 8
    assert _mesh_volume(mesh) == pytest.approx(1.0, rel=1e-12)


def test_two_cell_counts():
    mesh = build_mesh(2, 2, 2, 1.0, 1.0, 1.0)
    assert mesh.n_tets == 6 * 8
    assert mesh.n_vertices == 27
    assert _mesh_volume(mesh) == pytest.approx(1.0, rel=1e-12)


def test_anisotropic_box_volume():
    mesh = build_mesh(2, 3, 1, 2.0, 0.5, 3.0)
    assert _mesh_volume(mesh) == pytest.approx(3.0, rel=1e-12)


def _face_counts(mesh):
    """(n_interior, n_boundary, max_share) over triangular faces."""
    faces = {}
    local_faces = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    for tet in mesh.tets:
        for lf in local_faces:
            key = tuple(sorted(int(tet[i]) for i in lf))
            faces[key] = faces.get(key, 0) + 1
    counts = np.array(list(faces.values()))
    return (
        int(np.count_nonzero(counts == 2)),
        int(np.count_nonzero(counts == 1)),
        int(counts.max()),
    )


def test_face_conformity():
    mesh = build_mesh(3, 2, 2, 1.0, 1.0, 1.0)
    interior, boundary, max_share = _face_counts(mesh)
    assert max_share == 2
    # boundary faces: two triangles per cell face on the box surface
    expected_boundary = 2 * 2 * (3 * 2 + 3 * 2 + 2 * 2)
    assert boundary == expected_boundary


def test_invalid_dimensions():
    with pytest.raises(InvalidDimensions):
        build_mesh(0, 1, 1, 1.0, 1.0, 1.0)
    with pytest.raises(InvalidDimensions):
        build_mesh(1, 1, 1, 0.0, 1.0, 1.0)
    # NaN passed a "<= 0" test and gave NaN geometry; inf reached a singular
    # LAPACK solve; a float count reached the space as a TypeError
    for args, bad in [((2, 2, 2, np.nan, 1, 1), r"\(nan, 1.0, 1.0\)"),
                      ((2, 2, 2, 1, np.inf, 1), r"\(1.0, inf, 1.0\)"),
                      ((2, 2, 2, 1, 1, -np.inf), r"\(1.0, 1.0, -inf\)"),
                      ((2.0, 2, 2, 1, 1, 1), r"\(2.0, 2, 2\)"),
                      ((2, 1.5, 2, 1, 1, 1), r"\(2, 1.5, 2\)"),
                      ((2, 2, -1, 1, 1, 1), r"\(2, 2, -1\)")]:
        with pytest.raises(InvalidDimensions, match=bad):
            build_mesh(*args)
    with pytest.raises(InvalidDimensions, match="edge lengths"):
        BoxMesh(2, 2, 2, np.nan, 1.0, 1.0)
    assert build_mesh(np.int64(2), 2, 2, 1, 1, 1) == BoxMesh(2, 2, 2, 1.0, 1.0, 1.0)


def test_mesh_determinism():
    a = build_mesh(2, 2, 2, 1.0, 1.0, 1.0)
    b = build_mesh(2, 2, 2, 1.0, 1.0, 1.0)
    assert np.array_equal(a.tets, b.tets)
    assert np.array_equal(TaylorHoodSpace(a).tet_nodes, TaylorHoodSpace(b).tet_nodes)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_quadrature_monomial_exactness(n):
    pts, wts = quad_tet(n)
    assert wts.sum() == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert np.all(wts > 0)
    degree = 2 * n - 1
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            for c in range(degree + 1 - a - b):
                val = np.sum(wts * pts[:, 0] ** a * pts[:, 1] ** b * pts[:, 2] ** c)
                exact = (
                    factorial(a) * factorial(b) * factorial(c)
                    / factorial(a + b + c + 3)
                )
                assert val == pytest.approx(exact, abs=1e-15, rel=1e-13)


def test_p2_basis_nodal_property():
    # value 1 at own node, 0 at the other nodes
    ref_nodes = np.array([
        [0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
    ], dtype=float)
    mids = np.array([
        0.5 * (ref_nodes[a] + ref_nodes[b]) for a, b in LOCAL_EDGES
    ])
    nodes = np.vstack([ref_nodes, mids])
    vals, _ = p2_basis(nodes)
    assert np.allclose(vals, np.eye(10), atol=1e-14)


def test_p2_partition_of_unity():
    rng = np.random.default_rng(0)
    pts = rng.dirichlet(np.ones(4), size=20)[:, 1:]  # interior barycentric
    vals, grads = p2_basis(pts)
    assert np.allclose(vals.sum(axis=1), 1.0, atol=1e-13)
    assert np.allclose(grads.sum(axis=1), 0.0, atol=1e-13)


def test_p1_partition_of_unity():
    rng = np.random.default_rng(1)
    pts = rng.dirichlet(np.ones(4), size=20)[:, 1:]
    vals = p1_basis(pts)
    assert np.allclose(vals.sum(axis=1), 1.0, atol=1e-14)


def test_taylor_hood_dof_counts():
    mesh = build_mesh(2, 2, 2, 1.0, 1.0, 1.0)
    space = TaylorHoodSpace(mesh)
    assert space.n_velocity == 3 * 5**3  # the (2n + 1)^3 lattice of mesh 2n
    assert space.n_pressure == mesh.n_vertices


def test_scalar_nodes_are_the_vertices_of_the_doubled_mesh():
    space = TaylorHoodSpace(build_mesh(2, 3, 4, 1.0, 2.0, 0.5))
    fine = build_mesh(4, 6, 8, 1.0, 2.0, 0.5)
    assert space.scalar_nodes.tobytes() == fine.vertices.tobytes()
    # an element's nodes are its vertices and the midpoints of its edges
    vertices = space.scalar_nodes[space.tet_nodes[:, :4]]
    assert np.array_equal(vertices, space.mesh.vertices[space.mesh.tets])
    for k, (a, b) in enumerate(LOCAL_EDGES):
        mid = 0.5 * (vertices[:, a] + vertices[:, b])
        assert np.allclose(space.scalar_nodes[space.tet_nodes[:, 4 + k]], mid,
                           rtol=0.0, atol=1e-15)


def test_mesh_and_space_memory_budget():
    # tracemalloc peak of a mesh-24 mesh and space: 47.0 MB when the edges
    # were found by a np.unique of every element's endpoint pairs
    peak = traced_peak(lambda: TaylorHoodSpace(build_mesh(24, 24, 24, 1, 1, 1)))
    assert peak <= 24 * 2**20, f"mesh and space peak {peak / 2**20:.1f} MB > 24 MB"


def test_dirichlet_mask_geometry():
    mesh = build_mesh(1, 1, 1, 1.0, 1.0, 1.0)
    space = TaylorHoodSpace(mesh)
    # all 8 vertices on the walls; the body-diagonal midpoint is interior
    center = np.array([0.5, 0.5, 0.5])
    dist = np.linalg.norm(space.scalar_nodes - center, axis=1)
    inside = dist < 1e-12
    assert inside.sum() == 1
    assert not space.dirichlet_scalar[np.argmin(dist)]
    assert space.dirichlet_scalar.sum() == space.n_scalar - 1
    assert space.interior_idx.size == 3


def test_dirichlet_mask_larger_mesh():
    mesh = build_mesh(3, 3, 3, 2.0, 1.0, 1.0)
    space = TaylorHoodSpace(mesh)
    pts = space.scalar_nodes
    on_wall = np.zeros(len(pts), dtype=bool)
    for axis, length in enumerate((2.0, 1.0, 1.0)):
        on_wall |= np.isclose(pts[:, axis], 0.0) | np.isclose(pts[:, axis], length)
    assert np.array_equal(space.dirichlet_scalar, on_wall)


# ---------------------------------------------------------------------------
# geometry cache


def test_geometry_built_once_per_quadrature():
    space = TaylorHoodSpace(build_mesh(2, 2, 2, 1.0, 1.0, 1.0))
    g3 = space.geometry(3)
    assert space.geometry(3) is g3
    assert space.geometry() is g3  # the default rule is quad_n = 3
    g4 = space.geometry(4)
    assert g4 is not g3
    assert g3.wdet.shape == (space.mesh.n_tets, 27)
    assert g4.wdet.shape == (space.mesh.n_tets, 64)
    assert g3.wdet.sum() == pytest.approx(1.0, rel=1e-12)
    assert g4.wdet.sum() == pytest.approx(1.0, rel=1e-12)


def test_cached_geometry_tables_are_read_only():
    space = TaylorHoodSpace(build_mesh(1, 1, 1, 1.0, 1.0, 1.0))
    geom = space.geometry(3)
    for table in (geom.grads, geom.shape_wdet, geom.shape_points, geom.shape_jacobians,
                  geom.n2_vals, geom.p1_vals, geom.p1_grads, geom.detj):
        with pytest.raises(ValueError):
            table[0] = 0.0
    with pytest.raises(ValueError):
        geom.shape_points.reshape(-1)[0] = 1.0  # views share the flag


def _element_jacobians(mesh):
    """(nt, 3, 3) each element's edge vectors from its first vertex, as
    columns, from the mesh's vertex and element tables."""
    v = mesh.vertices[mesh.tets]
    return np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0], v[:, 3] - v[:, 0]], axis=-1)


@pytest.mark.parametrize("dims,box,exact", [
    ((1, 1, 1), (1.0, 1.0, 1.0), True),
    ((2, 4, 4), (1.0, 2.0, 0.5), True),
    ((4, 4, 4), (4.0, 1.0, 0.25), True),
    ((3, 1, 2), (1.0, 1.0, 1.0), False),
    ((3, 4, 1), (0.7, 1.3, 2.9), False),
    ((1, 3, 3), (1.1, 0.3, 1.0), False),
])
def test_every_element_is_a_translate_of_its_kuhn_shape(dims, box, exact):
    # element e is shape e % 6 translated to the corner of cell e // 6: its
    # Jacobian is its shape's table, bitwise when the cell size is dyadic
    mesh = build_mesh(*dims, *box)
    geom = TaylorHoodSpace(mesh).geometry(3)
    jac = _element_jacobians(mesh).reshape(-1, 6, 3, 3)
    if exact:
        assert (jac == geom.shape_jacobians).all()
    else:
        scale = np.abs(geom.shape_jacobians).max(axis=(1, 2))[:, None, None]
        assert np.max(np.abs(jac - geom.shape_jacobians) / scale) <= 1e-15
    # the six tets of a cell share its corner, vertex i of an axis at i * cell
    corners = mesh.tets[:, 0].reshape(-1, 6)
    assert (corners == corners[:, :1]).all()
    lattice = np.indices(dims).reshape(3, -1).T * geom.cell
    assert mesh.vertices[corners[:, 0]].tobytes() == lattice.tobytes()
    assert (mesh.n_vertices, mesh.n_tets) == (len(mesh.vertices), len(mesh.tets))


@pytest.mark.parametrize("dims,box,exact", [
    ((8, 8, 8), (1.0, 1.0, 1.0), True),
    ((3, 4, 5), (1.0, 2.0, 0.5), False),
])
def test_chunk_points_match_per_element_einsum(dims, box, exact):
    # the points of each element from its own Jacobian, as a per-element
    # table held them; a dyadic mesh gives every element of a shape the
    # same Jacobian bits, a non-dyadic one only to rounding
    mesh = build_mesh(*dims, *box)
    geom = TaylorHoodSpace(mesh).geometry(3)
    ref_pts, ref_wts = quad_tet(3)
    jac = _element_jacobians(mesh)
    want = np.einsum("qd,ecd->eqc", ref_pts, jac)
    want += mesh.vertices[mesh.tets[:, 0]][:, None, :]
    want_w = ref_wts * np.abs(np.linalg.det(jac))[:, None]
    sl = slice(12, 6 * mesh.nx * mesh.ny * mesh.nz - 18)
    pts, wdet = geom.quadrature(sl)
    assert pts.shape == (want[sl].size // 3, 3) and wdet.shape == want_w[sl].shape
    if exact:
        assert pts.tobytes() == want[sl].reshape(-1, 3).tobytes()
        assert wdet.tobytes() == want_w[sl].tobytes()
    else:
        assert np.max(np.abs(pts - want[sl].reshape(-1, 3))) <= 1e-15 * max(box)
        assert np.max(np.abs(wdet - want_w[sl])) <= 1e-15 * np.max(want_w)
    assert geom.flat_points.tobytes() == geom.quadrature(slice(None))[0].tobytes()


def test_geometry_cache_forms_no_reference_cycle():
    # with the cyclic collector off, only reference counting can free the
    # space; a geometry that pointed back to it would keep it alive
    space = TaylorHoodSpace(build_mesh(2, 2, 2, 1.0, 1.0, 1.0))
    space.geometry(3)
    space.geometry(4)
    ref = weakref.ref(space)
    gc.disable()
    try:
        del space
        assert ref() is None
    finally:
        gc.enable()


def test_shape_tables_match_per_element_reference():
    # on a non-dyadic anisotropic mesh the elements of one shape have
    # Jacobians that differ in the last bits; the shape tables, built from
    # the first cell, must agree with tables built from every element's own
    # Jacobian
    from genstokes.assembly import korn_terms
    from genstokes.verification import broken_h1_pressure, broken_h2_velocity

    mesh = build_mesh(3, 2, 5, 1.0, 2.0, 0.5)
    space = TaylorHoodSpace(mesh)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(space.n_velocity)
    u[space.dirichlet_mask] = 0.0
    p = rng.standard_normal(space.n_pressure)
    uloc = u.reshape(-1, 3)[space.tet_nodes]

    jac = _element_jacobians(mesh)
    vol = np.abs(np.linalg.det(jac)) / 6.0
    jinv = np.linalg.inv(jac)  # row k: gradient of barycentric coordinate k + 1
    dl = np.concatenate([-jinv.sum(axis=1, keepdims=True), jinv], axis=1)

    def rel(got, want):
        return np.max(np.abs(np.subtract(got, want))) / np.max(np.abs(want))

    for quad_n in (3, 4):
        ref_pts, ref_wts = quad_tet(quad_n)
        grads = np.einsum("qid,edc->eqic", p2_basis(ref_pts)[1], jinv)
        gv = np.einsum("eia,eqic->eqac", uloc, grads)
        wdet = 6.0 * vol[:, None] * ref_wts
        dv = 0.5 * (gv + np.swapaxes(gv, -1, -2))
        div = np.einsum("eqaa->eq", gv)
        want = [np.sum(wdet[..., None, None] * dv * dv),
                np.sum(wdet[..., None, None] * gv * gv), np.sum(wdet * div * div)]
        assert rel(space.geometry(quad_n).p2_grad(uloc), gv) < 1e-13
        assert rel(korn_terms(space, u, quad_n), want) < 1e-13

    hess = np.zeros((mesh.n_tets, 10, 3, 3))
    for i in range(4):
        hess[:, i] = 4.0 * np.einsum("ec,ed->ecd", dl[:, i], dl[:, i])
    for k, (a, b) in enumerate(LOCAL_EDGES):
        outer = np.einsum("ec,ed->ecd", dl[:, a], dl[:, b])
        hess[:, 4 + k] = 4.0 * (outer + np.swapaxes(outer, 1, 2))
    hv = np.einsum("eia,eicd->eacd", uloc, hess)
    w = np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]])
    want_h2 = np.sqrt(np.sum(vol * np.einsum("eacd,cd->e", hv * hv, w)))
    gp = np.einsum("ei,eic->ec", p[mesh.tets], dl)
    want_h1 = np.sqrt(np.sum(vol * np.sum(gp * gp, axis=1)))
    for quad_n in (3, 4):  # constant per element: any rule's chunks give them
        geom = space.geometry(quad_n)
        assert rel(broken_h2_velocity(space, geom, u), want_h2) < 1e-13
        assert rel(broken_h1_pressure(space, geom, p), want_h1) < 1e-13


def test_geometry_memory_is_per_shape():
    # tracemalloc peak of the quad_n = 4 geometry at mesh 8: 0.14 MB, with
    # the shape Jacobians formed from the cell size; 0.77 MB with every
    # element's Jacobian and the check that it was its shape's, 6.6 MB with
    # per-element points and weights, and a per-element gradient table
    # would add 47 MB.  No table is kept per element and quadrature point.
    mesh = build_mesh(8, 8, 8, 1.0, 1.0, 1.0)
    space = TaylorHoodSpace(mesh)
    assert traced_peak(lambda: space.geometry(4)) < 0.3e6
    geom = space.geometry(4)
    assert geom.grads.shape == (6, 64, 10, 3)
    tables = [t for t in vars(geom).values() if isinstance(t, np.ndarray)]
    assert all(t.size < mesh.n_tets * geom.nq and t.shape[0] != mesh.n_tets
               for t in tables)


def test_geometry_is_formed_from_the_divisions_and_box():
    # tracemalloc peak of the quad_n = 3 geometry at mesh 24: 0.06 MB, as at
    # any mesh size; 19 MB when it formed every element's Jacobian from the
    # vertex table (152 MB at mesh 48)
    mesh = build_mesh(24, 24, 24, 1.0, 1.0, 1.0)
    space = TaylorHoodSpace(mesh)
    peak = traced_peak(lambda: space.geometry(3))
    assert peak <= 2**20, f"geometry peak {peak / 2**20:.2f} MB > 1 MB"
    assert "vertices" not in vars(mesh)  # nor the space read the vertex table


def test_pattern_build_memory_budget():
    # tracemalloc peak of the mesh-16 K pattern build: 19 MB, of which the
    # kept node-pair indices are 3 MB (45 MB with one index per scalar
    # entry, 27 MB of them kept); a whole-mesh np.unique of the element
    # node pairs, with per-entry slot tables, peaked at 126 MB
    space = TaylorHoodSpace(build_mesh(16, 16, 16, 1.0, 1.0, 1.0))
    peak = traced_peak(lambda: space.pattern("K"))
    assert peak <= 60 * 2**20, f"K pattern peak {peak / 2**20:.1f} MB > 60 MB"


def test_divergence_pattern_build_memory_budget():
    # tracemalloc peak of the mesh-16 G pattern build: 7.3 MB with G stored
    # as its transpose in 1x3 node blocks; the scalar-row layout, with its
    # per-entry column indices built beside the pattern, peaked at 13.9 MB
    space = TaylorHoodSpace(build_mesh(16, 16, 16, 1.0, 1.0, 1.0))
    peak = traced_peak(lambda: space.pattern("G"))
    assert peak <= 10 * 2**20, f"G pattern peak {peak / 2**20:.1f} MB > 10 MB"


def test_patterns_share_one_element_node_table():
    # K's rows, K's columns and the columns of G's transpose are the
    # space's one int32 tet_interior table, not three copies of it
    space = TaylorHoodSpace(build_mesh(3, 2, 2, 1.0, 1.5, 0.5))
    k, d = space.pattern("K"), space.pattern("G")
    assert space.tet_interior.dtype == np.int32
    assert np.array_equal(space.tet_interior, space.interior_number[space.tet_nodes])
    for table in (k.rows, k.cols, d.cols):
        assert np.shares_memory(table, space.tet_interior)
    assert np.array_equal(d.rows, space.mesh.tets)


def test_node_pair_keys_do_not_wrap_in_int32():
    # int32 node tables, as the patterns keep them; the key r * n_cols + c of
    # row 40,000 and column 70,000 passes 2^31
    n_cols = 70_001
    rows = np.array([[40_000, -1], [5, 40_000]], dtype=np.int32)
    cols = np.array([[70_000, 3], [-1, 1 << 16]], dtype=np.int32)
    keys = np.concatenate(fem._node_pairs(rows, cols, n_cols))
    assert keys.max() > 2**31
    pairs = sorted(zip((keys // n_cols).tolist(), (keys % n_cols).tolist()))
    assert pairs == [(5, 1 << 16), (40_000, 3), (40_000, 1 << 16), (40_000, 70_000)]


@pytest.mark.parametrize("block", ["K", "G"])
def test_pattern_slots_hold_their_entries(block):
    # every kept element entry's slot holds the matrix entry at row br*r + a
    # and column bc*c + b; dropped entries go past nnz.  K keeps node pair k
    # (row node r, column node indices[k]) as the 3x3 block of slots 9k to
    # 9k + 8, row-major; G's transpose keeps it as the 1x3 block 3k to 3k + 2
    space = TaylorHoodSpace(build_mesh(3, 2, 2, 1.0, 1.5, 0.5))
    pat = space.pattern(block)
    slots = pat.slots(slice(0, space.mesh.n_tets)).reshape(
        -1, pat.rows.shape[1], pat.br, pat.cols.shape[1], pat.bc)
    e, i, a, j, b = np.indices(slots.shape)
    r, c = pat.rows[e, i], pat.cols[e, j]
    kept = (r >= 0) & (c >= 0)
    s = slots[kept]
    assert np.all(slots[~kept] >= pat.nnz)
    if block == "K":
        assert (pat.br, pat.bc) == (3, 3)
        node_row = np.repeat(np.arange(pat.indptr.size - 1), np.diff(pat.indptr))
        assert np.array_equal(node_row[s // 9], r[kept])
        assert np.array_equal(pat.indices[s // 9], c[kept])
        assert np.array_equal(s % 9, (3 * a + b)[kept])
        assert pat.indices.size == pat.nnz // 9
    # the matrix over data = slot numbers puts each slot at its entry
    coo = pat.matrix(np.arange(pat.nnz, dtype=float)).tocoo()
    row_of, col_of = np.empty(pat.nnz, int), np.empty(pat.nnz, int)
    row_of[coo.data.astype(int)], col_of[coo.data.astype(int)] = coo.row, coo.col
    assert np.array_equal(row_of[s], (pat.br * r + a)[kept])
    assert np.array_equal(col_of[s], (pat.bc * c + b)[kept])


def test_patterns_are_the_two_assembled_matrices():
    # the load vector goes by dof number and needs no pattern
    space = TaylorHoodSpace(build_mesh(2, 2, 2, 1.0, 1.0, 1.0))
    for block in ("F", "full"):
        with pytest.raises(ValueError, match="the patterns are 'K' and 'G'"):
            space.pattern(block)
    number = space.interior_number
    assert np.array_equal(np.flatnonzero(number >= 0),
                          np.flatnonzero(~space.dirichlet_scalar))
    assert np.array_equal(number[number >= 0], np.arange(space.interior_idx.size // 3))
