"""Structured tetrahedral box meshes, Taylor-Hood spaces, and quadrature.

The box [0,Lx]x[0,Ly]x[0,Lz] is divided into nx*ny*nz hexahedral cells, each
split into six tetrahedra sharing the cell's main diagonal (the standard
Kuhn subdivision); face diagonals are consistent across neighbours, so the
mesh is conforming.  Node and element ordering are fully deterministic.

Velocity uses quadratic elements, pressure linear elements on vertices; the
pair is inf-sup stable.  The quadratic nodes of Kuhn mesh n are the vertices
of Kuhn mesh 2n (Freudenthal refinement); this module alone numbers them, as
that lattice's points in C order, so the interior nodes are its interior
grid in C order.  Tetrahedral quadrature comes from a conical-product
construction (Gauss-Jacobi x Gauss-Jacobi x Gauss-Legendre on the collapsed
cube), exact for total degree <= 2n - 1 with n points per direction.

A mesh is its division counts and its box (``BoxMesh``), so every element
is a translate of one of the six tetrahedra of a cell (element ``e`` of
shape ``e % 6``, from the corner of cell ``e // 6``).  ``ElementGeometry``
forms the six shape Jacobians from the cell size, keeps its basis
gradients, Jacobian determinants, quadrature points and weights, and
element matrix maps (``ElementGeometry.kuhn_tables``) once per shape, and
forms a chunk's points from its cells' corners when asked.
Each space keeps the fixed patterns of its two assembled matrices, with one
column index per node pair and the entries in node blocks: K in 3x3 blocks,
and G as its transpose D = G^T, pressure rows in 1x3 blocks.  It finds where
a chunk of element entries goes in them when the chunk is scattered
(``BlockPattern``); the load vector needs no pattern, since its entries go
to interior dof numbers (``TaylorHoodSpace.interior_number``).  One
element-node table, ``TaylorHoodSpace.tet_interior``, gives the rows and
columns of K and the columns of D.
The patterns and entries are numpy arrays: scipy enters only in
``BlockPattern.matrix``, which imports scipy.sparse when a solve first
forms a matrix, so meshing and assembly load no scipy module.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import InvalidDimensions

__all__ = [
    "BoxMesh",
    "TaylorHoodSpace",
    "build_mesh",
    "quad_tet",
    "p2_basis",
    "p1_basis",
    "ElementGeometry",
    "KuhnTables",
    "BlockPattern",
    "LOCAL_EDGES",
    "P2_NODES",
    "SYM_PAIRS",
    "MIRROR",
    "lattice_points",
    "cell_centres",
]

# Local edge order of a tetrahedron (a, b, c, d).
LOCAL_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# The vertex pair (a, b) of each local P2 node: the vertices, then the edges.
P2_NODES = ((0, 0), (1, 1), (2, 2), (3, 3), *LOCAL_EDGES)

# The six Kuhn tetrahedra of the unit cell: vertex paths from (0,0,0) to
# (1,1,1), one axis step per permutation entry.
_KUHN_CORNERS = []
for _perm in itertools.permutations((0, 1, 2)):
    c = np.zeros((4, 3), dtype=np.int64)
    for step, axis in enumerate(_perm):
        c[step + 1] = c[step]
        c[step + 1, axis] += 1
    _KUHN_CORNERS.append(c)
_KUHN_CORNERS = np.array(_KUHN_CORNERS)  # (6, 4, 3)

# The six independent entries (row, column) of a symmetric 3x3 tensor, in the
# row order of the per-shape element tables.
SYM_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
# The 465 upper-triangle entries of a 30x30 element matrix, row-major, and
# for each of its 900 entries the upper-triangle column that holds it.
_UPPER = np.triu_indices(30)
MIRROR = np.zeros((30, 30), dtype=np.intp)
MIRROR[_UPPER] = np.arange(_UPPER[0].size)
MIRROR = np.maximum(MIRROR, MIRROR.T).ravel()


@dataclass(frozen=True)
class BoxMesh:
    """Conforming tetrahedral mesh of nx x ny x nz Kuhn-divided cells of the
    box [0, lx] x [0, ly] x [0, lz]; its vertex and element tables are built
    from these six values on first read."""

    nx: int
    ny: int
    nz: int
    lx: float
    ly: float
    lz: float

    def __post_init__(self):
        if not all(isinstance(n, numbers.Integral) and n >= 1 for n in self.divisions):
            raise InvalidDimensions(f"division counts {self.divisions} "
                                    "are not whole numbers >= 1")
        if not all(isinstance(x, numbers.Real) and 0.0 < x < np.inf for x in self.box):
            raise InvalidDimensions(f"edge lengths {self.box} are not finite and positive")

    @property
    def divisions(self):
        return (self.nx, self.ny, self.nz)

    @property
    def box(self):
        return (self.lx, self.ly, self.lz)

    @property
    def n_vertices(self) -> int:
        return (self.nx + 1) * (self.ny + 1) * (self.nz + 1)

    @property
    def n_tets(self) -> int:
        return 6 * self.nx * self.ny * self.nz

    @cached_property
    def vertices(self) -> np.ndarray:
        """(nv, 3) the lattice points in C order."""
        return _box_lattice(self.divisions, self.box)

    @cached_property
    def tets(self) -> np.ndarray:
        """(nt, 4) vertex ids: Kuhn tet t of cell c is element 6c + t."""
        nx, ny, nz = self.divisions
        base = lattice_points([np.arange(nx), np.arange(ny), np.arange(nz)])  # (ncell, 3)
        # vertex v of Kuhn tet t in cell c: index(c) + index(_KUHN_CORNERS[t, v])
        index = np.array([(ny + 1) * (nz + 1), nz + 1, 1])  # of a lattice point
        return ((base @ index)[:, None, None] + _KUHN_CORNERS @ index).reshape(-1, 4)


def lattice_points(axes) -> np.ndarray:
    """(n0*n1*n2, 3) points of the tensor lattice of three axis arrays, C order."""
    return np.stack(
        [g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1
    )


def cell_centres(box, n: int) -> np.ndarray:
    """Centres of the n x n x n cells of the box, in lattice order."""
    return lattice_points(
        [np.linspace(0.0, b, n + 1)[:-1] + b / (2 * n) for b in box]
    )


def _box_lattice(divisions, box) -> np.ndarray:
    """The points of the box's lattice with ``divisions`` cells per axis, C order."""
    return lattice_points([np.linspace(0.0, length, n + 1)
                           for n, length in zip(divisions, box)])


def build_mesh(nx: int, ny: int, nz: int, lx: float, ly: float, lz: float) -> BoxMesh:
    """Structured Kuhn-subdivided tetrahedral mesh of the box (``BoxMesh``)."""
    return BoxMesh(nx, ny, nz, *(float(length) for length in (lx, ly, lz)))


@dataclass
class TaylorHoodSpace:
    """Quadratic velocity / linear pressure pair with zero-velocity walls.

    Scalar node r is point r of the lattice of Kuhn mesh 2n in C order, so
    the interior nodes are its interior grid, the DST grid, in C order.
    """

    mesh: BoxMesh
    scalar_nodes: np.ndarray = field(init=False)   # (n_scalar, 3) coordinates
    tet_nodes: np.ndarray = field(init=False)      # (nt, 10) scalar node ids
    dirichlet_scalar: np.ndarray = field(init=False)
    dirichlet_mask: np.ndarray = field(init=False)  # (n_vel,) bool
    _geometries: dict = field(init=False, default_factory=dict,
                              repr=False, compare=False)
    _patterns: dict = field(init=False, default_factory=dict,
                            repr=False, compare=False)

    def __post_init__(self):
        mesh = self.mesh
        cells = np.array(mesh.divisions)
        self.scalar_nodes = _box_lattice(2 * cells, mesh.box)
        # q[v]: the fine-lattice index of vertex v's own lattice point; the index
        # is linear, so local node (a, b) of P2_NODES, the sum point, is q[a] + q[b]
        q = np.ravel_multi_index(np.indices(cells + 1).reshape(3, -1), 2 * cells + 1)
        self.tet_nodes = np.empty((mesh.n_tets, 10), dtype=np.int64)
        for node, (a, b) in enumerate(P2_NODES):
            self.tet_nodes[:, node] = q[mesh.tets[:, a]] + q[mesh.tets[:, b]]
        interior = np.zeros(2 * cells - 1, dtype=bool)  # the walls pad the DST grid
        self.dirichlet_scalar = np.pad(interior, 1, constant_values=True).ravel()
        self.dirichlet_mask = np.repeat(self.dirichlet_scalar, 3)

    @property
    def n_scalar(self) -> int:
        return self.scalar_nodes.shape[0]

    @property
    def n_velocity(self) -> int:
        return 3 * self.n_scalar

    @property
    def n_pressure(self) -> int:
        return self.mesh.n_vertices

    @property
    def interior_idx(self) -> np.ndarray:
        return np.flatnonzero(~self.dirichlet_mask)

    def geometry(self, quad_n: int = 3) -> "ElementGeometry":
        """The element tables of this space for ``quad_n``, built once."""
        if quad_n not in self._geometries:
            self._geometries[quad_n] = ElementGeometry(self.mesh, self, quad_n)
        return self._geometries[quad_n]

    @cached_property
    def interior_number(self) -> np.ndarray:
        """(n_scalar,) each node's number among the interior nodes, -1 on a
        wall: component a of interior node r is interior dof 3r + a."""
        keep = ~self.dirichlet_scalar
        return np.where(keep, np.cumsum(keep) - 1, -1)

    @cached_property
    def tet_interior(self) -> np.ndarray:
        """(nt, 10) int32 ``interior_number[tet_nodes]``, read-only."""
        table = self.interior_number.astype(np.int32)[self.tet_nodes]
        table.setflags(write=False)
        return table

    def pattern(self, block: str) -> "BlockPattern":
        """The pattern of one assembled block, built once: ``"K"``, interior
        velocity x interior velocity in 3x3 node blocks, or ``"G"``, stored
        as its transpose D = G^T, pressure x interior velocity in 1x3 node
        blocks.  Both read ``tet_interior`` itself, not a copy."""
        if block not in self._patterns:
            nodes = self.tet_interior
            n_nodes = int(np.count_nonzero(~self.dirichlet_scalar))
            if block == "K":
                pat = BlockPattern(nodes, nodes, n_nodes, n_nodes, 3, 3)
            elif block == "G":
                pat = BlockPattern(self.mesh.tets, nodes, self.n_pressure, n_nodes, 1, 3)
            else:
                raise ValueError(f"no block {block!r}: the patterns are 'K' and 'G'")
            self._patterns[block] = pat
        return self._patterns[block]


def _gauss_jacobi(n: int, a: int):
    """The n-point Gauss rule for the weight (1 - x)^a on [-1, 1], a >= 1:
    nodes and weights from the eigenpairs of the Jacobi matrix of the
    Jacobi polynomials P_k^(a, 0) (Golub & Welsch 1969)."""
    k = np.arange(n)
    diag = -a**2 / ((2 * k + a) * (2 * k + a + 2))
    k = k[1:]
    off = 2 * k * (k + a) / ((2 * k + a) * np.sqrt((2 * k + a + 1) * (2 * k + a - 1)))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return x, 2.0 ** (a + 1) / (a + 1) * v[0] ** 2


@lru_cache(maxsize=8)
def quad_tet(n: int):
    """Conical product rule on the reference tetrahedron.

    Returns (points (m, 3), weights (m,)); weights sum to 1/6 and the rule
    is exact for polynomials of total degree <= 2n - 1.
    """
    xu, wu = _gauss_jacobi(n, 2)
    xv, wv = _gauss_jacobi(n, 1)
    xw, ww = leggauss(n)
    u = 0.5 * (xu + 1.0)
    v = 0.5 * (xv + 1.0)
    w = 0.5 * (xw + 1.0)
    pts = []
    wts = []
    for a, wa in zip(u, wu):
        for b, wb in zip(v, wv):
            for c, wc in zip(w, ww):
                x = a
                y = b * (1.0 - a)
                z = c * (1.0 - a) * (1.0 - b)
                pts.append((x, y, z))
                wts.append(wa * wb * wc / 64.0)
    return np.array(pts), np.array(wts)


def _bary(pts: np.ndarray) -> np.ndarray:
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    return np.stack([1.0 - x - y - z, x, y, z], axis=-1)


_DL = np.array(
    [[-1.0, -1.0, -1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
)


def p2_basis(pts: np.ndarray):
    """Quadratic basis values (m, 10) and reference gradients (m, 10, 3)."""
    lam = _bary(np.atleast_2d(pts))
    m = lam.shape[0]
    vals = np.empty((m, 10))
    grads = np.empty((m, 10, 3))
    for i in range(4):
        vals[:, i] = lam[:, i] * (2.0 * lam[:, i] - 1.0)
        grads[:, i, :] = (4.0 * lam[:, i, None] - 1.0) * _DL[i]
    for k, (a, b) in enumerate(LOCAL_EDGES):
        vals[:, 4 + k] = 4.0 * lam[:, a] * lam[:, b]
        grads[:, 4 + k, :] = 4.0 * (
            lam[:, a, None] * _DL[b] + lam[:, b, None] * _DL[a]
        )
    return vals, grads


def p1_basis(pts: np.ndarray):
    """Linear basis values (m, 4); gradients are the constant rows of _DL."""
    return _bary(np.atleast_2d(pts))


class ElementGeometry:
    """Geometric tables shared by assembly and error integration.

    Element ``e`` of a ``BoxMesh`` is Kuhn shape ``e % 6`` translated to the
    corner of cell ``e // 6``, so every table is kept per shape, formed from
    the cell size ``cell`` (3,): the Jacobians ``shape_jacobians`` (6, 3, 3),
    the physical P2 basis gradients ``grads`` (6, nq, 10, 3), ``p1_grads``
    (6, 4, 3), ``detj`` (6,), the quadrature points ``shape_points``
    (6, nq, 3) from the cell's corner and the weights times |det J|
    ``shape_wdet`` (6, nq).  :meth:`quadrature` forms a chunk's points and
    weights (:meth:`weights` the weights alone); nothing is stored per
    element.  The methods apply the shape tables to per-element coefficients.

    The tables are read-only: ``TaylorHoodSpace.geometry`` hands one instance
    to every caller.  Neither the mesh nor the space is kept, so a space that
    caches its geometries forms no reference cycle.
    """

    def __init__(self, mesh: BoxMesh, space: TaylorHoodSpace, quad_n: int = 3):
        ref_pts, self.ref_wts = quad_tet(quad_n)
        self.n2_vals, n2_grads = p2_basis(ref_pts)
        self.p1_vals = p1_basis(ref_pts)

        self.n_tets, self.nq, self.divisions = mesh.n_tets, self.ref_wts.size, mesh.divisions
        # the Kuhn paths start at 0 and L / n is bitwise linspace's step, so
        # these are the first cell's Jacobians; C order, as einsum sums in it
        self.cell = np.array(mesh.box) / np.array(mesh.divisions)
        jac = np.ascontiguousarray((_KUHN_CORNERS[:, 1:] * self.cell).transpose(0, 2, 1))
        self.shape_jacobians = jac
        self.detj = np.linalg.det(jac)
        # grad_x phi = Jinv^T grad_ref phi; the rows of Jinv are the
        # gradients of barycentric coordinates 1-3
        self.p1_grads = np.einsum("id,sdc->sic", _DL, np.linalg.inv(jac))
        self.grads = np.einsum("qid,sdc->sqic", n2_grads, self.p1_grads[:, 1:])
        self.shape_points = np.einsum("qd,scd->sqc", ref_pts, jac)
        self.shape_wdet = self.ref_wts * np.abs(self.detj)[:, None]
        for table in vars(self).values():
            if isinstance(table, np.ndarray):
                table.setflags(write=False)

    @cached_property
    def kuhn_tables(self) -> "KuhnTables":
        """The per-shape element maps, built on first use."""
        g = self.grads   # (shape, q, i, 3)
        w = self.shape_wdet    # (shape, q)
        basis = np.zeros((6, 3, 3))
        for t, (r, c) in enumerate(SYM_PAIRS):
            basis[t, r, c] = basis[t, c, r] = 1.0
        # the element matrix entry ((i,a),(j,b)) at one point for A = basis[t]:
        # (D(phi_j e_b) A + A D(phi_j e_b)) : grad(phi_i e_a)
        gag = np.einsum("sqjm,tml,sqil->sqtij", g, basis, g)
        gg = np.einsum("sqjl,sqil->sqij", g, g)
        ag = np.einsum("tbl,sqil->sqtib", basis, g)        # (A g_i)_b
        nq = w.shape[1]
        velocity = np.empty((6, nq * 6, _UPPER[0].size))
        for s in range(6):  # one shape at a time: kel is (q, t, i, a, j, b)
            kel = 0.5 * w[s, :, None, None, None, None, None] * (
                gag[s, :, :, :, None, :, None] * np.eye(3)[:, None, :]
                + gg[s, :, None, :, None, :, None] * basis[:, None, :, None, :]
                + g[s].transpose(0, 2, 1)[:, None, None, :, :, None]
                * ag[s, :, :, :, None, None, :]
                + ag[s].transpose(0, 1, 3, 2)[:, :, None, :, :, None]
                * g[s, :, None, :, None, None, :]
            )
            velocity[s] = kel.reshape(nq * 6, 30, 30)[:, _UPPER[0], _UPPER[1]]
        divergence = -np.einsum("sq,qj,sqia->sjia", w, self.p1_vals, g)
        tables = KuhnTables(velocity, divergence.reshape(6, 120))
        for table in tables:
            table.setflags(write=False)
        return tables

    def weights(self, sl: slice) -> np.ndarray:
        """The quadrature weights times |det J| (e, nq) of the elements in ``sl``."""
        e = range(self.n_tets)[sl]
        return self.shape_wdet[np.arange(e.start, e.stop, e.step) % 6]

    def quadrature(self, sl: slice):
        """The quadrature points (e * nq, 3), element-major, and the
        :meth:`weights` of the elements in ``sl``: each element's shape
        points translated to its cell's corner, index times ``cell`` per
        axis, bitwise the mesh vertex (linspace's i * step)."""
        e = range(self.n_tets)[sl]
        e = np.arange(e.start, e.stop, e.step)
        corner = np.stack(np.unravel_index(e // 6, self.divisions), axis=-1) * self.cell
        pts = self.shape_points[e % 6] + corner[:, None, :]
        return pts.reshape(-1, 3), self.weights(sl)

    @property
    def flat_points(self) -> np.ndarray:
        """Every element's quadrature points, formed on each read."""
        return self.quadrature(slice(None))[0]

    @property
    def wdet(self) -> np.ndarray:
        """Every element's quadrature weights (ne, nq), formed on each read."""
        return self.weights(slice(None))

    def integrate_constant(self, values: np.ndarray) -> float:
        """Integrate a field that is constant on each element, given (ne,)."""
        return float(np.sum(np.abs(self.detj) / 6.0 * values.reshape(-1, 6)))

    def p2_grad(self, coeffs: np.ndarray) -> np.ndarray:
        """(ne, nq, a, c) = d_c v_a at the quadrature points of the P2 fields
        with element coefficients ``coeffs`` (ne, 10, a), stored in (e, q, c, a)
        order; sums over it (the Korn terms, the audits) add in that order."""
        return self._by_shape("xsia,sqic->xsqca", coeffs, self.grads).swapaxes(-1, -2)

    def p2_hess(self, coeffs: np.ndarray) -> np.ndarray:
        """(ne, a, c, d) = d_c d_d v_a, constant per element, of the P2 fields
        with element coefficients ``coeffs`` (ne, 10, a)."""
        # vertex i: 4 grad L_i grad L_i^T; edge (a, b): 4 (grad L_a grad L_b^T + transpose)
        a, b = np.array(P2_NODES).T
        outer = np.einsum("sic,sid->sicd", self.p1_grads[:, a], self.p1_grads[:, b])
        hess = np.where(a == b, 2.0, 4.0)[:, None, None] * (outer + outer.swapaxes(-1, -2))
        return self._by_shape("xsia,sicd->xsacd", coeffs, hess)

    def p1_grad(self, coeffs: np.ndarray) -> np.ndarray:
        """(ne, 3) gradient of the P1 field with vertex values ``coeffs`` (ne, 4)."""
        return self._by_shape("xsi,sic->xsc", coeffs, self.p1_grads)

    @staticmethod
    def _by_shape(spec: str, coeffs: np.ndarray, table: np.ndarray) -> np.ndarray:
        """``np.einsum(spec, ...)`` of per-element ``coeffs`` (ne, ...) seen as
        (ne / 6, 6, ...), and a per-shape ``table`` (6, ...), back per element."""
        out = np.einsum(spec, coeffs.reshape(-1, 6, *coeffs.shape[1:]), table,
                        optimize=True)
        return out.reshape(-1, *out.shape[2:])


class KuhnTables(NamedTuple):
    """Element maps of the six Kuhn shapes (see ``ElementGeometry.kuhn_tables``).

    ``velocity[s]`` (nq*6, 465) maps the six ``SYM_PAIRS`` entries of A at
    each quadrature point (point-major) to the upper triangle of the 30x30
    velocity element matrix, whose rows and columns are (node, component)
    pairs; ``MIRROR`` expands a row of it to all 900 entries.
    ``divergence[s]`` (120,) is the (4, 30) element block of D = G^T,
    -int q_j d_a phi_i at row j and column (i, a).
    """

    velocity: np.ndarray
    divergence: np.ndarray


def _node_pairs(rows, cols, n_cols: int) -> list:
    """The distinct (row, column) node pairs that share an element, as sorted
    keys ``r * n_cols + c``, dropped (-1) nodes left out.  The element rows
    are sorted by node and cut between nodes into runs of about 16,384; each
    run gives one array of the list, so no temporary spans every element
    entry."""
    flat = rows.ravel()
    order = np.argsort(flat)
    node = flat[order]
    kept = np.searchsorted(node, 0)
    order, node = order[kept:], node[kept:]
    cuts = np.append(np.unique(np.searchsorted(node, node[::1 << 14])), node.size)
    parts = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        c = cols[order[lo:hi] // rows.shape[1]]
        # int64 keys: r * n_cols passes 2^31 from about 46,000 nodes on
        keys = np.sort((node[lo:hi, None].astype(np.int64) * n_cols + c)[c >= 0])
        # distinct by sorting: np.unique hashes, 30 times slower on these keys
        parts.append(keys[np.append(True, keys[1:] != keys[:-1])])
        del c, keys  # let the next run reuse their memory
    return parts


class BlockPattern:
    """Fixed pattern of a block assembled from element blocks, by node pairs.

    ``rows`` (nt, nr) and ``cols`` (nt, nc) are each element's row and column
    nodes in the block's node numbering, -1 for a dropped (wall) node; an
    int32 table is kept as it is, not copied.  Node row r holds the column
    nodes ``indices[indptr[r]:indptr[r + 1]]`` of the distinct node pairs
    (r, c) that share an element, in increasing c: one int32 per node pair.
    A node pair carries a ``br`` x ``bc`` block of entries, row ``br*r + a``
    and column ``bc*c + b``: pair k's block is ``data[br*bc*k:][:br*bc]``,
    row-major.  :meth:`matrix` is a ``scipy.sparse.bsr_matrix`` of these
    blocks, or, for a one-row block, the ``csr_matrix`` whose scalar row r
    holds them in turn, which is the same data in the same order.

    :meth:`slots` places a slice of elements' entries; dropped entries go to
    the slots from ``nnz`` on, which :meth:`matrix` leaves out.  The pattern
    keeps ``rows`` and ``cols`` and finds the slots when asked, so no table
    spans every element entry.
    """

    def __init__(self, rows, cols, n_rows: int, n_cols: int, br: int, bc: int):
        self.rows, self.cols = (np.asarray(t, dtype=np.int32) for t in (rows, cols))
        self.br, self.bc = br, bc
        self.shape = (br * n_rows, bc * n_cols)
        parts = _node_pairs(self.rows, self.cols, n_cols)
        degree = sum((np.bincount(keys // n_cols, minlength=n_rows) for keys in parts),
                     np.zeros(n_rows, np.int64))
        self.max_degree = int(degree.max(initial=0))
        self.indptr = np.concatenate([[0], np.cumsum(degree)]).astype(np.int32)
        self.nnz = br * bc * int(self.indptr[-1])
        self.indices = np.empty(int(self.indptr[-1]), dtype=np.int32)
        lo = 0
        for keys in parts:  # in row order, each sorted
            self.indices[lo:lo + keys.size] = keys % n_cols
            lo += keys.size
        for table in (self.rows, self.cols, self.indptr, self.indices):
            table.setflags(write=False)

    def slots(self, sl: slice) -> np.ndarray:
        """(e, nr*br*nc*bc) data slots of the elements in ``sl``, local order."""
        rows, cols = self.rows[sl, :, None], self.cols[sl, None, :]
        keep = (rows >= 0) & (cols >= 0)
        row = np.where(keep, rows, 0)
        pair = self.indptr[row].astype(np.intp)
        last = self.indptr[row + 1].astype(np.intp) - 1
        # the pair of each column node: by bisection over the row's sorted
        # column nodes, the last pair whose column is <= c
        step = 1 << max(self.max_degree - 1, 0).bit_length()
        while step := step >> 1:
            probe = np.minimum(pair + step, last)
            pair = np.where(self.indices[probe] <= cols, probe, pair)
        base = np.where(keep, self.br * self.bc * pair, self.nnz)[:, :, None, :, None]
        stride = np.where(keep, self.bc, 0)[:, :, None, :, None]
        slots = base + np.arange(self.br)[:, None, None] * stride + np.arange(self.bc)
        return slots.reshape(slots.shape[0], -1)

    def new_data(self) -> np.ndarray:
        """Zeroed data array, with room for the dropped slots."""
        return np.zeros(self.nnz + self.bc)

    def matrix(self, data: np.ndarray):
        """The scipy matrix of ``data`` on this pattern, sharing its memory.
        The one place the package builds a scipy matrix, and so where
        scipy.sparse is first imported."""
        import scipy.sparse as sparse

        if self.br == 1:  # scalar row r: pair k's entries bc*k + b, column bc*c + b
            indices = self.bc * self.indices[:, None] + np.arange(self.bc, dtype=np.int32)
            return sparse.csr_matrix((data[:self.nnz], indices.ravel(),
                                      self.bc * self.indptr), shape=self.shape)
        return sparse.bsr_matrix(
            (data[:self.nnz].reshape(-1, self.br, self.bc), self.indices, self.indptr),
            shape=self.shape)
