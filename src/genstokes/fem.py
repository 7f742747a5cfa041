"""Structured tetrahedral box meshes, Taylor-Hood spaces, and quadrature.

The box [0,Lx]x[0,Ly]x[0,Lz] is divided into nx*ny*nz hexahedral cells, each
split into six tetrahedra sharing the cell's main diagonal (the standard
Kuhn subdivision); face diagonals are consistent across neighbours, so the
mesh is conforming.  Node and element ordering are fully deterministic.

Velocity uses quadratic elements (vertex + edge-midpoint nodes per
component), pressure linear elements on vertices; the pair is inf-sup
stable.  Tetrahedral quadrature comes from a conical-product construction
(Gauss-Jacobi x Gauss-Jacobi x Gauss-Legendre on the collapsed cube), exact
for total degree <= 2n - 1 with n points per direction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .errors import InvalidDimensions

__all__ = [
    "BoxMesh",
    "TaylorHoodSpace",
    "build_mesh",
    "quad_tet",
    "p2_basis",
    "p1_basis",
    "ElementGeometry",
    "LOCAL_EDGES",
    "lattice_points",
    "cell_centres",
]

# Local edge order of a tetrahedron (a, b, c, d).
LOCAL_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

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


@dataclass
class BoxMesh:
    """Conforming tetrahedral mesh of a box."""

    nx: int
    ny: int
    nz: int
    lx: float
    ly: float
    lz: float
    vertices: np.ndarray  # (nv, 3)
    tets: np.ndarray      # (nt, 4) vertex ids
    edges: np.ndarray     # (ne, 2) sorted vertex pairs
    tet_edges: np.ndarray  # (nt, 6) edge ids in LOCAL_EDGES order

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_tets(self) -> int:
        return self.tets.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def box(self):
        return (self.lx, self.ly, self.lz)

    def jacobians(self) -> np.ndarray:
        """(nt, 3, 3) affine maps of the reference tetrahedron; the columns
        are the edge vectors from each tet's first vertex."""
        v = self.vertices[self.tets]
        return np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0], v[:, 3] - v[:, 0]], axis=-1)

    def volumes(self) -> np.ndarray:
        return np.abs(np.linalg.det(self.jacobians())) / 6.0

    def p1_gradients(self) -> np.ndarray:
        """(nt, 4, 3) physical gradients of the barycentric coordinates."""
        # grad_x phi = Jinv^T grad_ref phi
        return np.einsum("id,edc->eic", _DL, np.linalg.inv(self.jacobians()))

    def on_walls(self, pts) -> np.ndarray:
        """Mask of the points ``pts`` (m, 3) that lie on a face of the box."""
        tol = 1e-12 * max(self.box)
        box = np.array(self.box)
        return np.any((np.abs(pts) <= tol) | (np.abs(pts - box) <= tol), axis=1)

    def boundary_vertex_mask(self) -> np.ndarray:
        return self.on_walls(self.vertices)

    def face_counts(self):
        """(n_interior, n_boundary, max_share) over triangular faces."""
        faces = {}
        local_faces = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
        for tet in self.tets:
            for lf in local_faces:
                key = tuple(sorted(int(tet[i]) for i in lf))
                faces[key] = faces.get(key, 0) + 1
        counts = np.array(list(faces.values()))
        return (
            int(np.count_nonzero(counts == 2)),
            int(np.count_nonzero(counts == 1)),
            int(counts.max()),
        )


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


def build_mesh(nx: int, ny: int, nz: int, lx: float, ly: float, lz: float) -> BoxMesh:
    """Structured Kuhn-subdivided tetrahedral mesh of the box."""
    if min(nx, ny, nz) < 1:
        raise InvalidDimensions("division counts must be >= 1")
    if min(lx, ly, lz) <= 0:
        raise InvalidDimensions("edge lengths must be positive")

    vertices = lattice_points([np.linspace(0.0, length, n + 1)
                               for n, length in zip((nx, ny, nz), (lx, ly, lz))])

    def vid(i, j, k):
        return (i * (ny + 1) + j) * (nz + 1) + k

    base = lattice_points([np.arange(nx), np.arange(ny), np.arange(nz)])  # (ncell, 3)
    # corners[c, t, v] = vertex id of vertex v of Kuhn tet t in cell c
    corner_idx = base[:, None, None, :] + _KUHN_CORNERS[None, :, :, :]
    tets = vid(corner_idx[..., 0], corner_idx[..., 1], corner_idx[..., 2])
    tets = tets.reshape(-1, 4).astype(np.int64)

    pairs = tets[:, LOCAL_EDGES]  # (nt, 6, 2)
    pairs = np.sort(pairs, axis=-1).reshape(-1, 2)
    edges, inverse = np.unique(pairs, axis=0, return_inverse=True)
    tet_edges = inverse.reshape(-1, 6).astype(np.int64)

    return BoxMesh(nx, ny, nz, float(lx), float(ly), float(lz),
                   vertices, tets, edges, tet_edges)


@dataclass
class TaylorHoodSpace:
    """Quadratic velocity / linear pressure pair with zero-velocity walls."""

    mesh: BoxMesh
    scalar_nodes: np.ndarray = field(init=False)   # (n_scalar, 3) coordinates
    tet_nodes: np.ndarray = field(init=False)      # (nt, 10) scalar node ids
    dirichlet_scalar: np.ndarray = field(init=False)
    dirichlet_mask: np.ndarray = field(init=False)  # (n_vel,) bool
    _geometries: dict = field(init=False, default_factory=dict,
                              repr=False, compare=False)

    def __post_init__(self):
        mesh = self.mesh
        midpoints = 0.5 * (
            mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]]
        )
        self.scalar_nodes = np.vstack([mesh.vertices, midpoints])
        self.tet_nodes = np.hstack(
            [mesh.tets, mesh.n_vertices + mesh.tet_edges]
        ).astype(np.int64)

        self.dirichlet_scalar = mesh.on_walls(self.scalar_nodes)
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


@lru_cache(maxsize=8)
def quad_tet(n: int):
    """Conical product rule on the reference tetrahedron.

    Returns (points (m, 3), weights (m,)); weights sum to 1/6 and the rule
    is exact for polynomials of total degree <= 2n - 1.
    """
    xu, wu = roots_jacobi(n, 2.0, 0.0)
    xv, wv = roots_jacobi(n, 1.0, 0.0)
    xw, ww = roots_legendre(n)
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
    """Per-element geometric tables shared by assembly and error integration.

    The tables are read-only: ``TaylorHoodSpace.geometry`` hands one instance
    to every caller.  Neither the mesh nor the space is kept, so a space that
    caches its geometries forms no reference cycle.
    """

    def __init__(self, mesh: BoxMesh, space: TaylorHoodSpace, quad_n: int = 3):
        self.quad_n = quad_n
        ref_pts, ref_wts = quad_tet(quad_n)
        self.ref_pts = ref_pts
        self.ref_wts = ref_wts
        self.n2_vals, n2_grads = p2_basis(ref_pts)
        self.p1_vals = p1_basis(ref_pts)

        jac = mesh.jacobians()
        self.detj = np.linalg.det(jac)
        self.p1_grads = mesh.p1_gradients()
        # physical gradients grad_x phi = Jinv^T grad_ref phi, where the rows
        # of Jinv are the gradients of barycentric coordinates 1-3
        self.grads = np.einsum("qid,edc->eqic", n2_grads, self.p1_grads[:, 1:])
        # physical quadrature points and weights
        origin = mesh.vertices[mesh.tets[:, 0]]
        self.points = origin[:, None, :] + np.einsum("qd,ecd->eqc", ref_pts, jac)
        self.wdet = ref_wts[None, :] * np.abs(self.detj)[:, None]
        for table in vars(self).values():
            if isinstance(table, np.ndarray):
                table.setflags(write=False)

    @property
    def flat_points(self) -> np.ndarray:
        return self.points.reshape(-1, 3)

    def integrate(self, values: np.ndarray) -> float:
        """Integrate per-quadrature-point sample values (ne, nq)."""
        return float(np.sum(self.wdet * values))
