"""Legacy ASCII VTK output of discrete solutions.

Writes an unstructured grid of quadratic tetrahedra over the full quadratic
nodal set (vertices plus edge midpoints), in the space's node order.
Velocity is a point vector array; the vertex-based pressure is extended to
midpoints by averaging the edge endpoints, element by element through
``P2_NODES``; the per-cell positivity samples go out as cell data.
"""

from __future__ import annotations

import numpy as np

from .fem import P2_NODES

__all__ = ["write_vtk"]

# quadratic-tet midside order expected by VTK: (0,1),(1,2),(0,2),(0,3),(1,3),(2,3);
# local storage order is (0,1),(0,2),(0,3),(1,2),(1,3),(2,3)
_VTK_NODE_ORDER = [0, 1, 2, 3, 4 + 0, 4 + 3, 4 + 1, 4 + 2, 4 + 4, 4 + 5]


# Rows are %-formatted and written 1,024 at a time.  Measured on the mesh-8
# solve: a whole section per write raised the run's peak RSS by 0.9 MB and
# 1,024 rows by 0.4 MB, at the same speed (13-21 ms against 41-46 ms with a
# write per row); at mesh 32, 65,536 rows raised it by 20 MB.
_ROWS_PER_WRITE = 1 << 10


def _write_rows(fh, fmt: str, rows: np.ndarray) -> None:
    """Write ``fmt % row`` for each row of the 2-D ``rows``, in joined batches."""
    for lo in range(0, rows.shape[0], _ROWS_PER_WRITE):
        batch = rows[lo:lo + _ROWS_PER_WRITE]
        fh.write((fmt * batch.shape[0]) % tuple(batch.ravel().tolist()))


def write_vtk(path, space, velocity: np.ndarray, pressure: np.ndarray,
              alpha_cells=None) -> None:
    pts = space.scalar_nodes
    n_pts = pts.shape[0]
    vel = np.asarray(velocity, dtype=float).reshape(n_pts, 3)

    # local node (a, b) of an element holds the mean of its vertices a and b
    p_vertices, p_nodes = pressure[space.mesh.tets], np.empty(n_pts)
    for node, (a, b) in enumerate(P2_NODES):
        p_nodes[space.tet_nodes[:, node]] = 0.5 * (p_vertices[:, a] + p_vertices[:, b])

    cells = space.tet_nodes[:, _VTK_NODE_ORDER]
    nt = cells.shape[0]
    vector = "%.12g %.12g %.12g\n"

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# vtk DataFile Version 3.0\ngenstokes solution\nASCII\n"
                 "DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {n_pts} double\n")
        _write_rows(fh, vector, pts)
        fh.write(f"CELLS {nt} {nt * 11}\n")
        _write_rows(fh, "10" + " %d" * 10 + "\n", cells)
        fh.write(f"CELL_TYPES {nt}\n")
        fh.write("24\n" * nt)
        if alpha_cells is not None:
            fh.write(f"CELL_DATA {nt}\n")
            fh.write("SCALARS alpha double 1\nLOOKUP_TABLE default\n")
            _write_rows(fh, "%.12g\n", np.asarray(alpha_cells, dtype=float)[:, None])
        fh.write(f"POINT_DATA {n_pts}\n")
        fh.write("VECTORS velocity double\n")
        _write_rows(fh, vector, vel)
        fh.write("SCALARS pressure double 1\nLOOKUP_TABLE default\n")
        _write_rows(fh, "%.12g\n", p_nodes[:, None])
