"""Structured background triangulation and active-element selection.

The background mesh partitions a square bbox into n_cells x n_cells
squares, each split into two triangles along its NE diagonal, given by
formula, so that the active mesh is built from a band of cells alone.
It keeps the triangles intersecting the circle (exact point-triangle
distance predicate, in the frame of the cut, where no tolerance has a
unit) and numbers the vertices they touch as the dofs of the continuous
P1 space.  The triangle helpers below broadcast over stacks of triangles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyIntersection, InvalidConfig


@dataclass
class BackgroundMesh:
    bbox: tuple
    n_cells: int
    h_global: float

    def coords(self, v):
        """Coordinates (..., 2) of the vertices v = i (n+1) + j."""
        i, j = np.divmod(v, self.n_cells + 1)
        lo, h = self.bbox[0], self.h_global
        return np.stack([lo + h * i, lo + h * j], axis=-1)

    def cell_triangles(self, cells):
        """Vertex indices (2 len(cells), 3) of the CCW triangles of the
        cells i n + j, in the order of build_background."""
        n = self.n_cells
        i, j = np.divmod(cells, n)
        v00 = i * (n + 1) + j
        v10, v01, v11 = v00 + n + 1, v00 + 1, v00 + n + 2
        return np.stack([v00, v10, v11, v00, v11, v01], axis=-1).reshape(-1, 3)

    @property
    def triangles(self):
        """The full (2 n_cells^2, 3) table, built on each read."""
        return self.cell_triangles(np.arange(self.n_cells ** 2))


@dataclass
class ActiveMesh:
    background: BackgroundMesh
    active: np.ndarray        # indices into background.triangles
    dofs: np.ndarray          # dof index -> global vertex index
    elements: np.ndarray      # (n_active, 3) dof indices
    coords: np.ndarray        # (n_dof, 2) dof coordinates
    h_T: np.ndarray           # per-active-element diameter (longest edge)
    grad: np.ndarray          # (n_active, 3, 2) P1 basis gradients

    @property
    def n_dofs(self):
        return len(self.dofs)

    @property
    def h(self):
        return float(self.h_T.max())


def twice_area(tri):
    """Signed doubled area of triangles tri (..., 3, 2); CCW is positive."""
    a, b, c = tri[..., 0, :], tri[..., 1, :], tri[..., 2, :]
    return (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1]) \
        - (c[..., 0] - a[..., 0]) * (b[..., 1] - a[..., 1])


def barycentric(tri, p):
    """Barycentric coordinates (..., 3) of points p (..., 2) in tri (..., 3, 2)."""
    a, b, c = tri[..., 0, :], tri[..., 1, :], tri[..., 2, :]
    det = twice_area(tri)
    l1 = ((b[..., 0] - p[..., 0]) * (c[..., 1] - p[..., 1])
          - (c[..., 0] - p[..., 0]) * (b[..., 1] - p[..., 1])) / det
    l2 = ((c[..., 0] - p[..., 0]) * (a[..., 1] - p[..., 1])
          - (a[..., 0] - p[..., 0]) * (c[..., 1] - p[..., 1])) / det
    return np.stack([l1, l2, 1.0 - l1 - l2], axis=-1)


def p1_gradients(tri):
    """Constant gradients (..., 3, 2) of the three barycentric functions."""
    e = np.roll(tri, -1, axis=-2) - np.roll(tri, 1, axis=-2)  # opposite edges
    g = np.stack([e[..., 1], -e[..., 0]], axis=-1)
    return g / twice_area(tri)[..., None, None]


def build_background(bbox, n_cells):
    """The uniform criss-cross mesh of the square bbox = (lo, hi).

    Each of the n_cells^2 grid squares is split into two triangles along
    its NE diagonal, giving 2 n_cells^2 congruent right triangles; the
    two triangles of cell (i, j) are 2 (i n_cells + j) and the next one.
    Nothing that grows with n_cells is allocated.
    """
    lo, hi = float(bbox[0]), float(bbox[1])
    if not 0 < hi - lo < np.inf:
        raise InvalidConfig("bbox must satisfy lo < hi, hi - lo finite")
    n = int(n_cells)
    if n < 1:
        raise InvalidConfig("n_cells must be positive")
    return BackgroundMesh(bbox=(lo, hi), n_cells=n, h_global=(hi - lo) / n)


def _cuts_circle(xi, rho):
    """Exact predicate min_{x in T} |x| <= rho <= max_{x in T} |x|.

    ``xi`` is a stack (m, 3, 2) in the frame of the cut.  The dot products
    go through np.vecdot, which rounds like np.dot on one pair of vectors,
    so ties on grazing edges and through vertices fall as in a test of
    one triangle.
    """
    dmax = np.hypot(xi[..., 0], xi[..., 1]).max(axis=1)
    inside = barycentric(xi, np.zeros(2)).min(axis=1) >= 0.0
    d = np.roll(xi, -1, axis=1) - xi              # edges k -> k+1
    t = np.clip(np.vecdot(-xi, d) / np.vecdot(d, d), 0.0, 1.0)
    foot = xi + t[..., None] * d
    dmin = np.where(inside, 0.0, np.hypot(foot[..., 0], foot[..., 1]).min(axis=1))
    return (dmin <= rho) & (rho <= dmax)


def select_active(background, surface):
    """Select the triangles intersecting Gamma and number their dofs.

    Only the grid cells whose centre lies within R +- sqrt2 h of the
    circle can hold a cut triangle (every point of a cell is within
    h / sqrt2 of its centre); only their triangles are built, and the
    exact predicate runs on them in the frame of the cut.  The cell-centre
    distances (8 B per cell) are the one array of n_cells^2 entries.  Dofs
    are numbered in order of first appearance.  A circle that leaves the
    closed bbox is an InvalidConfig, whether or not it cuts the mesh; one
    inside it cuts some element, and EmptyIntersection guards that.
    """
    center, radius = surface.center, surface.radius
    lo, hi = background.bbox
    if not (np.all(lo <= center - radius) and np.all(center + radius <= hi)):
        raise InvalidConfig("the circle of radius %g about (%g, %g) leaves "
                            "the bbox [%g, %g]" % (radius, *center, lo, hi))
    n, h = background.n_cells, background.h_global
    mid = lo + h * (np.arange(n) + 0.5)
    dist = np.hypot(mid[:, None] - center[0], mid[None, :] - center[1])
    dist -= radius
    cells = np.flatnonzero(np.abs(dist, out=dist) <= np.sqrt(2.0) * h)
    tris = background.cell_triangles(cells)
    pts = background.coords(tris)
    xi, rho, scale = surface.frame(pts, h)
    cut = _cuts_circle(xi, rho)
    active = (2 * cells[:, None] + np.arange(2)).ravel()[cut]
    if not len(active):
        raise EmptyIntersection("no background element intersects the surface")

    tris, pts, xi = tris[cut], pts[cut], xi[cut]
    uniq, first, inverse = np.unique(tris.ravel(), return_index=True,
                                     return_inverse=True)
    order = np.argsort(first)
    rank, dofs = np.argsort(order), uniq[order]

    edge = pts - np.roll(pts, -1, axis=1)
    return ActiveMesh(background=background, active=active, dofs=dofs,
                      elements=rank[inverse].reshape(-1, 3),
                      coords=background.coords(dofs),
                      h_T=np.hypot(edge[..., 0], edge[..., 1]).max(axis=1),
                      grad=p1_gradients(xi) / scale)


def write_vtk(active_mesh, path, values=None, time=None):
    """Write the active mesh as legacy-VTK ASCII.

    Cells carry h_T; ``values`` (one per dof) are written as the point
    field u_h, and ``time`` goes into the header line.
    """
    n, ne = active_mesh.n_dofs, len(active_mesh.elements)
    title = "active mesh" if time is None else "active mesh t=%.17g" % time
    with open(path, "w", newline="\n") as fh:
        fh.write("# vtk DataFile Version 3.0\n%s\nASCII\n"
                 "DATASET UNSTRUCTURED_GRID\nPOINTS %d double\n" % (title, n))
        np.savetxt(fh, active_mesh.coords, fmt="%.17g %.17g 0")
        fh.write("CELLS %d %d\n" % (ne, 4 * ne))
        np.savetxt(fh, active_mesh.elements, fmt="3 %d %d %d")
        fh.write("CELL_TYPES %d\n" % ne + "5\n" * ne)
        fh.write("CELL_DATA %d\nSCALARS h_T double 1\n"
                 "LOOKUP_TABLE default\n" % ne)
        np.savetxt(fh, active_mesh.h_T, fmt="%.17g")
        if values is not None:
            fh.write("POINT_DATA %d\nSCALARS u_h double 1\n"
                     "LOOKUP_TABLE default\n" % n)
            np.savetxt(fh, values, fmt="%.17g")
