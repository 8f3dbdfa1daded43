"""Quadrature on the circle arcs cut by triangles.

Each active triangle intersects the circle in a union of arcs.  The arc
endpoints come from per-edge quadratics (solved with the stabilized
b-sign discriminant trick).  Every span between an element's sorted
angles, the last one closing on the first plus 2 pi, is a candidate arc,
kept if it is no sliver and its midpoint lies in the triangle; an element
that no edge crosses but that holds the circle takes the single angle 0,
so its span is [0, 2 pi].  The cut runs on all active triangles at once,
with no loop, in the frame of the cut (``LevelSetSurface.frame``), so its
tolerances are dimensionless.  Surface quadrature is Gauss-Legendre in
the angle, for all arcs at once, into one flat node table of angles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularElement
from .mesh import barycentric, twice_area

TWO_PI = 2.0 * np.pi

_MIN_ARC = 1e-12          # arcs narrower than this are measure-zero noise
_GRAZE = 1e-14            # discriminant band treated as tangential contact


def cut_triangles(xi, rho):
    """Arcs of the circle |x| = rho in each closed triangle of xi (n, 3, 2).

    Returns the arcs as rows (theta0, theta1), theta1 > theta0, element
    by element and in increasing angle within an element (an arc
    crossing the branch cut ends beyond 2 pi), the owning element of
    each arc, and the number of element edges whose grazing contact
    with the circle was dropped.
    """
    # edge k runs from vertex k to vertex k + 1: arrays (n, 3)
    d = xi[:, [1, 2, 0]] - xi
    a = np.vecdot(d, d)
    b = 2.0 * np.vecdot(d, xi)
    c = np.vecdot(xi, xi) - rho * rho
    disc = b * b - 4.0 * a * c
    grazed = (disc >= 0.0) & (disc < _GRAZE * np.maximum(1.0, b * b))
    crosses = (disc > 0.0) & ~grazed
    sq = np.sqrt(np.where(crosses, disc, 0.0))
    # Stabilized roots: q = -(b + sign(b) sqrt(disc)) / 2 avoids cancellation.
    q = np.where(b != 0.0, -0.5 * (b + np.copysign(sq, b)), 0.5 * sq)
    second = crosses & (q != 0.0)
    t = np.stack([q / a, c / np.where(second, q, 1.0)], axis=-1)
    hit = np.stack([crosses, second], axis=-1) \
        & (t >= -1e-12) & (t <= 1.0 + 1e-12)
    x = xi[:, :, None] + np.clip(t, 0.0, 1.0)[..., None] * d[:, :, None]
    angles = np.mod(np.arctan2(x[..., 1], x[..., 0]), TWO_PI).reshape(-1, 6)
    hit = hit.reshape(-1, 6)

    # An element no edge crosses holds the whole circle or none of it: all
    # of it if it holds both the centre and the point (rho, 0) of the
    # circle, and then it takes the single angle 0.
    none = np.flatnonzero(~hit.any(axis=1))
    probe = np.array([[0.0, 0.0], [rho, 0.0]])
    full = none[barycentric(xi[none, None], probe).min(axis=(1, 2)) >= 0.0]
    angles[full, 0] = 0.0
    hit[full, 0] = True

    # Sort each element's angles (misses last, as +inf).  Candidate arcs
    # run from each angle to the next, the last one to the first plus
    # 2 pi; keep those wide enough whose midpoint is inside.  The sliver
    # between the two angles of a vertex, hit from two edges, is too narrow.
    some = np.flatnonzero(hit.any(axis=1))
    ang = np.sort(np.where(hit[some], angles[some], np.inf), axis=1)
    finite = np.isfinite(ang)
    th0 = ang[finite]
    count = finite.sum(axis=1)
    owner = np.repeat(some, count)
    th1 = np.empty_like(th0)
    th1[:-1] = th0[1:]
    closes = np.cumsum(count) - 1
    th1[closes] = ang[:, 0] + TWO_PI
    mid = 0.5 * (th0 + th1)
    p = rho * np.stack([np.cos(mid), np.sin(mid)], axis=-1)
    inside = (th1 - th0 >= _MIN_ARC) \
        & (barycentric(xi[owner], p).min(axis=-1) >= -1e-12)
    ends = np.column_stack([th0, th1])[inside]
    return ends, owner[inside], int(grazed.sum())


def surface_rule(radius, arcs, q):
    """Gauss-Legendre nodes on a stack of arcs (m, 2), q per arc in order.

    Weights carry the factor R.  Returns weights and angles, each with
    m * q rows.
    """
    th0, th1 = np.reshape(np.asarray(arcs, dtype=float), (-1, 2)).T
    gx, gw = np.polynomial.legendre.leggauss(q)
    half = 0.5 * (th1 - th0)[:, None]
    theta = (half * gx + 0.5 * (th0 + th1)[:, None]).ravel()
    w = (half * gw * radius).ravel()
    return w, theta


@dataclass
class CutTopology:
    """Quadrature on the cut band as one flat table of surface nodes.

    The nodes of element e are rows elem_ptr[e]:elem_ptr[e+1] of every
    node array, in the order of the element's arcs.  A node is its angle
    theta, at c + R (cos theta, sin theta) with normal (cos theta, sin theta).
    """

    surface: object
    mesh: object
    q_surf: int
    arc_ends: np.ndarray      # (n_arcs, 2) all arcs, element by element
    elem_ptr: np.ndarray      # (n_active + 1,) node offsets per element
    elem: np.ndarray          # (N,) node -> element
    w: np.ndarray             # (N,) weights
    theta: np.ndarray         # (N,) angles about the center
    bary: np.ndarray          # (N, 3) P1 values in the host element
    total_length: float
    dropped_contacts: int     # grazing element-edge contacts left out

    @property
    def s_w(self):
        """Per-element weight arrays.

        Read only by the node-count hook of perfbench/tracer.py; the
        package itself works on the flat arrays.
        """
        return np.split(self.w, self.elem_ptr[1:-1])

    @property
    def arcs(self):
        """Per-element (k, 2) arrays of arc ends.

        Read only by the arc-count hook of perfbench/tracer.py; the
        package itself works on arc_ends.
        """
        return np.split(self.arc_ends, self.elem_ptr[1:-1] // self.q_surf)


def oscillation_order(k_max, h, radius, q_surf=10):
    """Gauss order needed to integrate modes up to k_max on O(h) arcs.

    The modes oscillate in the angle, and an arc of length h on a circle
    of radius R spans h / R radians, but never more than 2 pi, so the
    order grows with k_max min(h / R, 2 pi).
    """
    phase = min(k_max * h / radius, 2.0 * np.pi * k_max)
    return max(int(q_surf), int(np.ceil(phase)) + 4)


def build_topology(surface, active_mesh, q_surf=10):
    """Cut every active triangle and tabulate its surface rule."""
    q = int(q_surf)
    tri = active_mesh.coords[active_mesh.elements]         # (n_active, 3, 2)
    xi, rho, scale = surface.frame(tri, active_mesh.background.h_global)
    area = 0.5 * np.abs(twice_area(xi))
    huge = np.flatnonzero(area > float(np.finfo(float).max) / scale / scale)
    if len(huge):
        e = np.log10(area[huge[0]]) + 2.0 * np.log10(scale)
        raise SingularElement("active triangle %d has area %.2ge%+d, beyond "
                              "the double range"
                              % (huge[0], 10.0 ** (e % 1.0), e // 1.0))

    ends, owner, dropped = cut_triangles(xi, rho)
    w, theta = surface_rule(surface.radius, ends, q)
    elem = np.repeat(owner, q)
    counts = np.bincount(elem, minlength=len(tri))
    normals = np.column_stack([np.cos(theta), np.sin(theta)])
    return CutTopology(
        surface=surface, mesh=active_mesh, q_surf=q, arc_ends=ends,
        elem_ptr=np.concatenate([[0], np.cumsum(counts)]),
        elem=elem, w=w, theta=theta,
        bary=barycentric(xi[elem], rho * normals),
        total_length=float(w.sum()),
        dropped_contacts=dropped,
    )


def arc_cover_defect(topology):
    """Total gap/overlap of the arc intervals as a cover of [0, 2pi)."""
    ends = topology.arc_ends
    if not len(ends):
        return TWO_PI
    start = np.mod(ends[:, 0], TWO_PI)
    width = ends[:, 1] - ends[:, 0]
    order = np.lexsort((width, start))
    start, width = start[order], width[order]
    pos = np.concatenate([start[:1], start[:-1] + width[:-1]])
    return float(np.abs(start - pos).sum()
                 + abs(start[-1] + width[-1] - (start[0] + TWO_PI)))
