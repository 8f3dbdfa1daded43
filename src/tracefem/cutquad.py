"""Quadrature on circle arcs cut by triangles and on the triangles.

Each active triangle intersects the circle in a union of arcs.  The arc
endpoints come from per-edge quadratics (solved with the stabilized
b-sign discriminant trick); the intersection angles are sorted and the
angular intervals classified by a midpoint-in-triangle test; this is
the only per-element loop.  Surface quadrature is Gauss-Legendre in the
angle, generated for all arcs at once into one flat node table; volume
quadrature is a symmetric 6-point rule exact to total degree 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularElement
from .mesh import barycentric, twice_area

TWO_PI = 2.0 * np.pi

# Symmetric degree-4 triangle rule (6 points, positive weights that sum
# to 1 on the reference triangle).
_VOL_W = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)
_VOL_BARY = np.array([
    [0.108103018168070, 0.445948490915965, 0.445948490915965],
    [0.445948490915965, 0.108103018168070, 0.445948490915965],
    [0.445948490915965, 0.445948490915965, 0.108103018168070],
    [0.816847572980459, 0.091576213509771, 0.091576213509771],
    [0.091576213509771, 0.816847572980459, 0.091576213509771],
    [0.091576213509771, 0.091576213509771, 0.816847572980459],
])

_MIN_ARC = 1e-12          # arcs narrower than this are measure-zero noise
_GRAZE = 1e-14            # discriminant band treated as tangential contact


def _edge_circle_angles(p0, p1, center, radius):
    """Angles (about the center) where segment p0-p1 meets the circle,
    and whether a grazing (tangential) contact was dropped."""
    d = p1 - p0
    e = p0 - center
    a = float(d @ d)
    b = 2.0 * float(d @ e)
    c = float(e @ e) - radius * radius
    disc = b * b - 4.0 * a * c
    if 0.0 <= disc < _GRAZE * max(1.0, b * b):
        return [], True
    if disc <= 0.0:
        return [], False
    sq = np.sqrt(disc)
    # Stabilized roots: q = -(b + sign(b) sqrt(disc)) / 2 avoids cancellation.
    q = -0.5 * (b + np.copysign(sq, b)) if b != 0.0 else 0.5 * sq
    roots = [q / a]
    if q != 0.0:
        roots.append(c / q)
    angles = []
    for t in roots:
        if -1e-12 <= t <= 1.0 + 1e-12:
            x = p0 + min(max(t, 0.0), 1.0) * d
            angles.append(float(np.arctan2(x[1] - center[1], x[0] - center[0])))
    return angles, False


def intersect_element(tri, center, radius):
    """Arcs of the circle inside the closed triangle.

    Returns a list of (theta0, theta1) with theta1 > theta0; an arc
    crossing the branch cut is reported with theta1 > pi.
    """
    return _cut_element(tri, center, radius)[0]


def _cut_element(tri, center, radius):
    """The arcs of ``intersect_element`` and the number of the triangle's
    edges whose grazing contact with the circle was dropped."""
    tri = np.asarray(tri, dtype=float)
    center = np.asarray(center, dtype=float)
    angles, dropped = [], 0
    for k in range(3):
        hits, grazed = _edge_circle_angles(tri[k], tri[(k + 1) % 3],
                                           center, radius)
        angles.extend(hits)
        dropped += grazed
    if not angles:
        probe = center + np.array([radius, 0.0])
        if barycentric(tri, probe).min() >= 0.0:
            return [(0.0, TWO_PI)], dropped
        return [], dropped
    angles = np.sort(np.mod(np.asarray(angles), TWO_PI))
    # Merge duplicate angles (shared vertices report from two edges).
    keep = [angles[0]]
    for th in angles[1:]:
        if th - keep[-1] > _MIN_ARC:
            keep.append(th)
    if len(keep) > 1 and (keep[0] + TWO_PI) - keep[-1] <= _MIN_ARC:
        keep.pop()
    angles = np.asarray(keep)

    arcs = []
    for i, th0 in enumerate(angles):
        th1 = angles[i + 1] if i + 1 < len(angles) else angles[0] + TWO_PI
        if th1 - th0 < _MIN_ARC:
            continue
        mid = 0.5 * (th0 + th1)
        p = center + radius * np.array([np.cos(mid), np.sin(mid)])
        if barycentric(tri, p).min() >= -1e-12:
            arcs.append((float(th0), float(th1)))
    return arcs, dropped


def surface_rule(center, radius, arcs, q):
    """Gauss-Legendre nodes on a stack of arcs (m, 2), q per arc in order.

    Weights carry the factor R.  Returns points, weights, unit normals
    and angles, each with m * q rows.
    """
    th0, th1 = np.reshape(np.asarray(arcs, dtype=float), (-1, 2)).T
    gx, gw = np.polynomial.legendre.leggauss(q)
    half = 0.5 * (th1 - th0)[:, None]
    theta = (half * gx + 0.5 * (th0 + th1)[:, None]).ravel()
    w = (half * gw * radius).ravel()
    normals = np.column_stack([np.cos(theta), np.sin(theta)])
    pts = center + radius * normals
    return pts, w, normals, theta


def volume_rule(tri):
    """Symmetric 6-point rule on triangles (..., 3, 2), exact to degree 4.

    Returns points (..., 6, 2) and weights (..., 6).
    """
    tri = np.asarray(tri, dtype=float)
    area = 0.5 * np.abs(twice_area(tri))
    pts = _VOL_BARY @ tri
    return pts, _VOL_W * area[..., None]


@dataclass
class CutTopology:
    """Quadrature on the cut band as one flat table of surface nodes.

    The nodes of element e are rows elem_ptr[e]:elem_ptr[e+1] of every
    node array, in the order of the element's arcs.  The volume rule is
    stored per element.
    """

    surface: object
    mesh: object
    q_surf: int
    arcs: list                # per element: list of (th0, th1)
    arc_ends: np.ndarray      # (n_arcs, 2) all arcs, element by element
    elem_ptr: np.ndarray      # (n_active + 1,) node offsets per element
    elem: np.ndarray          # (N,) node -> element
    pts: np.ndarray           # (N, 2) points on Gamma
    w: np.ndarray             # (N,) weights
    normal: np.ndarray        # (N, 2) unit normals
    theta: np.ndarray         # (N,) angles about the center
    bary: np.ndarray          # (N, 3) P1 values in the host element
    v_pts: np.ndarray         # (n_active, 6, 2) volume nodes
    v_w: np.ndarray           # (n_active, 6) volume weights
    v_normal: np.ndarray      # (n_active, 6, 2) extended normal at them
    total_length: float
    dropped_contacts: int     # grazing element-edge contacts left out

    @property
    def s_w(self):
        """Per-element weight arrays.

        Read only by the node-count hook of perfbench/tracer.py; the
        package itself works on the flat arrays.
        """
        return np.split(self.w, self.elem_ptr[1:-1])


def oscillation_order(k_max, h, q_surf=10):
    """Gauss order needed to integrate modes up to k_max on O(h) arcs."""
    return max(int(q_surf), int(np.ceil(k_max * h)) + 4)


def build_topology(surface, active_mesh, q_surf=10):
    """Cut every active triangle and tabulate its quadrature rules."""
    center, radius = surface.center, surface.radius
    q = int(q_surf)
    tri = active_mesh.coords[active_mesh.elements]         # (n_active, 3, 2)
    small = np.flatnonzero(0.5 * np.abs(twice_area(tri))
                           < 1e-14 * active_mesh.h_T ** 2)
    if len(small):
        raise SingularElement("active triangle %d has vanishing area" % small[0])

    # The exact cut is the one per-element step; everything after it is
    # stacked over all arcs.
    arcs, ends, owner, dropped = [], [], [], 0
    for e, t in enumerate(tri):
        cut, grazed = _cut_element(t, center, radius)
        arcs.append(cut)
        dropped += grazed
        ends.extend(cut)
        owner.extend([e] * len(cut))
    ends = np.reshape(np.asarray(ends, dtype=float), (-1, 2))
    pts, w, normals, theta = surface_rule(center, radius, ends, q)
    elem = np.repeat(np.asarray(owner, dtype=np.int64), q)
    counts = np.bincount(elem, minlength=len(tri))
    v_pts, v_w = volume_rule(tri)
    return CutTopology(
        surface=surface, mesh=active_mesh, q_surf=q, arcs=arcs,
        arc_ends=ends,
        elem_ptr=np.concatenate([[0], np.cumsum(counts)]),
        elem=elem, pts=pts, w=w, normal=normals, theta=theta,
        bary=barycentric(tri[elem], pts),
        v_pts=v_pts, v_w=v_w,
        v_normal=surface.unit_normal(v_pts),
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
