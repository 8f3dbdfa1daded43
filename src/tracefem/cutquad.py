"""Quadrature on circle arcs cut by triangles and on the triangles.

Each active triangle intersects the circle in a union of arcs.  The arc
endpoints come from per-edge quadratics (solved with the stabilized
b-sign discriminant trick); the intersection angles are sorted, merged
and the angular intervals classified by a midpoint-in-triangle test.
The cut works on all active triangles at once: the only loop runs over
the at most six angle columns of an element.  It runs in the frame of
the cut (``LevelSetSurface.frame``), so its tolerances are dimensionless.
Surface quadrature is Gauss-Legendre in the angle, generated for all
arcs at once into one flat node table; volume quadrature is a symmetric
6-point rule exact to total degree 4.
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
    crossed = hit.any(axis=1)

    # Sort each element's angles (misses last, as +inf) and merge
    # duplicates (shared vertices report from two edges) column by column.
    some = np.flatnonzero(crossed)
    ang = np.sort(np.where(hit[some], angles[some], np.inf), axis=1)
    keep = np.zeros(ang.shape, dtype=bool)
    keep[:, 0] = True
    last = ang[:, 0].copy()
    for j in range(1, ang.shape[1]):
        take = (ang[:, j] - last > _MIN_ARC) & np.isfinite(ang[:, j])
        keep[:, j] = take
        last[take] = ang[take, j]
    count = keep.sum(axis=1)
    # the last angle of an element wraps onto its first: drop the last
    wrap = (count > 1) & ((ang[:, 0] + TWO_PI) - last <= _MIN_ARC)
    keep[wrap, ang.shape[1] - 1 - np.argmax(keep[wrap, ::-1], axis=1)] = False
    count -= wrap

    # Candidate arcs run from each kept angle to the next, the last one
    # to the first plus 2 pi; keep those whose midpoint is inside.
    th0 = ang[keep]
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
    owner = owner[inside]

    # An element no edge crosses holds the whole circle or none of it: all
    # of it if it holds both the centre and the point (rho, 0) of the circle.
    none = np.flatnonzero(~crossed)
    probe = np.array([[0.0, 0.0], [rho, 0.0]])
    full = none[barycentric(xi[none, None], probe).min(axis=(1, 2)) >= 0.0]
    ends = np.concatenate([ends, np.tile([0.0, TWO_PI], (len(full), 1))])
    owner = np.concatenate([owner, full])
    order = np.argsort(owner, kind="stable")
    return ends[order], owner[order], int(grazed.sum())


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
    arc_ends: np.ndarray      # (n_arcs, 2) all arcs, element by element
    elem_ptr: np.ndarray      # (n_active + 1,) node offsets per element
    elem: np.ndarray          # (N,) node -> element
    pts: np.ndarray           # (N, 2) points on Gamma
    w: np.ndarray             # (N,) weights
    normal: np.ndarray        # (N, 2) unit normals
    theta: np.ndarray         # (N,) angles about the center
    bary: np.ndarray          # (N, 3) P1 values in the host element
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
    """Cut every active triangle and tabulate its quadrature rules."""
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
    pts, w, normals, theta = surface_rule(surface.center, surface.radius,
                                          ends, q)
    elem = np.repeat(owner, q)
    counts = np.bincount(elem, minlength=len(tri))
    v_pts, v_w = volume_rule(tri)
    return CutTopology(
        surface=surface, mesh=active_mesh, q_surf=q, arc_ends=ends,
        elem_ptr=np.concatenate([[0], np.cumsum(counts)]),
        elem=elem, pts=pts, w=w, normal=normals, theta=theta,
        bary=barycentric(xi[elem], rho * normals),
        v_w=v_w, v_normal=surface.unit_normal(v_pts),
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
