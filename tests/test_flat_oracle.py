"""Oracle: the flat cut-quadrature table against the per-element path.

The functions prefixed ``old_`` are the per-element background mesh,
active selection, exact cut, cut topology, assembly and Fourier
coupling that the vectorized code replaced.  They live here only as a
reference.  The active set, the dof numbering, the element table and
the cut (arc ends, node offsets, dropped contacts and the surface nodes
built from them) must match exactly, the per-element surface quadrature
arrays to 1e-14 and the matrices to 1e-13 relative (largest entry
difference over largest entry).  A RuntimeWarning fails every test here:
a successful run leaves stderr empty.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tracefem.assembly import assemble, assemble_fourier
from tracefem.cutquad import (build_topology, cut_triangles,
                              oscillation_order, surface_rule)
from tracefem.errors import EmptyIntersection
from tracefem.geometry import LevelSetSurface
from tracefem.mesh import (_cuts_circle, barycentric, build_background,
                           p1_gradients, select_active)

from conftest import LADDER
from test_uniformity import PLACEMENTS

pytestmark = pytest.mark.filterwarnings("error")

BBOX = (-1.5, 1.5)
N_SMALL = 24                 # h = 1/8 for the drawn placements
H_SMALL = (BBOX[1] - BBOX[0]) / N_SMALL
K_SMALL = 16
TWO_PI = 2.0 * np.pi


# -- the per-element reference implementation --------------------------------

def old_background(bbox, n):
    lo, hi = bbox
    h = (hi - lo) / n
    xs = lo + h * np.arange(n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])
    tris = []
    for i in range(n):
        for j in range(n):
            v00, v10 = i * (n + 1) + j, (i + 1) * (n + 1) + j
            v01, v11 = v00 + 1, v10 + 1
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return vertices, np.array(tris, dtype=np.int64)


def _old_barycentric(tri, p):
    a, b, c = tri
    det = (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])
    l1 = ((b[0] - p[0]) * (c[1] - p[1]) - (c[0] - p[0]) * (b[1] - p[1])) / det
    l2 = ((c[0] - p[0]) * (a[1] - p[1]) - (a[0] - p[0]) * (c[1] - p[1])) / det
    return np.array([l1, l2, 1.0 - l1 - l2])


def _old_point_segment_distance(p, a, b):
    d = b - a
    t = np.clip(np.dot(p - a, d) / np.dot(d, d), 0.0, 1.0)
    return float(np.hypot(*(a + t * d - p)))


def _old_circle_cuts_triangle(tri, center, radius):
    dmax = max(float(np.hypot(*(v - center))) for v in tri)
    if _old_barycentric(tri, center).min() >= 0.0:
        dmin = 0.0
    else:
        dmin = min(_old_point_segment_distance(center, tri[k], tri[(k + 1) % 3])
                   for k in range(3))
    return dmin <= radius <= dmax


def old_select_active(vertices, triangles, center, radius):
    active = [e for e, tri in enumerate(triangles)
              if _old_circle_cuts_triangle(vertices[tri], center, radius)]
    dof_of_vertex = {}
    for e in active:
        for v in triangles[e]:
            if v not in dof_of_vertex:
                dof_of_vertex[int(v)] = len(dof_of_vertex)
    dofs = np.empty(len(dof_of_vertex), dtype=np.int64)
    for v, d in dof_of_vertex.items():
        dofs[d] = v
    elements = np.array([[dof_of_vertex[int(v)] for v in triangles[e]]
                         for e in active], dtype=np.int64)
    h_t = np.array([max(np.hypot(*(p[k] - p[(k + 1) % 3])) for k in range(3))
                    for p in (vertices[triangles[e]] for e in active)])
    return np.asarray(active, dtype=np.int64), dofs, elements, h_t


def old_edge_circle_angles(p0, p1, center, radius):
    """Angles (about the center) where segment p0-p1 meets the circle,
    and whether a grazing (tangential) contact was dropped."""
    d = p1 - p0
    e = p0 - center
    a = float(d @ d)
    b = 2.0 * float(d @ e)
    c = float(e @ e) - radius * radius
    disc = b * b - 4.0 * a * c
    if 0.0 <= disc < 1e-14 * max(1.0, b * b):
        return [], True
    if disc <= 0.0:
        return [], False
    sq = np.sqrt(disc)
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


def old_cut_element(tri, center, radius):
    """The arcs of the circle inside one closed triangle, as a list of
    (th0, th1), and the number of its edges whose grazing contact was
    dropped."""
    tri = np.asarray(tri, dtype=float)
    center = np.asarray(center, dtype=float)
    angles, dropped = [], 0
    for k in range(3):
        hits, grazed = old_edge_circle_angles(tri[k], tri[(k + 1) % 3],
                                              center, radius)
        angles.extend(hits)
        dropped += grazed
    if not angles:
        probe = center + np.array([radius, 0.0])
        if _old_barycentric(tri, probe).min() >= 0.0:
            return [(0.0, TWO_PI)], dropped
        return [], dropped
    angles = np.sort(np.mod(np.asarray(angles), TWO_PI))
    keep = [angles[0]]
    for th in angles[1:]:
        if th - keep[-1] > 1e-12:
            keep.append(th)
    if len(keep) > 1 and (keep[0] + TWO_PI) - keep[-1] <= 1e-12:
        keep.pop()
    arcs = []
    for i, th0 in enumerate(keep):
        th1 = keep[i + 1] if i + 1 < len(keep) else keep[0] + TWO_PI
        if th1 - th0 < 1e-12:
            continue
        mid = 0.5 * (th0 + th1)
        p = center + radius * np.array([np.cos(mid), np.sin(mid)])
        if _old_barycentric(tri, p).min() >= -1e-12:
            arcs.append((float(th0), float(th1)))
    return arcs, dropped


def check_cut_exactly(surface, mesh, topo):
    """The batched cut in topo equals old_cut_element on every element,
    and so do the surface nodes, weights and P1 values built from it."""
    center, radius, q = surface.center, surface.radius, topo.q_surf
    tri = mesh.coords[mesh.elements]
    cuts = [old_cut_element(t, center, radius) for t in tri]
    ends = np.reshape([arc for arcs, _ in cuts for arc in arcs], (-1, 2))
    per_element = np.array([len(arcs) for arcs, _ in cuts], dtype=np.int64)
    assert np.array_equal(topo.arc_ends, ends)
    assert np.array_equal(topo.elem_ptr,
                          np.concatenate([[0], np.cumsum(q * per_element)]))
    assert topo.dropped_contacts == sum(dropped for _, dropped in cuts)
    pts, w, _, theta = surface_rule(center, radius, ends, q)
    elem = np.repeat(np.arange(len(tri)), q * per_element)
    assert np.array_equal(topo.w, w)
    assert np.array_equal(topo.theta, theta)
    assert np.array_equal(topo.bary, barycentric(tri[elem], pts))
    for t, (arcs, _) in zip(tri, cuts):
        one = cut_triangles(t[None], center, radius)[0]
        assert np.array_equal(one, np.reshape(arcs, (-1, 2)))


_VOL_W = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)
_VOL_BARY = np.array([
    [0.108103018168070, 0.445948490915965, 0.445948490915965],
    [0.445948490915965, 0.108103018168070, 0.445948490915965],
    [0.445948490915965, 0.445948490915965, 0.108103018168070],
    [0.816847572980459, 0.091576213509771, 0.091576213509771],
    [0.091576213509771, 0.816847572980459, 0.091576213509771],
    [0.091576213509771, 0.091576213509771, 0.816847572980459],
])


def old_topology(center, radius, coords, elements, q):
    """Per-element lists: arcs, pts, w, normal, theta, bary, v_w, v_normal."""
    gx, gw = np.polynomial.legendre.leggauss(q)
    out = {k: [] for k in ("arcs", "pts", "w", "normal", "theta", "bary",
                           "v_w", "v_normal")}
    for dd in elements:
        tri = coords[dd]
        arcs = old_cut_element(tri, center, radius)[0]
        theta = np.concatenate(
            [0.5 * (b - a) * gx + 0.5 * (a + b) for a, b in arcs] or [[]])
        w = np.concatenate(
            [0.5 * (b - a) * gw * radius for a, b in arcs] or [[]])
        normal = np.column_stack([np.cos(theta), np.sin(theta)])
        pts = center + radius * normal
        area = 0.5 * abs((tri[1, 0] - tri[0, 0]) * (tri[2, 1] - tri[0, 1])
                         - (tri[2, 0] - tri[0, 0]) * (tri[1, 1] - tri[0, 1]))
        d = _VOL_BARY @ tri - center
        for key, val in (("arcs", arcs), ("pts", pts), ("w", w),
                         ("normal", normal), ("theta", theta),
                         ("bary", np.array([_old_barycentric(tri, p) for p in pts])
                          .reshape(-1, 3)),
                         ("v_w", _VOL_W * area),
                         ("v_normal", d / np.hypot(d[:, 0], d[:, 1])[:, None])):
            out[key].append(val)
    return out


def _old_p1_gradients(tri):
    a, b, c = tri
    det = (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])
    return np.array([[b[1] - c[1], c[0] - b[0]],
                     [c[1] - a[1], a[0] - c[0]],
                     [a[1] - b[1], b[0] - a[0]]]) / det


def old_assemble(coords, elements, h_t, topo):
    n, ne = len(coords), len(elements)
    vals = {k: np.zeros((ne, 9)) for k in ("M", "A", "S-1", "S0", "S1", "D")}
    for e, dd in enumerate(elements):
        grad = _old_p1_gradients(coords[dd])
        bary, w, nrm = topo["bary"][e], topo["w"][e], topo["normal"][e]
        m_loc = (bary * w[:, None]).T @ bary
        gn = nrm @ grad.T
        gt = grad[None, :, :] - gn[:, :, None] * nrm[:, None, :]
        a_loc = np.einsum("q,qid,qjd->ij", w, gt, gt)
        dn = topo["v_normal"][e] @ grad.T
        s_loc = (dn * topo["v_w"][e][:, None]).T @ dn
        vals["M"][e] = m_loc.ravel()
        vals["A"][e] = a_loc.ravel()
        for j in (-1, 0, 1):
            vals["S%d" % j][e] = (h_t[e] ** (1 - 2 * j)) * s_loc.ravel()
        vals["D"][e] = (h_t[e] ** 2 * (m_loc + h_t[e] * s_loc)).ravel()
    rows = np.repeat(elements, 3, axis=1).ravel()
    cols = np.tile(elements, (1, 3)).ravel()
    return {k: sp.coo_matrix((v.ravel(), (rows, cols)), shape=(n, n)).tocsr()
            for k, v in vals.items()}


def old_coupling(elements, n_dofs, topo, probe):
    g = np.zeros((n_dofs, probe.n_modes))
    for e, dd in enumerate(elements):
        if len(topo["theta"][e]):
            basis = probe.eval_basis(topo["theta"][e])
            g[dd] += (topo["bary"][e] * topo["w"][e][:, None]).T @ basis
    return g


# -- comparison ---------------------------------------------------------------

def _rel(new, old):
    new = new.toarray() if sp.issparse(new) else np.asarray(new)
    old = old.toarray() if sp.issparse(old) else np.asarray(old)
    assert new.shape == old.shape
    return np.abs(new - old).max() / max(np.abs(old).max(), 1e-300)


def check_against_oracle(surface, bbox, n_cells, k_max, new=None):
    """Build (or take) the flat pipeline and compare it with old_*."""
    center, radius = surface.center, surface.radius
    if new is None:
        bg = build_background(bbox, n_cells)
        mesh = select_active(bg, surface)
        topo = build_topology(surface, mesh,
                              q_surf=oscillation_order(k_max, mesh.h, radius))
        system = assemble(mesh, topo)
        probe = assemble_fourier(topo, k_max)
    else:
        bg, mesh, topo, system, probe = new
    vertices, triangles = old_background(bbox, n_cells)
    assert np.array_equal(bg.coords(np.arange(len(vertices))), vertices)
    assert np.array_equal(bg.cell_triangles(np.arange(n_cells ** 2)),
                          triangles)
    assert np.array_equal(bg.triangles, triangles)

    active, dofs, elements, h_t = old_select_active(vertices, triangles,
                                                    center, radius)
    assert np.array_equal(mesh.active, active)
    assert np.array_equal(mesh.dofs, dofs)
    assert np.array_equal(mesh.elements, elements)
    assert np.array_equal(mesh.h_T, h_t)

    check_cut_exactly(surface, mesh, topo)
    old = old_topology(center, radius, mesh.coords, elements, topo.q_surf)
    for key in ("pts", "w", "normal", "theta", "bary"):
        assert _rel(getattr(topo, key), np.concatenate(old[key])) <= 1e-14, key
    assert _rel(topo.v_w, np.array(old["v_w"])) <= 1e-14
    assert _rel(topo.v_normal, np.array(old["v_normal"])) <= 1e-14

    mats = old_assemble(mesh.coords, elements, h_t, old)
    for key, mat in (("M", system.M), ("A", system.A), ("S-1", system.S[-1]),
                     ("S0", system.S[0]), ("S1", system.S[1]), ("D", system.D)):
        assert _rel(mat, mats[key]) <= 1e-13, key
    g = old_coupling(elements, mesh.n_dofs, old, probe)
    assert _rel(probe.G, g) <= 1e-13


# -- the ladder ---------------------------------------------------------------

@pytest.mark.parametrize("n", [48, 96, 192])
def test_ladder_matches_oracle(ladder, n):
    s = ladder[n]
    check_against_oracle(s.surface, BBOX, n, s.ops.probe.k_max,
                         new=(s.background, s.mesh, s.topology, s.system,
                              s.ops.probe))


# -- hard placements -----------------------------------------------------------

HARD = {
    # a circle through the grid vertex (1, 0.5) of the n=48 mesh
    "off_centre_vertex": ((0.2, -0.1), float(np.hypot(0.8, 0.6)), 48),
    # tangent to the grid lines y = 1 and x = 1 of the n=48 mesh
    "grazing_horizontal": ((0.03, 0.0), 1.0, 48),
    "grazing_vertical": ((0.0, -0.02), 1.0, 48),
    # wholly inside the triangle (0, 0), (1/16, 0), (1/16, 1/16)
    "inside_one_triangle": ((0.03, 0.01), 0.005, 48),
    # h_T = sqrt2 h passes c_res R with c_res = 0.5 from R = 2 sqrt2 h
    "resolution_limit": ((0.011, -0.017), 2.85 * 3.0 / 48, 48),
}


def _check_cut(center, radius, n):
    surface = LevelSetSurface.circle(center, radius)
    mesh = select_active(build_background(BBOX, n), surface)
    check_cut_exactly(surface, mesh, build_topology(surface, mesh))


@pytest.mark.parametrize("n", LADDER)
@pytest.mark.parametrize("placement", sorted(PLACEMENTS))
def test_uniformity_placements_cut_exactly(placement, n):
    center, radius = PLACEMENTS[placement]
    if center is None:
        center = ((BBOX[1] - BBOX[0]) / n / 2,) * 2
    _check_cut(center, radius, n)


@pytest.mark.parametrize("placement", sorted(HARD))
def test_hard_placements_cut_exactly(placement):
    _check_cut(*HARD[placement])


def test_grazing_placements_drop_contacts():
    # the tangential contacts are left out and counted, not lost
    for name in ("grazing_horizontal", "grazing_vertical"):
        center, radius, n = HARD[name]
        surface = LevelSetSurface.circle(center, radius)
        mesh = select_active(build_background(BBOX, n), surface)
        assert build_topology(surface, mesh).dropped_contacts > 0, name


def test_inside_one_triangle_is_one_full_arc():
    center, radius, n = HARD["inside_one_triangle"]
    surface = LevelSetSurface.circle(center, radius)
    topo = build_topology(surface, select_active(build_background(BBOX, n),
                                                 surface))
    assert topo.arc_ends.tolist() == [[0.0, TWO_PI]]


# -- the band against the full table -------------------------------------------

def full_table_mesh(bbox, n, center, radius):
    """(active, dofs, elements, coords, h_T, grad) from the whole table of
    old_background: the exact predicate on every triangle, no band, and
    the dofs numbered in order of first appearance."""
    vertices, triangles = old_background(bbox, n)
    pts = vertices[triangles]
    active = np.flatnonzero(_cuts_circle(pts, np.asarray(center), radius))
    if not len(active):
        raise EmptyIntersection("no background element intersects the surface")
    dof_of = {}
    for v in triangles[active].ravel():
        dof_of.setdefault(int(v), len(dof_of))
    dofs = np.array(list(dof_of), dtype=np.int64)
    elements = np.array([[dof_of[int(v)] for v in tri]
                         for tri in triangles[active]], dtype=np.int64)
    pts = pts[active]
    edge = pts - np.roll(pts, -1, axis=1)
    h_t = np.hypot(edge[..., 0], edge[..., 1]).max(axis=1)
    return active, dofs, elements, vertices[dofs], h_t, p1_gradients(pts)


# the circle touches the bbox where its centre sits at +-(hi - R)
EDGE_PLACEMENTS = [(n, (0.0, 0.0), 1.0) for n in (1, 7, 193)] + [
    (7, (0.13, -0.07), 0.8), (193, (0.13, -0.07), 0.8)] + [
    (n, c, 1.0) for n in (7, 48, 193)
    for c in ((0.5, 0.5), (-0.5, -0.5), (0.5, -0.5), (-0.5, 0.0))]


@pytest.mark.parametrize("n, center, radius", EDGE_PLACEMENTS)
def test_band_matches_full_table(n, center, radius):
    mesh = select_active(build_background(BBOX, n),
                         LevelSetSurface.circle(center, radius))
    want = full_table_mesh(BBOX, n, center, radius)
    got = (mesh.active, mesh.dofs, mesh.elements, mesh.coords, mesh.h_T,
           mesh.grad)
    for name, a, b in zip(("active", "dofs", "elements", "coords", "h_T",
                           "grad"), got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_overflowing_coordinates_fail_alike():
    # at +-1e160 the predicate's products overflow: the full table finds
    # no cut triangle either, so the band route fails the same way
    bbox, center, radius = (-1e160, 1e160), (0.0, 0.0), 1e159
    surface = LevelSetSurface.circle(center, radius)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EmptyIntersection):
            full_table_mesh(bbox, 64, center, radius)
        with pytest.raises(EmptyIntersection):
            select_active(build_background(bbox, 64), surface)


# -- drawn placements ----------------------------------------------------------

_offset = st.floats(-0.3, 0.3)
_radius = st.floats(0.4, 1.0)
_grid = BBOX[0] + H_SMALL * np.arange(N_SMALL + 1)


def _check(center, radius):
    assume(abs(center[0]) + radius < 1.45 and abs(center[1]) + radius < 1.45)
    check_against_oracle(LevelSetSurface.circle(center, radius), BBOX,
                         N_SMALL, K_SMALL)


@settings(max_examples=15)
@given(_offset, _offset, _radius)
def test_offcenter_circles(cx, cy, radius):
    _check((cx, cy), radius)


@settings(max_examples=15)
@given(_offset, _offset, st.integers(0, N_SMALL), st.integers(0, N_SMALL))
def test_radius_through_vertex(cx, cy, i, j):
    center = np.array([cx, cy])
    radius = float(np.hypot(*(np.array([_grid[i], _grid[j]]) - center)))
    assume(0.4 <= radius <= 1.1)
    _check(center, radius)


@settings(max_examples=20)
@given(st.sampled_from(["horizontal", "vertical", "diagonal"]),
       st.integers(-6, 6), st.sampled_from([-1.0, 1.0]), _offset, _radius)
def test_grazing_edges(kind, line, side, along, radius):
    # circle tangent to a grid line (or NE diagonal) at distance exactly R
    # up to rounding
    pos = line * H_SMALL
    if kind == "horizontal":
        center = (along, pos + side * radius)
    elif kind == "vertical":
        center = (pos + side * radius, along)
    else:                   # diagonals are the lines x - y = m h
        center = (along + pos + side * radius * np.sqrt(2.0), along)
    _check(center, radius)


@settings(max_examples=10)
@given(_offset, _offset, st.floats(2.6, 3.1))
def test_radius_near_resolution_limit(cx, cy, cells):
    # h_T = sqrt2 h passes c_res R with c_res = 0.5 from R = 2 sqrt2 h
    _check((cx, cy), cells * H_SMALL)
