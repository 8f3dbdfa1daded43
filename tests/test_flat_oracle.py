"""Oracle: the flat cut-quadrature table against the per-element path.

The functions prefixed ``old_`` are the per-element background mesh,
active selection, cut topology, assembly and Fourier coupling that the
vectorized code replaced.  They live here only as a reference.  The
active set, the dof numbering and the element table must match exactly,
the surface quadrature arrays to 1e-14 and the matrices to 1e-13
relative (largest entry difference over largest entry).
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tracefem.assembly import assemble, assemble_fourier
from tracefem.cutquad import build_topology, intersect_element, oscillation_order
from tracefem.geometry import LevelSetSurface
from tracefem.mesh import build_background, select_active

BBOX = (-1.5, 1.5)
N_SMALL = 24                 # h = 1/8 for the drawn placements
H_SMALL = (BBOX[1] - BBOX[0]) / N_SMALL
K_SMALL = 16


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
        arcs = intersect_element(tri, center, radius)
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
                              q_surf=oscillation_order(k_max, mesh.h))
        system = assemble(mesh, topo)
        probe = assemble_fourier(topo, k_max)
    else:
        bg, mesh, topo, system, probe = new
    vertices, triangles = old_background(bbox, n_cells)
    assert np.array_equal(bg.vertices, vertices)
    assert np.array_equal(bg.triangles, triangles)

    active, dofs, elements, h_t = old_select_active(vertices, triangles,
                                                    center, radius)
    assert np.array_equal(mesh.active, active)
    assert np.array_equal(mesh.dofs, dofs)
    assert np.array_equal(mesh.elements, elements)
    assert np.array_equal(mesh.h_T, h_t)

    old = old_topology(center, radius, mesh.coords, elements, topo.q_surf)
    assert topo.arcs == old["arcs"]
    assert np.array_equal(np.diff(topo.elem_ptr), [len(w) for w in old["w"]])
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
    check_against_oracle(s.surface, BBOX, n, s.probe.k_max,
                         new=(s.background, s.mesh, s.topology, s.system,
                              s.probe))


# -- drawn placements ----------------------------------------------------------

_offset = st.floats(-0.3, 0.3)
_radius = st.floats(0.4, 1.0)
_grid = BBOX[0] + H_SMALL * np.arange(N_SMALL + 1)


def _check(center, radius):
    assume(abs(center[0]) + radius < 1.45 and abs(center[1]) + radius < 1.45)
    check_against_oracle(LevelSetSurface.circle(center, radius), BBOX,
                         N_SMALL, K_SMALL)


@settings(max_examples=15, deadline=None)
@given(_offset, _offset, _radius)
def test_offcenter_circles(cx, cy, radius):
    _check((cx, cy), radius)


@settings(max_examples=15, deadline=None)
@given(_offset, _offset, st.integers(0, N_SMALL), st.integers(0, N_SMALL))
def test_radius_through_vertex(cx, cy, i, j):
    center = np.array([cx, cy])
    radius = float(np.hypot(*(np.array([_grid[i], _grid[j]]) - center)))
    assume(0.4 <= radius <= 1.1)
    _check(center, radius)


@settings(max_examples=20, deadline=None)
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


@settings(max_examples=10, deadline=None)
@given(_offset, _offset, st.floats(2.6, 3.1))
def test_radius_near_resolution_limit(cx, cy, cells):
    # h_T = sqrt2 h passes c_res R with c_res = 0.5 from R = 2 sqrt2 h
    _check((cx, cy), cells * H_SMALL)
