"""Oracle: what an exact cut and its matrices must be.

``check_cut`` checks the answer, not agreement with a copy of older
code: a copy shares the defects of what it copies, as when a circle
tangent to an edge between two vertices gave the touching element the
whole circle in both.  On every ladder, hard, uniformity, drawn,
grazing, through-vertex and near-limit placement it asks that

- the arcs have total length 2 pi R to 1e-12 and cover [0, 2 pi) once
  (``arc_cover_defect`` at most 1e-10);
- every Gauss node lies on Gamma and inside its host element, and each
  end of an arc short of the whole circle on its element's boundary;
- the batched cut equals the cut of each element as a stack of one;
- an active element with no arc touches Gamma, within 1e-12;
- the matrices integrate P1 data exactly, to 1e-12 relative.  With
  u = a.x + b and X, Y the coordinate vectors: u'Mu = 2 pi R (a.c + b)^2
  + pi R^3 |a|^2, u'Au = pi R |a|^2, u'G has the three modes
  (a.c + b) sqrt(2 pi R), R a_x sqrt(pi R) and R a_y sqrt(pi R),
  X'S_jX + Y'S_jY = sum h_T^(1-2j) |T| as |n| = 1, and, as h_T is one
  value on the uniform mesh, X'DX + Y'DY = h_T^2 2 pi R (|c|^2 + R^2)
  + sum h_T^3 |T|.

The band of ``select_active`` is checked against the whole table of
``old_background``, and ``test_frame_against_physical_cut`` bounds the
rounding between the cut in its frame and the cut of x - c.  A
RuntimeWarning fails every test here: a successful run leaves stderr
empty.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tracefem.assembly import assemble, assemble_fourier
from tracefem.cutquad import (arc_cover_defect, build_topology,
                              cut_triangles, oscillation_order, surface_rule)
from tracefem.errors import SingularElement
from tracefem.geometry import LevelSetSurface
from tracefem.mesh import (_cuts_circle, barycentric, build_background,
                           p1_gradients, select_active, twice_area)

from conftest import LADDER
from test_uniformity import PLACEMENTS

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

BBOX = (-1.5, 1.5)
N_SMALL = 24                 # h = 1/8 for the drawn placements
H_SMALL = (BBOX[1] - BBOX[0]) / N_SMALL
K_SMALL = 16
TWO_PI = 2.0 * np.pi
TOL = 1e-12
A_LIN, B_LIN = np.array([0.7, -0.4]), 0.3    # u = a.x + b


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


def _close(got, want):
    return abs(got - want) <= TOL * abs(want)


def check_cut(surface, mesh, topo, system, probe):
    """The invariants of the module docstring on one placement."""
    c, r = surface.center, surface.radius
    h = mesh.background.h_global
    tri = mesh.coords[mesh.elements]
    xi, rho, _ = surface.frame(tri, h)
    assert _close(topo.total_length, TWO_PI * r)
    assert arc_cover_defect(topo) <= 1e-10

    node = np.einsum("ni,nid->nd", topo.bary, xi[topo.elem])
    assert np.abs(node - surface.frame(topo.pts, h)[0]).max() <= TOL
    assert np.abs(np.hypot(node[:, 0], node[:, 1]) - rho).max() <= TOL
    assert topo.bary.min() >= -TOL
    arcs = np.diff(topo.elem_ptr) // topo.q_surf
    owner = np.repeat(np.arange(len(tri)), arcs)
    part = topo.arc_ends[:, 1] - topo.arc_ends[:, 0] < TWO_PI
    th = topo.arc_ends[part]
    lam = barycentric(xi[owner[part], None],
                      rho * np.stack([np.cos(th), np.sin(th)], axis=-1))
    assert np.all(np.abs(lam.min(axis=-1)) <= TOL)

    dropped = 0
    for e, want in enumerate(np.split(topo.arc_ends, np.cumsum(arcs)[:-1])):
        one, _, grazed = cut_triangles(xi[e:e + 1], rho)
        assert np.array_equal(one, want), e
        dropped += grazed
    assert dropped == topo.dropped_contacts
    bare = xi[arcs == 0]
    assert not np.any(_cuts_circle(bare, rho - TOL)
                      & _cuts_circle(bare, rho + TOL))

    a, beta = A_LIN, A_LIN @ c + B_LIN
    u = mesh.coords @ a + B_LIN
    m = TWO_PI * r * beta ** 2 + np.pi * r ** 3 * (a @ a)
    assert _close(u @ (system.M @ u), m)
    assert _close(u @ (system.A @ u), np.pi * r * (a @ a))
    modes = np.zeros(probe.n_modes)
    modes[:3] = [beta * np.sqrt(TWO_PI * r), *(r * a * np.sqrt(np.pi * r))]
    assert np.abs(u @ probe.G - modes).max() <= TOL * np.abs(modes).max()
    area = 0.5 * np.abs(twice_area(tri))
    xy = mesh.coords
    for j in (-1, 0, 1):
        assert _close(np.vecdot(xy, system.S[j] @ xy).sum(),
                      np.sum(mesh.h_T ** (1 - 2 * j) * area))
    assert _close(np.vecdot(xy, system.D @ xy).sum(),
                  mesh.h_T[0] ** 2 * TWO_PI * r * (c @ c + r * r)
                  + np.sum(mesh.h_T ** 3 * area))


def _check_cut(center, radius, n):
    surface = LevelSetSurface.circle(center, radius)
    mesh = select_active(build_background(BBOX, n), surface)
    topo = build_topology(surface, mesh,
                          q_surf=oscillation_order(K_SMALL, mesh.h, radius))
    check_cut(surface, mesh, topo, assemble(mesh, topo),
              assemble_fourier(topo, K_SMALL))


# -- the ladder ---------------------------------------------------------------

@pytest.mark.parametrize("n", [48, 96, 192])
def test_ladder_matches_oracle(ladder, n):
    s = ladder[n]
    check_cut(s.surface, s.mesh, s.topology, s.system, s.ops.probe)


# -- hard placements -----------------------------------------------------------

HARD = {
    # a circle through the grid vertex (1, 0.5) of the n=48 mesh
    "off_centre_vertex": ((0.2, -0.1), float(np.hypot(0.8, 0.6)), 48),
    # tangent to the grid lines y = 1 and x = 1 of the n=48 mesh
    "grazing_horizontal": ((0.03, 0.0), 1.0, 48),
    "grazing_vertical": ((0.0, -0.02), 1.0, 48),
    # tangent to x = +-1 between two vertices, 0.58 of a cell above y = 0
    "grazing_mid_cell": ((0.0, 0.0365), 1.0, 48),
    # wholly inside the triangle (0, 0), (1/16, 0), (1/16, 1/16)
    "inside_one_triangle": ((0.03, 0.01), 0.005, 48),
    # h_T = sqrt2 h passes c_res R with c_res = 0.5 from R = 2 sqrt2 h
    "resolution_limit": ((0.011, -0.017), 2.85 * 3.0 / 48, 48),
}


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

def full_table_mesh(bbox, n, surface):
    """(active, dofs, elements, coords, h_T, grad) from the whole table of
    old_background: the exact predicate in the frame of the cut on every
    triangle, no band, and the dofs numbered in order of first
    appearance."""
    vertices, triangles = old_background(bbox, n)
    pts = vertices[triangles]
    xi, rho, scale = surface.frame(pts, (bbox[1] - bbox[0]) / n)
    active = np.flatnonzero(_cuts_circle(xi, rho))
    dof_of = {}
    for v in triangles[active].ravel():
        dof_of.setdefault(int(v), len(dof_of))
    dofs = np.array(list(dof_of), dtype=np.int64)
    elements = np.array([[dof_of[int(v)] for v in tri]
                         for tri in triangles[active]], dtype=np.int64)
    pts = pts[active]
    edge = pts - np.roll(pts, -1, axis=1)
    h_t = np.hypot(edge[..., 0], edge[..., 1]).max(axis=1)
    return (active, dofs, elements, vertices[dofs], h_t,
            p1_gradients(xi[active]) / scale)


def check_band(bbox, n, surface):
    """select_active equals full_table_mesh, and returns the mesh."""
    mesh = select_active(build_background(bbox, n), surface)
    want = full_table_mesh(bbox, n, surface)
    got = (mesh.active, mesh.dofs, mesh.elements, mesh.coords, mesh.h_T,
           mesh.grad)
    for name, a, b in zip(("active", "dofs", "elements", "coords", "h_T",
                           "grad"), got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    return mesh


# the circle touches the bbox where its centre sits at +-(hi - R)
EDGE_PLACEMENTS = [(n, (0.0, 0.0), 1.0) for n in (1, 7, 193)] + [
    (7, (0.13, -0.07), 0.8), (193, (0.13, -0.07), 0.8)] + [
    (n, c, 1.0) for n in (7, 48, 193)
    for c in ((0.5, 0.5), (-0.5, -0.5), (0.5, -0.5), (-0.5, 0.0))]


@pytest.mark.parametrize("n, center, radius", EDGE_PLACEMENTS)
def test_band_matches_full_table(n, center, radius):
    check_band(BBOX, n, LevelSetSurface.circle(center, radius))


def test_overflowing_coordinates_fail_alike():
    # at +-1e160 the frame keeps the selection finite, so the band and the
    # full table agree; only the element areas, h^2 / 2 = 4.9e316, leave
    # the double range, and the topology names the first of them
    surface = LevelSetSurface.circle((0.0, 0.0), 1e159)
    mesh = check_band((-1e160, 1e160), 64, surface)
    with pytest.raises(SingularElement, match=r"^active triangle 0 has area "
                       r"4\.9e\+316, beyond the double range$"):
        build_topology(surface, mesh)


# -- the frame against the physical cut ------------------------------------------

def test_frame_against_physical_cut():
    # The cut of x - c is the cut before the frame.  On drawn off-centre
    # circles the frame moves rounding alone: the same active sets and
    # arcs, the arc ends within 5e-14 rad and the P1 values and weights
    # within 5e-13 (over 480 placements, seeds 0 to 11, the worst were
    # 4.4e-15, 3.3e-14 and 2.8e-14).
    rng = np.random.default_rng(1)
    bg = build_background(BBOX, N_SMALL)
    vertices, triangles = old_background(BBOX, N_SMALL)
    mid = BBOX[0] + H_SMALL * (np.arange(N_SMALL) + 0.5)
    worst = np.zeros(3)
    for _ in range(40):
        center, radius = rng.uniform(-0.3, 0.3, 2), rng.uniform(0.4, 1.0)
        surface = LevelSetSurface.circle(center, radius)
        mesh = select_active(bg, surface)
        topo = build_topology(surface, mesh)
        # a cut triangle lies in a cell whose centre is within R +- 2h
        dist = np.hypot(mid[:, None] - center[0], mid[None, :] - center[1])
        cells = np.flatnonzero(np.abs(dist - radius) <= 2.0 * H_SMALL)
        near = (2 * cells[:, None] + np.arange(2)).ravel()
        assert np.array_equal(mesh.active, near[_cuts_circle(
            vertices[triangles[near]] - center, radius)])
        tri = mesh.coords[mesh.elements]
        ends, owner, _ = cut_triangles(tri - center, radius)
        assert np.array_equal(np.diff(topo.elem_ptr), topo.q_surf
                              * np.bincount(owner, minlength=len(tri)))
        pts, w, _, _ = surface_rule(center, radius, ends, topo.q_surf)
        worst = np.maximum(worst, [
            np.abs(topo.arc_ends - ends).max(),
            np.abs(topo.bary - barycentric(tri[topo.elem], pts)).max(),
            np.abs(topo.w - w).max() / w.max()])
    assert np.all(worst <= [5e-14, 5e-13, 5e-13]), worst


# -- drawn placements ----------------------------------------------------------

_offset = st.floats(-0.3, 0.3)
_radius = st.floats(0.4, 1.0)
_grid = BBOX[0] + H_SMALL * np.arange(N_SMALL + 1)


def _check(center, radius):
    assume(abs(center[0]) + radius < 1.45 and abs(center[1]) + radius < 1.45)
    _check_cut(center, radius, N_SMALL)


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
