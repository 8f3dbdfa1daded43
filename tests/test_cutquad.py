import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracefem.assembly import volume_rule
from tracefem.cutquad import (arc_cover_defect, build_topology,
                              cut_triangles, oscillation_order,
                              surface_rule)
from tracefem.geometry import LevelSetSurface
from tracefem.mesh import build_background, select_active


def _arcs(tri, center, radius):
    """Arcs (k, 2) of the circle inside one closed triangle: the batched
    cut of a stack of one, in the frame of the circle with L = R."""
    xi, rho, _ = LevelSetSurface.circle(center, radius).frame(tri, 0.0)
    return cut_triangles(xi[None], rho)[0]


def _arc_length(arcs):
    return sum(b - a for a, b in arcs)


def _brute_force_length(tri, center, radius, n=1_000_000):
    """Oracle: fraction of the circle inside the triangle by angular scan."""
    th = (np.arange(n) + 0.5) * (2 * np.pi / n)
    p = np.column_stack([center[0] + radius * np.cos(th),
                         center[1] + radius * np.sin(th)])
    a, b, c = np.asarray(tri, dtype=float)
    det = (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])
    l1 = ((b[0] - p[:, 0]) * (c[1] - p[:, 1])
          - (c[0] - p[:, 0]) * (b[1] - p[:, 1])) / det
    l2 = ((c[0] - p[:, 0]) * (a[1] - p[:, 1])
          - (a[0] - p[:, 0]) * (c[1] - p[:, 1])) / det
    inside = (l1 >= 0) & (l2 >= 0) & (1.0 - l1 - l2 >= 0)
    return 2 * np.pi * inside.mean()


class TestIntersectElement:
    def test_quarter_circle(self):
        tri = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        arcs = _arcs(tri, (0.0, 0.0), 0.5)
        assert len(arcs) == 1
        (a, b), = arcs
        assert a == pytest.approx(0.0, abs=1e-12)
        assert b == pytest.approx(np.pi / 2, abs=1e-12)

    def test_triangle_inside_circle(self):
        tri = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        assert len(_arcs(tri, (0.0, 0.0), 2.0)) == 0

    def test_multiple_arcs(self):
        # the circle leaves through the bottom edge and pokes out across
        # both slanted edges near the bottom corners: three arcs, as the
        # angular-scan oracle confirms
        tri = [(-1.0, -0.1), (1.0, -0.1), (0.0, 2.0)]
        arcs = _arcs(tri, (0.0, 0.0), 1.0)
        assert len(arcs) == 3
        assert _arc_length(arcs) == pytest.approx(
            _brute_force_length(tri, (0.0, 0.0), 1.0), abs=1e-4)

    def test_circle_inside_triangle(self):
        tri = [(-5.0, -5.0), (5.0, -5.0), (0.0, 8.0)]
        arcs = _arcs(tri, (0.0, 0.0), 1.0)
        assert arcs.tolist() == [[0.0, 2 * np.pi]]

    @settings(max_examples=40)
    @given(st.floats(-0.45, 0.45), st.floats(-0.45, 0.45),
           st.floats(0.3, 1.2))
    def test_against_angular_scan(self, cx, cy, radius):
        tri = [(-1.0, -1.0), (1.5, -0.5), (-0.3, 1.5)]
        arcs = _arcs(tri, (cx, cy), radius)
        assert _arc_length(arcs) == pytest.approx(
            _brute_force_length(tri, (cx, cy), radius, n=200_000), abs=2e-4)


class TestSurfaceRule:
    def test_arc_length_weight(self):
        for q in (1, 3, 10):
            w, _ = surface_rule(0.5, (0.0, np.pi / 2), q)
            assert w.sum() == pytest.approx(np.pi / 4, abs=1e-14)

    def test_gauss1_midpoint(self):
        eps = 1e-3
        w, theta = surface_rule(1.0, (0.0, eps), 1)
        assert theta[0] == pytest.approx(eps / 2)
        assert w[0] == pytest.approx(eps)

    def test_cos2_over_circle(self, setup48):
        topo = setup48.topology
        acc = float(topo.w @ np.cos(topo.theta) ** 2)
        assert acc == pytest.approx(np.pi, abs=1e-12)

    def test_unit_normals(self):
        # a node is its angle: its normal is (cos, sin) of it, and the
        # Gauss nodes lie inside their arc
        _, theta = surface_rule(1.0, (0.2, 1.1), 5)
        n = np.column_stack([np.cos(theta), np.sin(theta)])
        assert np.allclose(np.hypot(n[:, 0], n[:, 1]), 1.0, atol=1e-14)
        assert np.all((theta > 0.2) & (theta < 1.1))


class TestVolumeRule:
    UNIT = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]

    def integrate(self, f):
        pts, w = volume_rule(self.UNIT)
        return float(w @ f(pts[:, 0], pts[:, 1]))

    def test_constant(self):
        assert self.integrate(lambda x, y: np.ones_like(x)) == pytest.approx(0.5)

    def test_x2y2(self):
        assert self.integrate(lambda x, y: x ** 2 * y ** 2) == \
            pytest.approx(1.0 / 180.0, abs=1e-14)

    def test_x4(self):
        assert self.integrate(lambda x, y: x ** 4) == \
            pytest.approx(1.0 / 30.0, abs=1e-14)

    def test_positive_weights(self):
        _, w = volume_rule(self.UNIT)
        assert (w > 0).all()
        assert w.sum() == pytest.approx(0.5)


class TestTopology:
    def test_total_length(self, ladder):
        for s in ladder.values():
            assert s.topology.total_length == \
                pytest.approx(2 * np.pi, rel=1e-10)

    def test_arcs_tile_circle(self, ladder):
        for s in ladder.values():
            assert arc_cover_defect(s.topology) <= 1e-10

    def test_nodes_on_circle_inside_host(self, setup96):
        # the point c + R (cos, sin) of each angle, centre 0 and R = 1, is
        # on the circle and is the P1 interpolant of x in the host element
        topo, mesh = setup96.topology, setup96.topology.mesh
        pts = np.column_stack([np.cos(topo.theta), np.sin(topo.theta)])
        host = mesh.coords[mesh.elements[topo.elem]]
        assert np.abs(np.einsum("ni,nid->nd", topo.bary, host) - pts).max() \
            <= 1e-12
        r = np.hypot(pts[:, 0], pts[:, 1])
        assert np.abs(r - 1.0).max() <= 1e-12
        assert topo.bary.min() >= -1e-12

    def test_positive_weights(self, setup96):
        assert (setup96.topology.w >= 0).all()

    def test_grazing_contacts_counted(self, setup48):
        # the grid lines x = +-1 and y = +-1 touch the centred unit circle
        assert setup48.topology.dropped_contacts > 0
        surf = LevelSetSurface.circle((0.13, -0.07), 1.0)
        am = select_active(setup48.background, surf)
        assert build_topology(surf, am).dropped_contacts == 0

    def test_spectral_accuracy(self):
        surf = LevelSetSurface.circle((0.0, 0.0), 1.0)
        bg = build_background((-1.5, 1.5), 48)    # h = 1/16
        am = select_active(bg, surf)
        q = oscillation_order(64, am.h, 1.0)
        t1 = build_topology(surf, am, q_surf=q)
        t2 = build_topology(surf, am, q_surf=q + 4)
        for k in (1, 5, 17, 33, 64):
            a = float(t1.w @ np.cos(k * t1.theta))
            b = float(t2.w @ np.cos(k * t2.theta))
            assert abs(a - b) <= 1e-11

    def test_order_bounded_by_the_whole_circle(self):
        # an arc spans h / R radians, but never more than 2 pi
        h = 0.125 * np.sqrt(2.0)
        assert oscillation_order(128, h, 1e-300) == 809   # ceil(256 pi) + 4
        assert oscillation_order(128, h, 1.0) == 27
