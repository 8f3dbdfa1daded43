import numpy as np
import pytest

from tracefem.errors import InvalidConfig
from tracefem.geometry import LevelSetSurface
from tracefem.mesh import build_background, select_active, write_vtk


class TestBackground:
    def test_counting_small(self):
        bg = build_background((0.0, 1.0), 2)
        assert len(bg.triangles) == 8
        assert np.array_equal(np.unique(bg.triangles), np.arange(9))

    def test_h_global(self):
        bg = build_background((-1.5, 1.5), 3)
        assert bg.h_global == pytest.approx(1.0)

    def test_area_partition(self):
        bg = build_background((-1.5, 1.5), 7)
        total = 0.0
        for tri in bg.triangles:
            a, b, c = bg.coords(tri)
            total += 0.5 * abs((b[0] - a[0]) * (c[1] - a[1])
                               - (c[0] - a[0]) * (b[1] - a[1]))
        assert total == pytest.approx(9.0, abs=1e-12)

    def test_positive_orientation(self):
        bg = build_background((0.0, 1.0), 4)
        for tri in bg.triangles:
            a, b, c = bg.coords(tri)
            area2 = (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])
            assert area2 > 0

    def test_conforming_edges(self):
        bg = build_background((0.0, 1.0), 4)
        seen = {}
        for tri in bg.triangles:
            for k in range(3):
                e = tuple(sorted((tri[k], tri[(k + 1) % 3])))
                seen[e] = seen.get(e, 0) + 1
        assert set(seen.values()) <= {1, 2}

    def test_quasi_uniformity(self):
        bg = build_background((0.0, 1.0), 5)
        hs = []
        for tri in bg.triangles:
            p = bg.coords(tri)
            hs.append(max(np.hypot(*(p[k] - p[(k + 1) % 3])) for k in range(3)))
        assert max(hs) / min(hs) <= np.sqrt(2.0) + 1e-12

    def test_invalid(self):
        with pytest.raises(InvalidConfig):
            build_background((1.0, 0.0), 4)
        with pytest.raises(InvalidConfig):      # hi - lo overflows
            build_background((-1e308, 1e308), 4)
        with pytest.raises(InvalidConfig):
            build_background((0.0, 1.0), 0)


def _circle(center=(0.0, 0.0), radius=1.0):
    return LevelSetSurface.circle(center, radius)


class TestActiveSelection:
    def test_band_euler_characteristic(self):
        bg = build_background((-1.5, 1.5), 6)
        am = select_active(bg, _circle())
        verts = set()
        edges = set()
        for tri in am.elements:
            verts.update(int(v) for v in tri)
            for k in range(3):
                edges.add(tuple(sorted((int(tri[k]), int(tri[(k + 1) % 3])))))
        chi = len(verts) - len(edges) + len(am.elements)
        assert chi == 0          # annulus

    def test_band_connected_edges(self):
        bg = build_background((-1.5, 1.5), 24)
        am = select_active(bg, _circle())
        edge_count = {}
        for tri in am.elements:
            for k in range(3):
                e = tuple(sorted((int(tri[k]), int(tri[(k + 1) % 3]))))
                edge_count[e] = edge_count.get(e, 0) + 1
        for tri in am.elements:
            shared = sum(edge_count[tuple(sorted((int(tri[k]), int(tri[(k + 1) % 3]))))] == 2
                         for k in range(3))
            assert shared >= 1

    def test_tiny_circle_single_triangle(self):
        bg = build_background((0.0, 1.0), 4)
        am = select_active(bg, _circle((0.6, 0.55), 0.01))
        assert len(am.active) >= 1
        # the containing triangle must be among the active ones
        for e in am.active:
            pts = bg.coords(bg.triangles[e])
            d = [np.hypot(*(p - (0.6, 0.55))) for p in pts]
            assert min(d) <= 0.01 + 0.3  # circle near the triangle

    def test_no_intersection(self):
        # a circle that misses the mesh also leaves the bbox
        bg = build_background((0.0, 1.0), 4)
        with pytest.raises(InvalidConfig, match="leaves the bbox"):
            select_active(bg, _circle((10.0, 10.0), 0.5))

    def test_translation_consistency(self):
        # shifting the circle by exactly one cell shifts the active set
        bg = build_background((-1.5, 1.5), 12)
        cell = bg.h_global
        am0 = select_active(bg, _circle((0.0, 0.0), 0.8))
        am1 = select_active(bg, _circle((cell, 0.0), 0.8))

        def cells(am):
            out = set()
            for e in am.active:
                tri = bg.coords(bg.triangles[e])
                c = tri.mean(axis=0)
                # centroids sit on the lattice of cell/3; integer keys
                out.add((round(3 * c[0] / cell), round(3 * c[1] / cell)))
            return out

        shifted = {(x + 3, y) for x, y in cells(am0)}
        assert shifted == cells(am1)

    def test_dof_growth_linear(self):
        counts = {}
        for n in (16, 32, 64, 128):
            bg = build_background((-1.5, 1.5), n)
            counts[n] = select_active(bg, _circle()).n_dofs
        for n in (16, 32, 64):
            assert counts[2 * n] / counts[n] <= 3.0

    def test_every_dof_in_active_triangle(self):
        bg = build_background((-1.5, 1.5), 16)
        am = select_active(bg, _circle())
        used = set(int(v) for tri in am.elements for v in tri)
        assert used == set(range(am.n_dofs))


def test_vtk_export(tmp_path):
    bg = build_background((-1.5, 1.5), 8)
    am = select_active(bg, _circle())
    path = tmp_path / "mesh.vtk"
    write_vtk(am, path)
    text = path.read_text()
    assert text.startswith("# vtk DataFile Version 3.0")
    assert "POINTS %d double" % am.n_dofs in text
    assert "SCALARS h_T double 1" in text
    assert text.count("\n5") >= len(am.elements) - 1


def test_vtk_point_field_and_time(tmp_path):
    bg = build_background((-1.5, 1.5), 8)
    am = select_active(bg, _circle())
    u = np.cos(np.arctan2(am.coords[:, 1], am.coords[:, 0]))
    path = tmp_path / "u.vtk"
    write_vtk(am, path, values=u, time=0.125)
    lines = path.read_text().splitlines()
    assert lines[1] == "active mesh t=0.125"
    at = lines.index("POINT_DATA %d" % am.n_dofs)
    assert lines[at + 1:at + 3] == ["SCALARS u_h double 1",
                                    "LOOKUP_TABLE default"]
    field = np.array([float(v) for v in lines[at + 3:at + 3 + am.n_dofs]])
    assert len(lines) == at + 3 + am.n_dofs
    assert np.array_equal(field, u)
