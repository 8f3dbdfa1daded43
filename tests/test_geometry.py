import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracefem.errors import AssumptionViolation, DegeneratePoint
from tracefem.geometry import LevelSetSurface, check_resolution

from helpers import closest_point


def unit_circle():
    return LevelSetSurface.circle((0.0, 0.0), 1.0)


class TestClosestPoint:
    def test_radial_outside(self):
        p = closest_point(unit_circle(), (2.0, 0.0))
        assert np.allclose(p, (1.0, 0.0), atol=1e-14)

    def test_radial_inside(self):
        p = closest_point(unit_circle(), (0.0, -0.3))
        assert np.allclose(p, (0.0, -1.0), atol=1e-14)

    def test_offcenter_circle(self):
        surf = LevelSetSurface.circle((0.1, 0.2), 0.7)
        x = np.array([0.1, 0.2]) + np.array([0.5, 0.5])
        p = closest_point(surf, x)
        expect = np.array([0.1, 0.2]) + 0.7 * np.array([0.5, 0.5]) / np.hypot(0.5, 0.5)
        assert np.allclose(p, expect, atol=1e-13)

    def test_center_degenerate(self):
        with pytest.raises(DegeneratePoint):
            closest_point(unit_circle(), (0.0, 0.0))

    def test_on_surface_result(self):
        surf = unit_circle()
        for x in [(1.3, 0.4), (-0.2, 0.1), (0.0, 5.0)]:
            p = closest_point(surf, x)
            assert abs(np.hypot(*(p - surf.center)) - surf.radius) <= 1e-12

    @settings(max_examples=50)
    @given(st.floats(0.15, 3.0), st.floats(-np.pi, np.pi))
    def test_idempotent(self, r, th):
        surf = unit_circle()
        x = np.array([r * np.cos(th), r * np.sin(th)])
        p = closest_point(surf, x)
        assert np.allclose(closest_point(surf, p), p, atol=1e-12)


class TestUnitNormal:
    def test_axis_points(self):
        surf = unit_circle()
        assert np.allclose(surf.unit_normal((0.5, 0.0)), (1.0, 0.0))
        assert np.allclose(surf.unit_normal((0.0, 2.0)), (0.0, 1.0))

    def test_unit_length(self):
        surf = unit_circle()
        for th in np.linspace(0, 2 * np.pi, 17):
            n = surf.unit_normal((1.4 * np.cos(th), 1.4 * np.sin(th)))
            assert abs(np.hypot(*n) - 1.0) <= 1e-12


class _FakeMesh:
    def __init__(self, h_t):
        self.h_T = np.asarray(h_t)


class TestResolutionCheck:
    def test_pass(self):
        check_resolution(unit_circle(), _FakeMesh([0.1] * 5), c_res=0.5)

    def test_fail_small_circle(self):
        surf = LevelSetSurface.circle((0.0, 0.0), 0.05)
        with pytest.raises(AssumptionViolation,
                           match=r"h_T=0\.1 above the threshold 0\.025 "):
            check_resolution(surf, _FakeMesh([0.1] * 5), c_res=0.5)

    def test_names_first_violator(self):
        with pytest.raises(AssumptionViolation,
                           match=r"^element 1 has h_T=0\.6 .*\(c_res=0\.5\)$"):
            check_resolution(unit_circle(), _FakeMesh([0.4, 0.6, 0.4, 0.6]),
                             c_res=0.5)

    def test_ladder_passes(self, ladder):
        for s in ladder.values():
            check_resolution(s.surface, s.mesh)
