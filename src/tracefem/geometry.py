"""The circle Gamma in the plane and the mesh-resolution check.

The curve Gamma is the circle |x - c| = R.  The module provides the
frame of the cut, the extended unit normal n(x) = n(p(x)) of the exact
closest point p(x), and the mesh-resolution check max_T h_T <= c_res /
curvature_bound, which raises AssumptionViolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AssumptionViolation, DegeneratePoint


@dataclass
class LevelSetSurface:
    """The circle |x - c| = R.

    Use the ``circle`` constructor rather than building instances
    directly.
    """

    center: np.ndarray
    radius: float
    curvature_bound: float

    @staticmethod
    def circle(center=(0.0, 0.0), radius=1.0):
        if radius <= 0.0:
            raise ValueError("circle radius must be positive")
        return LevelSetSurface(
            center=np.asarray(center, dtype=float),
            radius=float(radius),
            curvature_bound=1.0 / float(radius),
        )

    def _offset(self, x):
        """x - c and |x - c| (..., 1) for points x (..., 2)."""
        d = np.asarray(x, dtype=float) - self.center
        r = np.hypot(d[..., 0], d[..., 1])[..., None]
        if np.any(r == 0.0):
            raise DegeneratePoint("closest point undefined at circle center")
        return d, r

    def frame(self, x, h):
        """(xi, rho, L): points x (..., 2) in the frame of the cut on a
        mesh of width h, xi = (x - c) / L with L = max(R, h), where Gamma
        is |xi| = rho = R / L (1 on a resolving mesh).  The band's frame
        coordinates are of order one, whatever the unit of length."""
        scale = max(self.radius, h)
        return (x - self.center) / scale, self.radius / scale, scale

    def unit_normal(self, x):
        """Extended unit normal n(x) = n(p(x)) at points x (..., 2)."""
        d, r = self._offset(x)
        return d / r


def check_resolution(surface, active_mesh, c_res=0.5):
    """Check max_T h_T <= c_res / curvature_bound over the active elements.

    Raises AssumptionViolation naming the first element that exceeds the
    threshold.
    """
    if c_res <= 0.0:
        raise ValueError("c_res must be positive")
    threshold = c_res / surface.curvature_bound
    bad = np.flatnonzero(active_mesh.h_T > threshold)
    if len(bad):
        raise AssumptionViolation(
            "element %d has h_T=%.6g above the threshold %.6g = "
            "c_res / curvature (c_res=%g)"
            % (bad[0], active_mesh.h_T[bad[0]], threshold, c_res))
