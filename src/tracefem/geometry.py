"""Level-set description of the circle Gamma in the plane.

The curve Gamma is the zero level set of phi(x) = |x - c| - R, with
exact closest-point formulas.  The module provides the closest-point
projection, the extended unit normal n(x) = n(p(x)), the signed
distance, and the mesh-resolution check max_T h_T <= c_res /
curvature_bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneratePoint


@dataclass
class LevelSetSurface:
    """A circle described by the level set phi(x) = |x - c| - R.

    Use the ``circle`` constructor rather than building instances
    directly.
    """

    kind: str
    center: np.ndarray | None = None
    radius: float | None = None
    curvature_bound: float | None = None

    @staticmethod
    def circle(center=(0.0, 0.0), radius=1.0):
        if radius <= 0.0:
            raise ValueError("circle radius must be positive")
        return LevelSetSurface(
            kind="circle",
            center=np.asarray(center, dtype=float),
            radius=float(radius),
            curvature_bound=1.0 / float(radius),
        )

    # -- level set evaluation ------------------------------------------

    def phi(self, x):
        x = np.asarray(x, dtype=float)
        return float(np.hypot(*(x - self.center))) - self.radius

    def grad_phi(self, x):
        d = np.asarray(x, dtype=float) - self.center
        r = np.hypot(*d)
        if r == 0.0:
            raise DegeneratePoint("gradient undefined at circle center")
        return d / r

    # -- closest point / normal ----------------------------------------

    def closest_point(self, x):
        """Project x onto Gamma with the exact radial formula."""
        d = np.asarray(x, dtype=float) - self.center
        r = np.hypot(*d)
        if r == 0.0:
            raise DegeneratePoint("closest point undefined at circle center")
        return self.center + self.radius * d / r

    def unit_normal(self, x):
        """Extended unit normal n(x) = grad phi(p(x)) / |grad phi(p(x))|."""
        p = self.closest_point(np.asarray(x, dtype=float))
        g = self.grad_phi(p)
        return g / np.hypot(*g)

    def signed_distance(self, x):
        return self.phi(x)


@dataclass
class ResolutionReport:
    """Outcome of the curvature-resolution check."""

    passed: bool
    h_max: float
    threshold: float
    c_res: float
    violations: list = field(default_factory=list)


def check_resolution(surface, active_mesh, c_res=0.5):
    """Check max_T h_T <= c_res / curvature_bound over the active elements.

    Returns a report listing the violating (element index, h_T) pairs;
    nothing is raised.
    """
    if c_res <= 0.0:
        raise ValueError("c_res must be positive")
    threshold = c_res / surface.curvature_bound
    h_t = np.asarray(active_mesh.h_T, dtype=float)
    bad = np.nonzero(h_t > threshold)[0]
    violations = [(int(i), float(h_t[i])) for i in bad]
    return ResolutionReport(
        passed=len(violations) == 0,
        h_max=float(h_t.max()) if h_t.size else 0.0,
        threshold=float(threshold),
        c_res=float(c_res),
        violations=violations,
    )
