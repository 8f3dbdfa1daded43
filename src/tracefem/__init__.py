"""Stabilized trace finite elements for the heat equation on a curve.

The package discretizes surface PDEs on a closed curve embedded in a
2-D bulk triangulation (trace FEM with normal-derivative volume
stabilization), provides the stabilized L2-projection and the discrete dual
norm, measures the constants of the associated inf-sup theory as
generalized eigenvalue problems, and runs manufactured-solution
convergence studies for the implicit heat solver.
"""

from .geometry import LevelSetSurface, check_resolution
from .mesh import build_background, select_active
from .cutquad import build_topology
from .assembly import assemble, assemble_fourier
from .operators import DiscreteOperators
from .heatsolver import MANUFACTURED, HeatRun, run, accumulate_errors

__all__ = [
    "LevelSetSurface", "check_resolution", "build_background",
    "select_active", "build_topology", "assemble", "assemble_fourier",
    "DiscreteOperators", "MANUFACTURED", "HeatRun", "run",
    "accumulate_errors",
]

__version__ = "0.1.0"
