"""Exception types shared across the package, and the limits whose
breach raises them."""

# The pass/fail limit of each audit and numerical contract, by name.
LIMITS = {
    "rel_err": 1e-10,            # |arc length - 2 pi R| / 2 pi R of the cut
    "cover_defect": 1e-10,       # how far the arcs are from tiling the circle
    "spectral_selftest": 1e-11,  # quadcheck's q against q + 4 Gauss points
    "sandwich_slack": 1.02,      # dual-norm and Lambda_h sandwich factor
    "lambda_excess": 1e-9,       # how far Lambda_h may exceed 1
    "solve_residual": 1e-12,     # relative residual of an LU solve
    "lanczos_tol": 1e-12,        # relative accuracy of a Lanczos value
    "pair_residual": 1e-8,       # relative residual of an extremal eigenpair
}


def breaches(audits):
    """A line "name value > limit" for each (name, value) of audits that
    is not within LIMITS[name]; a NaN value is not within it."""
    return ["%s %.2g > %g" % (name, value, LIMITS[name])
            for name, value in audits if not value <= LIMITS[name]]


class TraceFemError(Exception):
    """Base class for all package errors."""


class InvalidConfig(TraceFemError):
    """A configuration value is out of range or has the wrong shape."""


class AssumptionViolation(TraceFemError):
    """The mesh does not resolve the curvature: h_T > c_res / curvature."""


class DegeneratePoint(TraceFemError):
    """A point where the closest-point map is undefined (e.g. circle center)."""


class EmptyIntersection(TraceFemError):
    """No background element intersects the surface."""


class SingularElement(TraceFemError):
    """An active triangle's area is beyond the double range."""


class SolveFailure(TraceFemError):
    """A linear solve failed or its residual exceeded tolerance."""


class SingularMatrix(TraceFemError):
    """A matrix expected to be positive definite is not."""


class EigFailure(TraceFemError):
    """A (generalized) eigenvalue computation did not converge."""


class AuditFailure(TraceFemError):
    """A self-test or audit of computed values is out of tolerance."""


class AliasRisk(TraceFemError):
    """Surface quadrature order is too low for the requested Fourier order."""
