"""Exception and warning types shared across the package."""


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
    """An active triangle has (numerically) vanishing area."""


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


class TangencyWarning(UserWarning):
    """The circle grazes a mesh edge; the tangential contact is dropped."""
