"""Exception types shared across the package."""


class MafemError(Exception):
    """Base class for package-specific errors."""


class DegeneratePolygonError(MafemError, ValueError):
    """Polygon is not a valid convex polygon (too few vertices, zero area, ...)."""


class EmptySubdomainError(MafemError, ValueError):
    """Inward offset distance meets or exceeds the polygon inradius."""


class NonConvexInputError(MafemError, ValueError):
    """A piecewise function required to be (piecewise) convex is not."""


class SingularJacobianError(MafemError, RuntimeError):
    """Newton linearization is singular; strictification or continuation advised."""


class NonConvergenceError(MafemError, RuntimeError):
    """Iteration failed to converge.  Carries the last iterate and report."""

    def __init__(self, message, last_iterate=None, report=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.report = report
