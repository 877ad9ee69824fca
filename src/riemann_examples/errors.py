"""Exception types raised by the numerical core."""


class RiemannFamilyError(Exception):
    """Base class for all errors raised by this package."""


class BranchTooClose(RiemannFamilyError):
    """A path vertex fell inside the protective disk around a branch point."""


class AmbiguousSheet(RiemannFamilyError):
    """Sheet continuation could not resolve the square-root sign within the
    subdivision depth cap."""


class BranchAmbiguity(AmbiguousSheet):
    """Branch selection of a square-root correction factor failed."""


class SingularPoint(RiemannFamilyError):
    """Evaluation requested at a point where the integrand is singular
    (w = 0 or z = 0)."""


class QuadratureFailure(RiemannFamilyError):
    """Adaptive quadrature did not reach the requested tolerance within the
    refinement cap."""


class PathBlocked(RiemannFamilyError):
    """A target lies in a branch guard disk, grid rings cannot clear the
    branch moduli, or limit samples are too few or wind too often."""


class InsufficientSlicePoints(RiemannFamilyError):
    """A horizontal slice was asked for fewer than the 3 points a curve fit
    needs."""
