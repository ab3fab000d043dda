"""Exception hierarchy shared across the package."""


class ConequantError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(ConequantError):
    """Vector or matrix dimensions do not line up."""


class NotFullDimensional(ConequantError):
    """Cone generators do not span the ambient space."""


class ContainsLine(ConequantError):
    """Cone contains a line, i.e. some nonzero v with v and -v in the cone."""


class NotInterior(ConequantError):
    """Supplied point is not in the interior of the cone."""


class EmptyBasis(ConequantError):
    """Dual cone basis is empty; cannot happen for a validated cone."""


class IntegralNp(ConequantError):
    """N*p is an integer, violating the unique-minimizer hypothesis."""


class MalformedProgram(ConequantError):
    """Linear program with inconsistent dimensions or crossed bounds."""


class DimensionNot2(DimensionMismatch):
    """The exact planar oracle only handles two-dimensional data."""


class InternalInvariantError(ConequantError):
    """A solver invariant failed: a bug in this package, not bad input.

    Raised by explicit checks, so that it also fires under ``python -O``.
    """
