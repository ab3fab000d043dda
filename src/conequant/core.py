"""Domain types: data clouds, quantile levels, cones and dual-cone bases.

All scalars are exact rationals (``fractions.Fraction``).  Every type here
is an immutable value.

Text scalars are read by :func:`parse_rational`, which accepts exactly what
``Fraction`` accepts from a string, with surrounding whitespace ignored:

* a fraction ``[sign] digits "/" digits``, e.g. "-3/4" (no sign after the
  slash, nonzero denominator);
* a decimal ``[sign] digits ["." [digits]] [exponent]`` or
  ``[sign] "." digits [exponent]``, e.g. "12", "1.5", "5.", ".5", "1e3" and
  "1.5E-2", converted exactly; an exponent is "e" or "E", an optional sign
  and digits.

Here sign is "+" or "-", and digits are any Unicode decimal digits, not
only ASCII ones, with single underscores allowed between them ("1_000").
"inf", "nan", hexadecimal and a zero denominator are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import _linalg
from .errors import (
    ContainsLine,
    DegenerateBasis,
    DimensionMismatch,
    NotFullDimensional,
    NotInterior,
)

Rational = Fraction
Vector = tuple[Fraction, ...]


def parse_rational(text: str) -> Fraction:
    """Parse a fraction "a/b" or a decimal such as "a", "a.bc" or "1.5e-2"
    into an exact rational; the module docstring gives the grammar."""
    if isinstance(text, str):
        # an integer token skips Fraction's regex: int() accepts exactly the
        # integer strings that Fraction does, and the rest fall through
        try:
            return Fraction(int(text))
        except ValueError:
            pass
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational from {text!r}") from exc


def format_rational(q: Fraction) -> str:
    """Render a rational as "a" or "a/b" (lowest terms, positive denominator)."""
    if type(q) is not Fraction:
        q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def as_vector(values) -> Vector:
    # a Fraction is immutable and already in lowest terms: keep it
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


@dataclass(frozen=True)
class DataCloud:
    """A finite collection of N points in d dimensions, duplicates allowed."""

    points: tuple[Vector, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise DimensionMismatch("a data cloud needs at least one point")
        d = len(self.points[0])
        if d < 1:
            raise DimensionMismatch("points must have at least one coordinate")
        if any(len(p) != d for p in self.points):
            raise DimensionMismatch("all points must share the same dimension")

    @classmethod
    def from_rows(cls, rows) -> "DataCloud":
        return cls(tuple(as_vector(row) for row in rows))

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return len(self.points[0])

    @cached_property
    def int_form(self) -> tuple[list[tuple[int, ...]], int]:
        """Points as integer rows over one common positive denominator."""
        flat, den = _linalg.common_denominator([c for p in self.points for c in p])
        d = self.dim
        return [tuple(flat[i : i + d]) for i in range(0, len(flat), d)], den


@dataclass(frozen=True)
class QuantileLevel:
    """A level p in (0,1) tied to the sample size it will be used with."""

    p: Fraction
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", Fraction(self.p))
        if not 0 < self.p < 1:
            raise ValueError(f"p must lie strictly between 0 and 1, got {self.p}")
        if self.n < 1:
            raise ValueError("sample count must be at least 1")

    @cached_property
    def ceil_np(self) -> int:
        # standard ceiling: min{z in Z : z >= N p}
        return math.ceil(self.n * self.p)

    @property
    def is_valid(self) -> bool:
        """True when N*p is not an integer (unique-minimizer hypothesis)."""
        return (self.n * self.p).denominator != 1

    def require_valid(self) -> None:
        if not self.is_valid:
            from .errors import IntegralNp

            raise IntegralNp(
                f"N*p = {format_rational(self.n * self.p)} is an integer; "
                "the unique-minimizer hypothesis needs N*p to be non-integral"
            )


@dataclass(frozen=True)
class Cone:
    """Polyhedral convex cone generated by the rows of a matrix.

    Construct through :func:`validate_cone`, which certifies full
    dimensionality and freeness of lines.
    """

    generators: tuple[Vector, ...]

    @property
    def r(self) -> int:
        return len(self.generators)

    @property
    def dim(self) -> int:
        return len(self.generators[0])

    def dual_contains(self, w: Vector) -> bool:
        """Whether w is in the dual cone, i.e. g.w >= 0 for every generator."""
        return all(_linalg.dot(g, w) >= 0 for g in self.generators)

    @cached_property
    def dual_rays(self) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
        """Lines and extreme rays of the dual cone {w : g.w >= 0 for every
        generator g}, as primitive integer vectors from one double
        description run.  The cone is the set of x with x.r >= 0 for every
        such ray r and x.l = 0 for every such line l."""
        from .polyhedra import _dd_cone

        return _dd_cone([_linalg.primitive(g) for g in self.generators], self.dim)


def validate_cone(generators) -> Cone:
    """Check that the generator rows span the space and allow no line.

    Raises NotFullDimensional when rank < d and ContainsLine when some nonzero
    generator's negation is also in the cone (which is equivalent to the
    cone containing a line).  Full rank makes the dual cone pointed, and -g
    lies in the cone iff g is zero on every extreme ray of the dual cone.
    """
    rows = tuple(as_vector(g) for g in generators)
    if not rows:
        raise DimensionMismatch("a cone needs at least one generator row")
    d = len(rows[0])
    if d < 1 or any(len(g) != d for g in rows):
        raise DimensionMismatch("generator rows must share one dimension >= 1")
    rank = _linalg.int_rank([_linalg.primitive(g) for g in rows])
    if rank < d:
        raise NotFullDimensional(
            f"generators span a {rank}-dimensional subspace of "
            f"R^{d}; the cone has empty interior"
        )
    cone = Cone(rows)
    _, rays = cone.dual_rays
    for g in rows:
        if any(g) and all(_linalg.dot(g, r) == 0 for r in rays):
            raise ContainsLine(
                f"the cone is not free of lines: -({', '.join(map(format_rational, g))}) "
                "is also in the cone"
            )
    return cone


@dataclass(frozen=True)
class DualConeBasis:
    """A bounded slice {w : Yw >= 0, c.w = 1} of the dual cone.

    ``perm`` maps solver coordinates to the user's: solver coordinate i is
    user coordinate perm[i].  It is the identity unless the interior point had
    a zero last component, in which case one transposition makes the solver
    frame's last c-component nonzero.
    """

    cone: Cone
    c: Vector
    perm: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.cone.dim

    @property
    def is_permuted(self) -> bool:
        return self.perm != tuple(range(self.dim))

    def permute(self, v: Vector) -> Vector:
        """User frame -> solver frame."""
        return tuple(v[i] for i in self.perm)

    def unpermute(self, v: Vector) -> Vector:
        """Solver frame -> user frame."""
        out = [Fraction(0)] * self.dim
        for k, i in enumerate(self.perm):
            out[i] = v[k]
        return tuple(out)

    @cached_property
    def solver_c(self) -> Vector:
        return self.permute(self.c)

    @cached_property
    def solver_generators(self) -> tuple[Vector, ...]:
        return tuple(self.permute(g) for g in self.cone.generators)

    @property
    def sigma(self) -> int:
        """Sign of the solver frame's last c-component."""
        return 1 if self.solver_c[-1] > 0 else -1


def make_dual_basis(cone: Cone, c=None) -> DualConeBasis:
    """Build the dual-cone basis for a validated cone.

    When no interior point is supplied the sum of the generator rows is used;
    it is interior for every full-dimensional cone.  A supplied point is
    certified interior on the extreme rays and lines of the dual cone.
    """
    d = cone.dim
    if c is None:
        c_vec = tuple(sum((g[j] for g in cone.generators), Fraction(0)) for j in range(d))
    else:
        c_vec = as_vector(c)
        if len(c_vec) != d:
            raise DimensionMismatch(f"interior point has dimension {len(c_vec)}, cone has {d}")
    _certify_interior(cone, c_vec)
    last_nonzero = max((j for j in range(d) if c_vec[j] != 0), default=None)
    if last_nonzero is None:
        raise DegenerateBasis("interior point is the zero vector")
    perm = list(range(d))
    if last_nonzero != d - 1:
        perm[last_nonzero], perm[d - 1] = perm[d - 1], perm[last_nonzero]
    return DualConeBasis(cone=cone, c=c_vec, perm=tuple(perm))


def _certify_interior(cone: Cone, c: Vector) -> None:
    # c is interior iff c.w is positive on the base {w in the dual cone :
    # sum of Yw = 1}; every base point is a line plus a positive combination
    # of extreme rays, so that holds iff there is an extreme ray, c is zero
    # on every line and positive on every extreme ray
    lines, rays = cone.dual_rays
    if (
        not rays
        or any(_linalg.dot(c, ln) != 0 for ln in lines)
        or any(_linalg.dot(c, r) <= 0 for r in rays)
    ):
        raise NotInterior(
            f"({', '.join(map(format_rational, c))}) is not an interior point of the cone"
        )


def project_data(cloud: DataCloud, w) -> tuple[Fraction, ...]:
    """The scalar data set of inner products w.x for every point x."""
    w_vec = as_vector(w)
    if len(w_vec) != cloud.dim:
        raise DimensionMismatch(
            f"direction has dimension {len(w_vec)}, data has {cloud.dim}"
        )
    return tuple(_linalg.dot(w_vec, p) for p in cloud.points)
