"""Domain types: data clouds, quantile levels, cones and dual-cone bases.

All scalars are exact rationals (``fractions.Fraction``), except that a data
cloud is kept as integer rows over one common denominator and is read as
Fractions only on demand.  Every type here is an immutable value.

Text scalars are read by :func:`parse_rational`, and a row of them by
:func:`parse_int_row` as integers over one denominator.  Both accept exactly
what ``Fraction`` accepts from a string, with surrounding whitespace
ignored:

* a fraction ``[sign] digits "/" digits``, e.g. "-3/4" (no sign after the
  slash, nonzero denominator);
* a decimal ``[sign] digits ["." [digits]] [exponent]`` or
  ``[sign] "." digits [exponent]``, e.g. "12", "1.5", "5.", ".5", "1e3" and
  "1.5E-2", converted exactly; an exponent is "e" or "E", an optional sign
  and digits.

Here sign is "+" or "-", and digits are any Unicode decimal digits, not
only ASCII ones, with single underscores allowed between them ("1_000").
"inf", "nan", hexadecimal and a zero denominator are rejected, and so is an
exponent whose magnitude exceeds Python's integer string limit
(``sys.get_int_max_str_digits()``, 4300 by default): "1e4300" parses, but
"1e4301" and "1e-4301" do not, since the power of ten alone would take
minutes to build.  A limit of 0 lifts the bound.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import _linalg
from .errors import (
    ContainsLine,
    DimensionMismatch,
    IntegralNp,
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
        token = text.strip()
        _, e, exponent = token.lower().rpartition("e")
        # int() is 0, no limit, on a Python without the integer string limit
        limit = getattr(sys, "get_int_max_str_digits", int)()
        if e and limit and abs(int(exponent)) > limit:
            raise ValueError("exponent out of range")
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational from {text!r}") from exc


def parse_int_row(tokens) -> tuple[tuple[int, ...], int]:
    """Rational tokens, read as ``parse_rational`` reads them, as integers
    over their least common positive denominator.  A row of integer tokens
    is read by int() alone and builds no Fraction."""
    try:
        return tuple(map(int, tokens)), 1
    except ValueError:
        qs = [parse_rational(tok) for tok in tokens]
    nums, den = _linalg.common_denominator(qs)
    return tuple(nums), den


def format_rational(q: Fraction) -> str:
    """Render a rational as "a" or "a/b" (lowest terms, positive denominator)."""
    if type(q) is not Fraction:
        q = Fraction(q)
    return _ratio(q.numerator, q.denominator)


def _ratio(n: int, s: int) -> str:
    """The rational n / s, for integers n and s > 0, as ``format_rational``
    writes it: reduced by one gcd."""
    g = math.gcd(n, s)
    return str(n // g) if g == s else f"{n // g}/{s // g}"


def _vector_text(vec, name: str, sign: str = "") -> str:
    """``sign`` and "(a, b, ...)" for an error message, or ``name`` when an
    entry has more digits than Python's integer string conversion allows."""
    try:
        return f"{sign}({', '.join(map(format_rational, vec))})"
    except ValueError:
        return name


def as_vector(values) -> Vector:
    # a Fraction is immutable and already in lowest terms: keep it
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


def homogeneous_point(point, dim: int) -> tuple[int, ...]:
    """A rational point of dimension ``dim`` as integers (a, s), point = a / s
    with s > 0."""
    z = as_vector(point)
    if len(z) != dim:
        raise DimensionMismatch(f"point has dimension {len(z)}, expected {dim}")
    nums, den = _linalg.common_denominator(z)
    return (*nums, den)


@dataclass(frozen=True, init=False)
class DataCloud:
    """A finite collection of N points in d dimensions, duplicates allowed.

    The cloud is kept as ``int_form``: integer rows over the least common
    positive denominator of all coordinates.  ``points`` is the same cloud as
    tuples of rationals, built the first time it is read, or the points the
    cloud was constructed from, each entry read by ``as_vector``.  Equality
    and hashing are by value.  A one-column cloud is a scalar sample, the
    input of the univariate layer.
    """

    int_form: tuple[list[tuple[int, ...]], int]

    def __init__(self, points) -> None:
        points = tuple(map(as_vector, points))
        d = _row_width(points)
        flat, den = _linalg.common_denominator([c for p in points for c in p])
        rows = [tuple(flat[i : i + d]) for i in range(0, len(flat), d)]
        self.__dict__.update(int_form=(rows, den), points=points)

    @classmethod
    def from_rows(cls, rows) -> "DataCloud":
        return cls(rows)

    @classmethod
    def from_int_form(cls, rows, den: int) -> "DataCloud":
        """The cloud of the points row / den, for a list of integer row
        tuples and a positive integer den."""
        _row_width(rows)
        if den != 1:
            g = math.gcd(den, *(c for row in rows for c in row))
            if g != 1:
                rows, den = [tuple(c // g for c in row) for row in rows], den // g
        cloud = cls.__new__(cls)
        cloud.__dict__["int_form"] = (rows, den)
        return cloud

    @property
    def n(self) -> int:
        return len(self.int_form[0])

    @property
    def dim(self) -> int:
        return len(self.int_form[0][0])

    @cached_property
    def points(self) -> tuple[Vector, ...]:
        rows, den = self.int_form
        return tuple(tuple(Fraction(c, den) for c in row) for row in rows)

    def __hash__(self) -> int:
        # the rows are a list, which the generated hash could not hash
        rows, den = self.int_form
        return hash((tuple(rows), den))


def _row_width(rows) -> int:
    """The common length d >= 1 of a nonempty sequence of rows."""
    if not rows:
        raise DimensionMismatch("a data cloud needs at least one point")
    d = len(rows[0])
    if d < 1:
        raise DimensionMismatch("points must have at least one coordinate")
    if any(len(r) != d for r in rows):
        raise DimensionMismatch("all points must share the same dimension")
    return d


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
        if len(w) != self.dim:
            raise DimensionMismatch(f"direction has dimension {len(w)}, cone has {self.dim}")
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
    cone containing a line).  Both are read off one double description run
    of the dual cone: its lines are a basis of the generators' kernel, so
    rank = d - #lines.  Full rank makes the dual cone pointed, and -g lies
    in the cone iff g is zero on every extreme ray of the dual cone.
    """
    rows = tuple(as_vector(g) for g in generators)
    if not rows:
        raise DimensionMismatch("a cone needs at least one generator row")
    d = len(rows[0])
    if d < 1 or any(len(g) != d for g in rows):
        raise DimensionMismatch("generator rows must share one dimension >= 1")
    cone = Cone(rows)
    lines, rays = cone.dual_rays
    if lines:
        raise NotFullDimensional(
            f"generators span a {d - len(lines)}-dimensional subspace of "
            f"R^{d}; the cone has empty interior"
        )
    for k, g in enumerate(rows, 1):
        if any(g) and all(_linalg.dot(g, r) == 0 for r in rays):
            neg = _vector_text(g, f"the negation of generator row {k}", "-")
            raise ContainsLine(f"the cone is not free of lines: {neg} is also in the cone")
    return cone


def _check_fit(cloud: DataCloud, level: QuantileLevel, cone: Cone | None) -> None:
    """Raise DimensionMismatch unless the level is for the cloud's N and the
    cone, if any, has the cloud's dimension."""
    if level.n != cloud.n:
        raise DimensionMismatch(f"level is for N={level.n} but the cloud has {cloud.n}")
    if cone is not None and cone.dim != cloud.dim:
        raise DimensionMismatch(
            f"data dimension {cloud.dim} does not match cone dimension {cone.dim}"
        )


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
    _certify_interior(cone, c_vec)  # so c is nonzero
    last_nonzero = max(j for j in range(d) if c_vec[j] != 0)
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
            f"{_vector_text(c, 'the given interior point')} is not an interior point of the cone"
        )


def project_data(cloud: DataCloud, w) -> tuple[Fraction, ...]:
    """The scalar data set of inner products w.x for every point x, read
    from the cloud's integer rows: W.row over den w_den, with w = W / w_den."""
    w_vec = as_vector(w)
    if len(w_vec) != cloud.dim:
        raise DimensionMismatch(
            f"direction has dimension {len(w_vec)}, data has {cloud.dim}"
        )
    wn, w_den = _linalg.common_denominator(w_vec)
    rows, den = cloud.int_form
    scale = den * w_den
    return tuple(Fraction(_linalg.dot(wn, row), scale) for row in rows)
