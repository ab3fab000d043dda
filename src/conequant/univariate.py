"""Scalar machinery: empirical lower quantiles, the pinball loss, and the
greedy exact solver for the direction-scalarized transport program.

The greedy solver is the scalarization oracle of the Benson loop; its value
always equals the pinball-loss minimum (strong duality, asserted exactly in
the test suite against the simplex).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from ._linalg import common_denominator
from .core import DataCloud, QuantileLevel, Vector, as_vector
from .errors import DimensionMismatch


@dataclass(frozen=True)
class ScalarSample:
    """A finite multiset of rationals, e.g. a projected data cloud."""

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise DimensionMismatch("a scalar sample needs at least one value")

    @classmethod
    def from_values(cls, values) -> "ScalarSample":
        return cls(tuple(Fraction(v) for v in values))

    @property
    def n(self) -> int:
        return len(self.values)

    @cached_property
    def keys(self) -> tuple[list[int], int]:
        """The values as integer keys over one common denominator."""
        return common_denominator(self.values)


# The integer scalar layer.  A cloud projected onto a rational direction is a
# list of integer keys over one common denominator; ordering, order
# statistics, the pinball loss, threshold counts and the greedy transport
# solution all run on those keys, and Fractions appear only in results.


def project(rows: list[tuple[int, ...]], den: int, w: Vector) -> tuple[list[int], int]:
    """Keys and their denominator for the projections w.x_i.

    ``rows``/``den`` is a cloud's ``int_form``; w.x_i == keys[i] / kden with
    kden = den * lcm(denominators of w).
    """
    wnums, wden = common_denominator(w)
    return [sum(map(mul, wnums, row)) for row in rows], wden * den


def ascending(keys: list[int]) -> list[int]:
    """Indices in ascending key order; equal keys keep the lower index first."""
    return sorted(range(len(keys)), key=keys.__getitem__)


def count_le(keys: list[int], den: int, t: Fraction) -> int:
    """#{i : keys[i] / den <= t}."""
    # integer keys: key <= t*den exactly when key <= floor(t*den)
    bound = t.numerator * den // t.denominator
    return sum(1 for x in keys if x <= bound)


def _loss_num(keys: list[int], t: int, p: Fraction) -> int:
    """Pinball loss at the key t, in units of 1/(den * p.denominator)."""
    above = sum(x - t for x in keys if x > t)
    below = sum(t - x for x in keys if x < t)
    return p.numerator * above + (p.denominator - p.numerator) * below


def key_quantile_and_loss(
    keys: list[int], asc: list[int], level: QuantileLevel
) -> tuple[int, int]:
    """The ceil(N p)-th smallest key and the pinball loss there, in units of
    1/p.denominator of a key."""
    t = keys[asc[level.ceil_np - 1]]
    return t, _loss_num(keys, t, level.p)


def quantile_and_loss(
    keys: list[int], den: int, asc: list[int], level: QuantileLevel
) -> tuple[Fraction, Fraction]:
    """The ceil(N p)-th smallest value and the pinball loss there."""
    t, loss = key_quantile_and_loss(keys, asc, level)
    return Fraction(t, den), Fraction(loss, den * level.p.denominator)


def greedy_masses(
    keys: list[int], asc: list[int], p: Fraction
) -> tuple[list[int], list[int]]:
    """The greedy optimum (u, v) of the scalarized transport program, in
    integer units of 1/p.denominator.

    Feed u-mass (capacity p per point) to the largest keys and v-mass
    (capacity 1-p per point) to the smallest, growing the common budget while
    the marginal gain is positive and splitting at the stop.  Among equal keys
    the lower index is served first on both sides, which makes the solution
    reproducible.  ``asc`` is ``ascending(keys)``.
    """
    n = len(keys)
    # reverse=True keeps equal keys in index order
    desc = sorted(range(n), key=keys.__getitem__, reverse=True)
    cap_u = p.numerator
    cap_v = p.denominator - p.numerator
    u = [0] * n
    v = [0] * n
    hi = 0  # next u receiver, walking the descending order
    lo = 0  # next v receiver, walking the ascending order
    room_u = cap_u
    room_v = cap_v
    while hi < n and lo < n:
        iu = desc[hi]
        iv = asc[lo]
        if keys[iu] <= keys[iv]:
            break
        step = min(room_u, room_v)
        u[iu] += step
        v[iv] += step
        room_u -= step
        room_v -= step
        if room_u == 0:
            hi += 1
            room_u = cap_u
        if room_v == 0:
            lo += 1
            room_v = cap_v
    return u, v


def support_sum(rows: list[tuple[int, ...]], u: list[int], v: list[int]) -> tuple[int, ...]:
    """sum_i rows[i] (u_i - v_i) in integers: the support point times
    den * pden, for a cloud's ``int_form`` and masses in units of 1/pden."""
    active = [(row, a - b) for row, a, b in zip(rows, u, v) if a != b]
    return tuple(sum(row[j] * m for row, m in active) for j in range(len(rows[0])))


def support_point(
    rows: list[tuple[int, ...]], den: int, u: list[int], v: list[int], pden: int
) -> Vector:
    """sum_i x_i (u_i - v_i) for a cloud's ``int_form`` and masses in units
    of 1/pden."""
    scale = den * pden
    return tuple(Fraction(y, scale) for y in support_sum(rows, u, v))


def _check_count(sample: ScalarSample, level: QuantileLevel) -> None:
    if level.n != sample.n:
        raise DimensionMismatch(
            f"level is for N={level.n} but the sample has {sample.n} values"
        )


def quantile_direct(sample: ScalarSample, level: QuantileLevel) -> Fraction:
    """Smallest sample value whose at-or-below count reaches ceil(N p).

    Defined for every p in (0,1); multiset counting, so duplicates matter.
    The result is always a member of the sample.
    """
    _check_count(sample, level)
    keys, den = sample.keys
    return Fraction(sorted(keys)[level.ceil_np - 1], den)


def pinball_loss(sample: ScalarSample, level: QuantileLevel, t) -> Fraction:
    """sum_i p*(x_i - t)^+ + (1-p)*(x_i - t)^-  (always >= 0)."""
    _check_count(sample, level)
    t = Fraction(t)
    keys, den = sample.keys
    # over the denominator den * t.denominator both t and every value are keys
    scaled = [x * t.denominator for x in keys]
    num = _loss_num(scaled, t.numerator * den, level.p)
    return Fraction(num, den * t.denominator * level.p.denominator)


def pinball_right_derivative(sample: ScalarSample, level: QuantileLevel, t) -> Fraction:
    """One-sided derivative of the pinball loss at t in direction +1.

    Equals #{x <= t} - N*p; strictly negative left of the minimizer and
    nonnegative from the minimizer on.
    """
    _check_count(sample, level)
    keys, den = sample.keys
    return count_le(keys, den, Fraction(t)) - level.n * level.p


def minimize_pinball_loss(
    sample: ScalarSample, level: QuantileLevel
) -> tuple[Fraction, Fraction]:
    """The unique pinball-loss minimizer and its value, by sorting.

    Requires N*p to be non-integral: that is what makes the minimizer unique
    and equal to the direct quantile.  Raises IntegralNp otherwise.
    """
    _check_count(sample, level)
    level.require_valid()
    keys, den = sample.keys
    return quantile_and_loss(keys, den, ascending(keys), level)


@dataclass(frozen=True)
class ScalarizedSolution:
    """An optimal (u, v) of the scalarized transport program.

    Feasibility: 0 <= u <= p, 0 <= v <= 1-p componentwise and the total
    masses agree.  ``support_point`` is sum_i x_i (u_i - v_i), the image
    point that furnishes valid cuts for the dual Benson iteration.
    """

    u: tuple[Fraction, ...]
    v: tuple[Fraction, ...]
    value: Fraction
    support_point: Vector


def solve_scalarized_lp(
    cloud: DataCloud, level: QuantileLevel, w
) -> ScalarizedSolution:
    """Maximize sum_i (w.x_i)(u_i - v_i) by the greedy pairing rule of
    :func:`greedy_masses` on the projections."""
    w_vec = as_vector(w)
    if len(w_vec) != cloud.dim:
        raise DimensionMismatch(
            f"direction has dimension {len(w_vec)}, data has {cloud.dim}"
        )
    if level.n != cloud.n:
        raise DimensionMismatch(f"level is for N={level.n} but the cloud has {cloud.n}")
    rows, den = cloud.int_form
    keys, kden = project(rows, den, w_vec)
    u, v = greedy_masses(keys, ascending(keys), level.p)
    pd = level.p.denominator
    return ScalarizedSolution(
        u=tuple(Fraction(a, pd) for a in u),
        v=tuple(Fraction(b, pd) for b in v),
        value=Fraction(sum(x * (a - b) for x, a, b in zip(keys, u, v)), kden * pd),
        support_point=support_point(rows, den, u, v, pd),
    )
