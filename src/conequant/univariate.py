"""Scalar machinery: empirical lower quantiles, the pinball loss, and the
greedy exact solver for the direction-scalarized transport program.

The greedy solver is the scalarization oracle of the Benson loop; its value
always equals the pinball-loss minimum (strong duality, asserted exactly in
the test suite against the simplex).

A Benson vertex costs one projection, one sort and a few slice sums.  The
cloud is projected column by column onto an integer weight, and the keys are
sorted once: ``asc`` is the index order, ties lower index first, and ``ka``
the keys in that order.  The quantile is ``ka[ceil(N p) - 1]``, and the
pinball loss at a key t is two slice sums either side of
``bisect_left(ka, t)``.

The greedy transport solution is in closed form.  In units of
1/p.denominator, u-mass (cu = p.numerator per point) goes to the largest
keys and v-mass (cv = p.denominator - cu per point) to the smallest, equal
keys lower index first on both sides, for as long as the next u-receiver's
key exceeds the next v-receiver's.  After a transferred mass M the next
receivers are at descending position M // cu and ascending position M // cv,
so the stop condition -- a position passes N or
``ka[N-1-M//cu] <= ka[M//cv]`` -- is monotone in M and a bisection finds the
least such M.  The receivers are then two index prefixes of the one sort:
the first M // cv entries of ``asc``, and the first M // cu entries of the
descending order, which are the keys above the boundary key plus the lowest
indices of its tie group.  At most one receiver on each side takes a
remainder.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import add, itemgetter, mul

from ._linalg import common_denominator
from .core import QuantileLevel
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
# statistics, the pinball loss and the greedy transport solution all run on
# those keys, and Fractions appear only in results.


def project_keys(cols: list[tuple[int, ...]], weight: tuple[int, ...]) -> list[int]:
    """The integer keys weight.x_i, for a cloud given by the columns of its
    ``int_form`` rows and an integer weight."""
    keys = None
    for col, wj in zip(cols, weight):
        if wj:
            term = map(mul, col, repeat(wj))
            keys = term if keys is None else map(add, keys, term)
    return [0] * len(cols[0]) if keys is None else list(keys)


def ascending(keys: list[int]) -> list[int]:
    """Indices in ascending key order; equal keys keep the lower index first."""
    return sorted(range(len(keys)), key=keys.__getitem__)


def _loss_num(ka: list[int], t: int, p: Fraction) -> int:
    """Pinball loss at the key t of the sorted keys ka, in units of
    1/p.denominator of a key."""
    i = bisect_left(ka, t)
    below = t * i - sum(ka[:i])
    above = sum(ka[i:]) - t * (len(ka) - i)
    return p.numerator * above + (p.denominator - p.numerator) * below


def key_quantile_and_loss(ka: list[int], level: QuantileLevel) -> tuple[int, int]:
    """The ceil(N p)-th smallest of the sorted keys ka and the pinball loss
    there, in units of 1/p.denominator of a key."""
    t = ka[level.ceil_np - 1]
    return t, _loss_num(ka, t, level.p)


def quantile_and_loss(
    ka: list[int], den: int, level: QuantileLevel
) -> tuple[Fraction, Fraction]:
    """The ceil(N p)-th smallest value and the pinball loss there, for sorted
    keys over den."""
    t, loss = key_quantile_and_loss(ka, level)
    return Fraction(t, den), Fraction(loss, den * level.p.denominator)


def greedy_cut(ka: list[int], asc: list[int], p: Fraction) -> list[tuple[list[int], int]]:
    """The greedy optimum of the scalarized transport program as groups
    (indices, mass): every index of a group has u_i - v_i = mass, in integer
    units of 1/p.denominator, and an index in no group has u_i = v_i = 0.

    ``asc`` is ``ascending(keys)`` and ``ka`` the keys in that order.  The
    transferred mass is the least M at which a position passes n or
    ``ka[n-1-M//cu] <= ka[M//cv]``; see the module docstring.
    """
    n = len(ka)
    cu = p.numerator
    cv = p.denominator - cu
    lo, hi = 0, n * min(cu, cv)
    while lo < hi:
        m = (lo + hi) // 2
        a, b = m // cu, m // cv
        if a >= n or b >= n or ka[n - 1 - a] <= ka[b]:
            hi = m
        else:
            lo = m + 1
    full_u, rem_u = divmod(lo, cu)
    full_v, rem_v = divmod(lo, cv)
    top = _top(ka, asc, full_u + (rem_u > 0))
    bottom = asc[: full_v + (rem_v > 0)]
    groups = []
    if rem_u:
        groups.append(([top.pop()], rem_u))
    if rem_v:
        groups.append(([bottom.pop()], -rem_v))
    groups += [(top, cu), (bottom, -cv)]
    return groups


def _top(ka: list[int], asc: list[int], m: int) -> list[int]:
    """The first m indices in descending key order, equal keys lower index
    first: the keys above the m-th largest key, then the lowest indices of
    its tie group, so that the m-th index comes last."""
    if not m:
        return []
    n = len(ka)
    x = ka[n - m]
    right = bisect_right(ka, x, n - m)
    left = bisect_left(ka, x, 0, n - m)
    return asc[right:] + asc[left : left + m - (n - right)]


def support_sum(
    cols: list[tuple[int, ...]], groups: list[tuple[list[int], int]]
) -> tuple[int, ...]:
    """sum_i x_i (u_i - v_i) in integers: the support point times
    den * pden, for a cloud's ``int_form`` columns and the groups of
    :func:`greedy_cut`."""
    y = [0] * len(cols)
    for idx, mass in groups:
        # itemgetter returns a tuple only for two or more indices
        pick = itemgetter(*idx) if len(idx) > 1 else lambda col: [col[i] for i in idx]
        for j, col in enumerate(cols):
            y[j] += mass * sum(pick(col))
    return tuple(y)


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
    scaled = [x * t.denominator for x in sorted(keys)]
    num = _loss_num(scaled, t.numerator * den, level.p)
    return Fraction(num, den * t.denominator * level.p.denominator)


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
    return quantile_and_loss(sorted(keys), den, level)
