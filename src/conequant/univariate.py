"""Scalar machinery: empirical lower quantiles, the pinball loss, and the
greedy exact solver for the direction-scalarized transport program.

The greedy solver is the scalarization oracle of the Benson loop; its value
always equals the pinball-loss minimum (strong duality, asserted exactly in
the test suite against the simplex).

A Benson vertex costs one projection, one sort and a few slice sums.  A
:class:`Projector`, built once per cloud, packs each integer column into the
64-bit slots of one Python int, P_j = sum_i x_ij 2^(64 i) (Kronecker
substitution).  The keys W.x_i of an integer weight W are then the slots of
B R + sum_j W_j P_j, with R = sum_i 2^(64 i) and the exact bound
B = sum_j |W_j| max_i |x_ij|: every slot holds W.x_i + B in [0, 2B], so
when 2B < 2^64 no slot carries into the next and a few big-int products and
one byte conversion give all N keys.  Order, ties, bisection and the
pinball loss are unchanged by the common shift B, so only a quantile key
needs it subtracted.  A wider weight takes the direct column-wise products
with shift 0.  Sorted once, the keys give the quantile,
``ka[ceil(N p) - 1]``, and the pinball loss at a key t, two slice sums either
side of ``bisect_left(ka, t)``; ``asc`` is the index order, ties lower index
first, needed only for a cut.

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
remainder.  The cut's support sum packs each row x_i into one int the same
way, sum_j x_ij 2^(s j), in signed slots of s bits wide enough for the exact
bound N pden max|x_ij| of every coordinate of the sum, so that a group's
rows add up in one C-level ``sum`` and the d coordinates are read off the
total as signed digits.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import add, mul

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


# One unsigned machine word per key: the slot of the packed projection.
_WORD = array("Q").itemsize
_LIMIT = 1 << (8 * _WORD)


def _words(values) -> array:
    """Unsigned machine words in little-endian byte order on every machine:
    ``values`` are either the words or their little-endian bytes."""
    words = array("Q", values)
    if sys.byteorder == "big":
        words.byteswap()
    return words


class Projector:
    """The integer keys W.x_i of a cloud's integer rows x_i for integer
    weights W, all N from one packed big-int combination when they fit a
    machine word (see the module docstring).  Built once per cloud."""

    def __init__(self, rows) -> None:
        n = len(rows)
        self._cols = list(zip(*rows))
        self._bounds = [max(map(abs, col)) for col in self._cols]
        self._bytes = n * _WORD
        self._ones = ones = int.from_bytes(_words(repeat(1, n)), "little")
        # P_j from the offset slots x_ij + m_j in [0, 2 m_j]; a column with
        # 2 m_j >= 2^64 is never packed, since any weight that uses it has
        # 2B >= 2^64 and takes the direct products
        self._packed = [
            int.from_bytes(_words([x + m for x in col]), "little") - m * ones
            if 2 * m < _LIMIT
            else None
            for col, m in zip(self._cols, self._bounds)
        ]

    def keys(self, weight) -> tuple[list[int], int]:
        """(keys, shift): keys[i] - shift = weight.x_i, with shift >= 0 the
        same for every i."""
        shift = sum(map(mul, map(abs, weight), self._bounds))
        if 2 * shift >= _LIMIT:
            return _direct_keys(self._cols, weight), 0
        total = shift * self._ones
        for wj, pj in zip(weight, self._packed):
            if wj:
                total += wj * pj
        return _words(total.to_bytes(self._bytes, "little")).tolist(), shift


def _direct_keys(cols: list[tuple[int, ...]], weight) -> list[int]:
    """The keys weight.x_i by column-wise products, for weights too wide for
    a machine word."""
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


def support_summer(
    rows, pden: int
) -> Callable[[list[tuple[list[int], int]]], tuple[int, ...]]:
    """The support sum of :func:`greedy_cut`'s groups, sum_i x_i (u_i - v_i)
    in integers, for a cloud's integer rows and masses in units of 1/pden:
    the support point times den * pden.

    Every |u_i - v_i| is below pden, so no coordinate of a sum exceeds
    N pden max|x_ij| in magnitude, and each row is packed once into signed
    slots wide enough for that bound (see the module docstring).
    """
    d = len(rows[0])
    bound = len(rows) * pden * max(abs(x) for row in rows for x in row)
    width = bound.bit_length() + 1
    packed = [sum(x << (width * j) for j, x in enumerate(row)) for row in rows]
    mask, half = (1 << width) - 1, 1 << (width - 1)

    def support_sum(groups: list[tuple[list[int], int]]) -> tuple[int, ...]:
        total = sum(mass * sum(map(packed.__getitem__, idx)) for idx, mass in groups)
        y = []
        for _ in range(d):
            # the lowest slot as a signed digit in [-half, half)
            digit = ((total + half) & mask) - half
            y.append(digit)
            total = (total - digit) >> width
        return tuple(y)

    return support_sum


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
