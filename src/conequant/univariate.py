"""Scalar machinery: empirical lower quantiles, the pinball loss, and the
greedy exact solver for the direction-scalarized transport program.

A scalar sample is a one-column ``DataCloud``: the quantile and the pinball
loss read its integer column, and build Fractions only for their results.

The greedy solver is the scalarization oracle of the Benson loop; its value
always equals the pinball-loss minimum (strong duality, asserted exactly in
the test suite against the simplex).

A Benson vertex costs one projection, one sort and a few slice sums.  A
:class:`Projector`, built once per cloud, packs each integer column into the
64-bit slots of one Python int, P_j = sum_i x_ij 2^(64 i) (Kronecker
substitution).  Each key W.x_i of an integer weight W goes into its slot
tagged with its index i in the low tau bits, tau = bit_length(N(N-1)/2):
the slots of B R 2^tau + I + sum_j W_j P_j 2^tau, with R = sum_i 2^(64 i),
I = sum_i i 2^(64 i) and the exact bound B = sum_j |W_j| max_i |x_ij|, are
(W.x_i + B) 2^tau + i.  Each lies in [0, 2B 2^tau + N - 1], so when that is
below 2^64, which is B < 2^(63 - tau) since N - 1 < 2^tau, no slot carries
into the next and a few big-int products and one byte conversion give all N
tagged keys.  A wider weight takes the direct
column-wise products with shift 0, tagged as (k << tau) | i, which floors
back to k for a negative k too.  The tagged keys are distinct, so one sort
gives both orders: the keys ascending (v >> tau), and the indices in key
order with equal keys lower index first (v & (2^tau - 1)).  The indices of
any subset sum to at most N(N-1)/2 < 2^tau, so the key sum of any run of the
sorted list is its sum >> tau, exactly.  Order, ties, bisection and the
pinball loss are unchanged by the common shift B, so only a quantile key
needs it subtracted.  Sorted once, the tagged keys give the quantile, the
key of ``ka[ceil(N p) - 1]``, and the pinball loss at a key t, two slice
sums either side of ``bisect_left(ka, t << tau)``.  Plain sorted keys are
the same form with tau = 0, as far as the quantile and the loss go.

The greedy transport solution is in closed form.  In units of
1/p.denominator, u-mass (cu = p.numerator per point) goes to the largest
keys and v-mass (cv = p.denominator - cu per point) to the smallest, equal
keys lower index first on both sides, for as long as the next u-receiver's
key exceeds the next v-receiver's.  After a transferred mass M the next
receivers are at descending position M // cu and ascending position M // cv,
so the stop condition -- a position passes N or the key of
``ka[N-1-M//cu]`` is at most the key of ``ka[M//cv]`` -- is monotone in M and
a bisection finds the least such M.  The receivers are then two prefixes of
the same sorted list, read as indices: the first M // cv entries, and the
first M // cu entries of the descending order, which are the keys above the
boundary key plus the lowest indices of its tie group.  At most one receiver
on each side takes a remainder.  The cut's support sum packs each row x_i
into one int the same way, sum_j x_ij 2^(s j), in signed slots of s bits
wide enough for the exact bound N pden max|x_ij| of every coordinate of the
sum, so that a group's rows add up in one C-level ``sum`` and the d
coordinates are read off the total as signed digits.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from collections.abc import Callable
from fractions import Fraction
from itertools import repeat
from operator import add, mul

from .core import DataCloud, QuantileLevel, _check_fit
from .errors import DimensionMismatch


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
    weights W, each tagged with its index i in the low ``tau`` bits, all N
    from one packed big-int combination when they fit a machine word (see
    the module docstring).  Built once per cloud."""

    def __init__(self, rows) -> None:
        n = len(rows)
        self.tau = tau = (n * (n - 1) // 2).bit_length()
        # B < 2^(63 - tau) exactly when every slot, at most 2B 2^tau + N - 1
        # with N - 1 < 2^tau, is below 2^64
        self._wide = _LIMIT >> (tau + 1)
        self._cols = list(zip(*rows))
        self._bounds = [max(map(abs, col)) for col in self._cols]
        self._bytes = n * _WORD
        ones = int.from_bytes(_words(repeat(1, n)), "little")
        self._ones = ones << tau
        self._index = int.from_bytes(_words(range(n)), "little")
        # P_j 2^tau from the offset slots x_ij + m_j in [0, 2 m_j]; a column
        # with m_j >= 2^(63 - tau) is never packed, since any weight that
        # uses it has B >= m_j and takes the direct products
        self._packed = [
            (int.from_bytes(_words([x + m for x in col]), "little") - m * ones) << tau
            if m < self._wide
            else None
            for col, m in zip(self._cols, self._bounds)
        ]

    def keys(self, weight) -> tuple[list[int], int]:
        """(slots, shift): slots[i] = (weight.x_i + shift) 2^tau + i, with
        shift >= 0 the same for every i."""
        shift = sum(map(mul, map(abs, weight), self._bounds))
        if shift >= self._wide:
            return _direct_keys(self._cols, weight, self.tau), 0
        total = shift * self._ones + self._index
        for wj, pj in zip(weight, self._packed):
            if wj:
                total += wj * pj
        return _words(total.to_bytes(self._bytes, "little")).tolist(), shift


def _direct_keys(cols: list[tuple[int, ...]], weight, tau: int) -> list[int]:
    """The keys weight.x_i by column-wise products, tagged as
    (key << tau) | i, for weights too wide for a machine word."""
    keys = repeat(0, len(cols[0]))
    for col, wj in zip(cols, weight):
        if wj:
            keys = map(add, keys, map(mul, col, repeat(wj)))
    return [(k << tau) | i for i, k in enumerate(keys)]


def _loss_num(ka: list[int], tau: int, t: int, p: Fraction) -> int:
    """Pinball loss at the key t of the sorted keys ka, tagged in tau bits,
    in units of 1/p.denominator of a key."""
    i = bisect_left(ka, t << tau)
    below = t * i - (sum(ka[:i]) >> tau)
    above = (sum(ka[i:]) >> tau) - t * (len(ka) - i)
    return p.numerator * above + (p.denominator - p.numerator) * below


def key_quantile_and_loss(ka: list[int], tau: int, level: QuantileLevel) -> tuple[int, int]:
    """The key of the ceil(N p)-th smallest of the sorted keys ka, tagged in
    tau bits, and the pinball loss there, in units of 1/p.denominator of a
    key."""
    t = ka[level.ceil_np - 1] >> tau
    return t, _loss_num(ka, tau, t, level.p)


def greedy_cut(ka: list[int], tau: int, p: Fraction) -> list[tuple[list[int], int]]:
    """The greedy optimum of the scalarized transport program as groups
    (indices, mass): every index of a group has u_i - v_i = mass, in integer
    units of 1/p.denominator, and an index in no group has u_i = v_i = 0.

    ``ka`` is the sorted keys, tagged with their indices in tau bits.  The
    transferred mass is the least M at which a position passes n or the key
    of ``ka[n-1-M//cu]`` is at most that of ``ka[M//cv]``; see the module
    docstring.
    """
    n = len(ka)
    cu = p.numerator
    cv = p.denominator - cu
    lo, hi = 0, n * min(cu, cv)
    while lo < hi:
        m = (lo + hi) // 2
        a, b = m // cu, m // cv
        if a >= n or b >= n or ka[n - 1 - a] >> tau <= ka[b] >> tau:
            hi = m
        else:
            lo = m + 1
    full_u, rem_u = divmod(lo, cu)
    full_v, rem_v = divmod(lo, cv)
    mask = (1 << tau) - 1
    top = [v & mask for v in _top(ka, tau, full_u + (rem_u > 0))]
    bottom = [v & mask for v in ka[: full_v + (rem_v > 0)]]
    groups = []
    if rem_u:
        groups.append(([top.pop()], rem_u))
    if rem_v:
        groups.append(([bottom.pop()], -rem_v))
    groups += [(top, cu), (bottom, -cv)]
    return groups


def _top(ka: list[int], tau: int, m: int) -> list[int]:
    """The first m tagged keys in descending key order, equal keys lower
    index first: the keys above the m-th largest key, then the lowest
    indices of its tie group, so that the m-th comes last."""
    if not m:
        return []
    n = len(ka)
    x = ka[n - m] >> tau
    right = bisect_left(ka, (x + 1) << tau, n - m)
    left = bisect_left(ka, x << tau, 0, n - m)
    return ka[right:] + ka[left : left + m - (n - right)]


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


def _sorted_column(cloud: DataCloud, level: QuantileLevel) -> tuple[list[int], int]:
    """The sorted integer keys of a one-column cloud over its denominator,
    after checking the column count and then the level's N."""
    if cloud.dim != 1:
        raise DimensionMismatch(f"a scalar sample has one column, the cloud has {cloud.dim}")
    _check_fit(cloud, level, None)
    rows, den = cloud.int_form
    return sorted(row[0] for row in rows), den


def quantile_direct(cloud: DataCloud, level: QuantileLevel) -> Fraction:
    """Smallest sample value whose at-or-below count reaches ceil(N p).

    Defined for every p in (0,1); multiset counting, so duplicates matter.
    The result is always a member of the sample.
    """
    keys, den = _sorted_column(cloud, level)
    return Fraction(keys[level.ceil_np - 1], den)


def pinball_loss(cloud: DataCloud, level: QuantileLevel, t) -> Fraction:
    """sum_i p*(x_i - t)^+ + (1-p)*(x_i - t)^-  (always >= 0)."""
    keys, den = _sorted_column(cloud, level)
    t = Fraction(t)
    # over the denominator den * t.denominator both t and every value are keys
    scaled = [x * t.denominator for x in keys]
    num = _loss_num(scaled, 0, t.numerator * den, level.p)
    return Fraction(num, den * t.denominator * level.p.denominator)


def minimize_pinball_loss(cloud: DataCloud, level: QuantileLevel) -> tuple[Fraction, Fraction]:
    """The unique pinball-loss minimizer and its value, by sorting.

    Requires N*p to be non-integral: that is what makes the minimizer unique
    and equal to the direct quantile.  Raises IntegralNp otherwise.
    """
    keys, den = _sorted_column(cloud, level)
    level.require_valid()
    t, loss = key_quantile_and_loss(keys, 0, level)
    return Fraction(t, den), Fraction(loss, den * level.p.denominator)
