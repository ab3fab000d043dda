"""Quantile regions assembled from dual solutions: cone quantiles and the
lifted construction for Tukey depth regions.  Depth and membership come
from one direct count, without a region: the Tukey depth, and the cone
depth whose level sets are the cone quantile regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import gcd, lcm
from operator import mul, sub

from ._linalg import common_denominator, echelon, half_turn_key, primitive
from .core import (
    Cone,
    DataCloud,
    QuantileLevel,
    Vector,
    _check_fit,
    homogeneous_point,
    make_dual_basis,
    validate_cone,
)
from .errors import InternalInvariantError
from .polyhedra import Polyhedron
from .vlp import BensonStats, benson_dual_solve, entry_pairs

TUKEY_PROVENANCE = "tukey-lifted"
CONE_PROVENANCE = "cone-quantile"


@dataclass(frozen=True)
class QuantileRegion:
    """A polyhedral quantile region with its defining scalarizations.

    ``entry_records`` hold one integer record (n_1, ..., n_d, m, s) with
    s > 0 per defining scalarization (w, t) = (n / s, m / s); the halfspaces
    w.z >= t cut out the region, and the region polyhedron is exactly their
    intersection.  A record need not be in lowest terms: the document
    reduces each scalar with one gcd.  ``defining_entries`` reads the
    records as (w, t) pairs of Fractions, built when first read, and
    ``from_pairs`` makes a region from such pairs.  A solved region's
    polyhedron is made from the records (see ``_region``), so its
    ``halfspaces`` are the entries' halfspaces at primitive integer scale,
    in the order the double description took them.
    """

    region: Polyhedron
    entry_records: tuple[tuple[int, ...], ...]
    level: QuantileLevel
    provenance: str
    stats: BensonStats | None = None

    @classmethod
    def from_pairs(
        cls, region: Polyhedron, pairs, level: QuantileLevel, provenance: str
    ) -> "QuantileRegion":
        """A region, with no solver stats, whose entries are given as (w, t)
        pairs of rationals."""
        records = []
        for w, t in pairs:
            nums, den = common_denominator((*w, t))
            records.append((*nums, den))
        return cls(region, tuple(records), level, provenance)

    @cached_property
    def defining_entries(self) -> tuple[tuple[Vector, Fraction], ...]:
        return entry_pairs(self.entry_records)


def quantile_region(
    cloud: DataCloud, level: QuantileLevel, cone: Cone, c=None
) -> QuantileRegion:
    """The lower cone quantile of the cloud at the given level.

    Solves the geometric dual on the cone's basis and intersects one
    halfspace per solution entry.  Any coordinate permutation used to make
    the interior point's last component nonzero is undone on output.  The
    region can be unbounded (its recession cone contains the cone) but is
    never empty for a validated cone.
    """
    basis = make_dual_basis(cone, c)
    sol = benson_dual_solve(cloud, level, basis)
    return _region(cloud, level, sol.records, CONE_PROVENANCE, sol.stats)


def lift_dataset(cloud: DataCloud) -> DataCloud:
    """Append the negated coordinate sum so every lifted point sums to zero:
    each integer row of ``cloud.int_form`` gets -sum(row) over the same
    denominator, so no rational point is built."""
    rows, den = cloud.int_form
    return DataCloud.from_int_form([(*row, -sum(row)) for row in rows], den)


def tukey_region(cloud: DataCloud, level: QuantileLevel) -> QuantileRegion:
    """Tukey depth region via the zero-sum lifting.

    The lifted cloud is solved against the nonnegative orthant with the
    all-ones interior point (its last component is 1, so no permutation is
    ever needed).  Each entry's record (n, m, s) is unlifted in integers to
    ((n_j - n_d)_{j<d}, m, s): the lifted weight w = n / s unlifts to
    lambda_j = w_j - w_d, and the offset and scale stay.  A zero lambda
    with t <= 0 is a vacuous constraint and is dropped.  One with t > 0
    cannot occur: the only weight that unlifts to zero projects every lifted
    point to 0, so its t is 0.  It raises InternalInvariantError.
    """
    lifted = lift_dataset(cloud)
    d1 = lifted.dim
    orthant = validate_cone(tuple(tuple(int(i == j) for j in range(d1)) for i in range(d1)))
    basis = make_dual_basis(orthant, (1,) * d1)
    sol = benson_dual_solve(lifted, level, basis)
    records = []
    for *head, m, s in sol.records:
        lam = [v - head[-1] for v in head[:-1]]
        if not any(lam):
            if m > 0:
                raise InternalInvariantError(
                    "an entry with a zero unlifted normal has a positive offset"
                )
            continue
        records.append((*lam, m, s))
    return _region(cloud, level, tuple(records), TUKEY_PROVENANCE, sol.stats)


def _region(
    cloud: DataCloud, level: QuantileLevel, records, provenance: str, stats
) -> QuantileRegion:
    """The region of the entry records (n, m, s), the intersection of the
    halfspaces (n / s).z >= m / s: each record's row is primitive((n, -m))
    over (z, 1).  The rows are ordered for the double description:
    ascending in the signed squared distance from the data centroid to the
    row's hyperplane, so the rows the centroid violates most come first and
    then the nearest ones, which are the likeliest facets.  With the
    centroid scaled by N den to the integer column sums, the key is that
    distance times (N den)^2, floored, so it is exact and never overflows.
    """
    points, den = cloud.int_form
    total = [sum(col) for col in zip(*points)]
    nden = cloud.n * den

    def key(r):
        s = sum(map(mul, total, r)) + nden * r[-1]
        q = s * s // sum(v * v for v in r[:-1])
        return q if s >= 0 else -q

    if any(rec[-1] <= 0 for rec in records):
        raise InternalInvariantError("an entry's weight has c.w <= 0")
    rows = [primitive((*n, -m)) for *n, m, _ in records]
    region = Polyhedron._from_rows(sorted(rows, key=key), dim=cloud.dim)
    return QuantileRegion(region, records, level, provenance, stats)


def region_membership(
    cloud: DataCloud, level: QuantileLevel, cone: Cone | None, z
) -> bool:
    """Exact membership of z in the cone quantile region, or in the Tukey
    region when ``cone`` is None: z is a member iff its depth is at least
    ceil(N p).  The depth is counted directly; no region is solved.
    """
    level.require_valid()
    _check_fit(cloud, level, cone)
    generators = () if cone is None else cone.generators
    return _depth(cloud, homogeneous_point(z, cloud.dim), generators) >= level.ceil_np


def tukey_depth(cloud: DataCloud, z) -> int:
    """Tukey (halfspace) depth of z: the least number of data points in a
    closed halfspace whose boundary passes through z.  It is the largest k
    with z in the depth-k region, and 0 outside the convex hull.  Counted
    directly in integers; no region is solved.
    """
    return _depth(cloud, homogeneous_point(z, cloud.dim), ())


def _depth(cloud: DataCloud, point, generators) -> int:
    """Depth of z = a / s, given as the integer vector ``point`` (a, s) with
    s > 0, under the cone C generated by ``generators``: the least
    #{i : w.(x_i - z) <= 0} over the nonzero w in the dual cone C+ (Hamel &
    Kostner, 2018).  It is the largest k with z in the lower cone quantile
    region at k; with no generators, C+ is every direction and this is the
    Tukey depth.

    With y_i = x_i - z scaled to integers, points equal to z count for
    every w.  For the rest, the least is reached inside an open cell of the
    central arrangement {w.y_i = 0}, because the count at a w on a cell's
    boundary is never below the count inside the cells next to it.  Each
    nonzero generator g enters the arrangement too, with multiplicity N + 1,
    so every cell outside C+ counts more than N.  C+ is full-dimensional, so
    every w in it borders a cell inside it, and the least over all cells is
    the least over C+.

    A linear bijection A of the vectors' span S onto R^r keeps every count:
    w.y = (A^-T w).(A y) for y in S, and the counts at w depend only on w
    restricted to S, so each cell maps onto a cell.  So the vectors are put
    in r integer coordinates of S, their pivot coordinates: the rows of
    ``echelon`` are D times the reduced row echelon form, so a vector of S
    is the sum of y_p / D times pivot row p, and its pivot entries y_p
    determine it.  A line is padded to the plane, and d = 1 is a line with
    no elimination.  In the plane one angular sweep over the normals finds
    the least count in O(N log N) (Rousseeuw & Ruts, AS 307, 1996).  A span
    r >= 3 is reduced to the hyperplanes y_i^perp, each a problem of span
    r - 1 (after Dyckerhoff & Mozharovskyi, 2016), so it costs
    O(N^(r-1) log N).
    """
    rows, den = cloud.int_form
    *z_ints, z_den = point
    scale = lcm(den, z_den)
    if scale != den:
        rows = [tuple(a * (scale // den) for a in row) for row in rows]
    z_ints = [c * (scale // z_den) for c in z_ints]
    at_z = 0
    counts: dict[tuple[int, ...], int] = {}
    for row in rows:
        y = tuple(map(sub, row, z_ints))
        g = gcd(*y)
        if g == 0:
            at_z += 1
            continue
        if g > 1:
            y = tuple(v // g for v in y)
        counts[y] = counts.get(y, 0) + 1
    for g in generators:
        if any(g):
            g = primitive(g)
            counts[g] = counts.get(g, 0) + cloud.n + 1
    if not counts:
        return at_z
    if cloud.dim != 2:
        pivots = echelon(list(counts))[1] if cloud.dim > 2 else [0]
        pad = (0,) * (len(pivots) == 1)
        counts = {primitive((*(y[p] for p in pivots), *pad)): c for y, c in counts.items()}
    return at_z + _least_count(counts)


def _least_count(counts: dict[tuple[int, ...], int]) -> int:
    """Least #{y : w.y < 0} over the w orthogonal to no y, counting each
    distinct primitive vector y with its multiplicity ``counts[y]``; the
    vectors span R^r, r >= 2, for their length r.  At r = 2 it is the sweep.

    Every open cell has a facet on some hyperplane u^perp.  Next to it, the
    cell counts the vectors parallel to u on its side, plus the count at a
    point w of the facet, which sees each other y only modulo u.  With u_p
    the first nonzero entry of u, the map Q y = (u_p y_k - u_k y_p)_{k != p}
    has kernel span(u), so it is a linear bijection of R^r / span(u) onto
    R^(r-1), and every w in u^perp is Q^T w' for one w'.  Then
    w.y = w'.(Q y): the count at w is the count at w' over the vectors Q y,
    made primitive, and each cell maps onto a cell.  The vectors Q y span
    R^(r-1), as the y span R^r, so no level of the recursion is empty.
    """
    if len(next(iter(counts))) == 2:
        return _planar_least_count(counts)
    best = sum(counts.values())
    done: set[tuple[int, ...]] = set()
    for u, same in counts.items():
        opposite = tuple(-c for c in u)
        if opposite in done:
            continue
        done.add(u)
        p = next(k for k, a in enumerate(u) if a)
        up = u[p]
        rest: dict[tuple[int, ...], int] = {}
        for y, c in counts.items():
            if y != u and y != opposite:
                yp = y[p]
                q = [up * b - a * yp for a, b in zip(u, y)]
                del q[p]
                v = primitive(q)
                rest[v] = rest.get(v, 0) + c
        parallel = min(same, counts.get(opposite, 0))
        best = min(best, parallel + _least_count(rest))
    return best


def _planar_least_count(counts: dict[tuple[int, int], int]) -> int:
    """Least #{y : w.y < 0} over planar w orthogonal to no y, by one
    angular sweep (Rousseeuw & Ruts, AS 307, 1996).  Turning w
    counter-clockwise, y starts to count at rot90(y) and stops at
    rot270(y) = -rot90(y).

    So the events come in opposite pairs with opposite steps, and exactly
    one of each pair lies in the upper half-plane H: b > 0, or b = 0 and
    a > 0.  A half turn maps H onto the other half in the same angular order,
    so the sweep's whole order is the events in H, sorted, followed by their
    negations: only half of the events are sorted.  Within H, u comes before
    v exactly when the cross product u x v is positive.
    """
    events: dict[tuple[int, int], int] = {}
    for (a, b), c in counts.items():
        if a > 0 or (a == 0 and b < 0):  # rot90(y) = (-b, a) is in H
            events[(-b, a)] = events.get((-b, a), 0) + c
        else:
            events[(b, -a)] = events.get((b, -a), 0) - c
    order = sorted(events, key=half_turn_key)
    steps = [events[e] for e in order]
    steps += [-s for s in steps]
    # the count just counter-clockwise of the first event, at g + eps*rot90(g)
    g0, g1 = order[0]
    count = sum(
        c for (a, b), c in counts.items() if (g0 * a + g1 * b, g0 * b - g1 * a) < (0, 0)
    )
    return min(accumulate(steps[1:], initial=count))
