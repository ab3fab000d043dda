"""Quantile regions assembled from dual solutions: cone quantiles, the
lifted construction for Tukey depth regions, membership tests and depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Cone,
    DataCloud,
    QuantileLevel,
    Vector,
    as_vector,
    make_dual_basis,
    validate_cone,
)
from .errors import DimensionMismatch, InternalInvariantError
from .polyhedra import Halfspace, Polyhedron, remove_redundant
from .vlp import BensonStats, benson_dual_solve, halfspaces_of

TUKEY_PROVENANCE = "tukey-lifted"
CONE_PROVENANCE = "cone-quantile"


@dataclass(frozen=True)
class QuantileRegion:
    """A polyhedral quantile region with its defining scalarizations.

    ``defining_entries`` are the (w, t) pairs whose halfspaces w.z >= t cut
    out the region; the region polyhedron is exactly their intersection.
    """

    region: Polyhedron
    defining_entries: tuple[tuple[Vector, Fraction], ...]
    level: QuantileLevel
    provenance: str
    stats: BensonStats | None = None


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
    hs = halfspaces_of(sol)
    region = Polyhedron.from_hrep(hs, dim=cloud.dim)
    return QuantileRegion(
        region=region,
        defining_entries=sol.entries,
        level=level,
        provenance=CONE_PROVENANCE,
        stats=sol.stats,
    )


def lift_dataset(cloud: DataCloud) -> DataCloud:
    """Append the negated coordinate sum so every lifted point sums to zero."""
    return DataCloud(
        tuple(p + (-sum(p, Fraction(0)),) for p in cloud.points)
    )


def unlift_normal(w) -> Vector:
    """Collapse a lifted normal: subtract the last component from the rest.

    Satisfies w.lift(x) = unlift(w).x for every point x.
    """
    w_vec = as_vector(w)
    if len(w_vec) < 2:
        raise DimensionMismatch("an unliftable normal needs at least 2 components")
    last = w_vec[-1]
    return tuple(wi - last for wi in w_vec[:-1])


def tukey_region(
    cloud: DataCloud, level: QuantileLevel, *, prune: bool = False
) -> QuantileRegion:
    """Tukey depth region via the zero-sum lifting.

    The lifted cloud is solved against the nonnegative orthant with the
    all-ones interior point (its last component is 1, so no permutation is
    ever needed); each entry's normal is unlifted.  A zero unlifted normal
    with t <= 0 is a vacuous constraint and is dropped; with t > 0 it would
    force emptiness (dead in practice: the only zero-unlift weight projects
    every lifted point to 0, making t = 0).  ``prune=True`` additionally runs
    redundancy removal on the unlifted halfspaces; the defining entries are
    preserved either way.
    """
    lifted = lift_dataset(cloud)
    d1 = lifted.dim
    one = Fraction(1)
    orthant = validate_cone(
        tuple(tuple(one if i == j else Fraction(0) for j in range(d1)) for i in range(d1))
    )
    basis = make_dual_basis(orthant, tuple(one for _ in range(d1)))
    sol = benson_dual_solve(lifted, level, basis)
    entries: list[tuple[Vector, Fraction]] = []
    halfspaces: list[Halfspace] = []
    forced_empty = False
    for w, t in sol.entries:
        lam = unlift_normal(w)
        if all(c == 0 for c in lam):
            if t > 0:
                forced_empty = True
            continue
        entries.append((lam, t))
        halfspaces.append(Halfspace(lam, t))
    if forced_empty:
        region = Polyhedron.empty(cloud.dim)
    else:
        region = Polyhedron.from_hrep(halfspaces, dim=cloud.dim)
        if prune:
            region = remove_redundant(region)
    return QuantileRegion(
        region=region,
        defining_entries=tuple(entries),
        level=level,
        provenance=TUKEY_PROVENANCE,
        stats=sol.stats,
    )


def region_membership(
    cloud: DataCloud,
    level: QuantileLevel,
    cone: Cone | None,
    z,
    *,
    region: QuantileRegion | None = None,
) -> bool:
    """Exact membership of z in the (cone or Tukey) quantile region.

    Computes the region unless a previously computed one is supplied.
    """
    z_vec = as_vector(z)
    if len(z_vec) != cloud.dim:
        raise DimensionMismatch("query point dimension does not match the data")
    if region is None:
        if cone is None:
            region = tukey_region(cloud, level)
        else:
            region = quantile_region(cloud, level, cone)
    return region.region.contains(z_vec)


def tukey_depth(cloud: DataCloud, z) -> int:
    """Largest k such that z lies in the depth-k region; 0 outside the hull.

    Sweeps levels downward using p = (k - 1/2)/N, which is always a valid
    level with count threshold exactly k.
    """
    z_vec = as_vector(z)
    if len(z_vec) != cloud.dim:
        raise DimensionMismatch("query point dimension does not match the data")
    n = cloud.n
    for k in range(n, 0, -1):
        level = QuantileLevel(Fraction(2 * k - 1, 2 * n), n)
        if level.ceil_np != k:
            raise InternalInvariantError("depth level does not have count threshold k")
        if tukey_region(cloud, level).region.contains(z_vec):
            return k
    return 0
