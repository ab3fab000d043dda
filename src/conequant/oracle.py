"""Independent brute-force verifiers.

The planar oracle rebuilds regions straight from the defining intersection
over all directions: the direction-indexed quantile is piecewise constant,
changing only across directions orthogonal to some difference of data
points, so finitely many critical directions plus one interior direction per
arc give the exact region.  It deliberately shares nothing with the dual
solver except the direct quantile and the final halfspace-intersection
utility.  A Tukey region in any dimension is checked exactly on both sides
against the direct depth count; cone regions in higher dimensions get
one-sided sampled membership checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

from ._linalg import angle_key, cross, dot, int_rank, primitive
from .core import (
    Cone,
    DataCloud,
    QuantileLevel,
    Vector,
    as_vector,
    format_rational,
    make_dual_basis,
)
from .errors import DimensionMismatch, DimensionNot2, InternalInvariantError
from .polyhedra import Halfspace, Polyhedron
from .quantile import TUKEY_PROVENANCE, QuantileRegion, tukey_depth
from .univariate import ScalarSample, count_le, project, quantile_direct
from .vlp import basis_vertices

ORACLE_PROVENANCE = "oracle-2d"

IntDir = tuple[int, int]


@dataclass(frozen=True)
class CriticalDirectionSet:
    """Directions where a planar projection ordering can change."""

    directions: tuple[IntDir, ...]


def _dot2(w: IntDir, x: Vector) -> Fraction:
    return w[0] * x[0] + w[1] * x[1]


def critical_directions(cloud: DataCloud, cone: Cone | None) -> CriticalDirectionSet:
    """Both normals of every difference of distinct data points, plus the
    extreme rays of the dual cone (cone case) or the axis directions (Tukey
    case), angularly sorted."""
    dirs: set[IntDir] = set()
    pts = cloud.points
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dx = pts[i][0] - pts[j][0]
            dy = pts[i][1] - pts[j][1]
            if dx == 0 and dy == 0:
                continue
            n = primitive((-dy, dx))
            dirs.add(n)
            dirs.add((-n[0], -n[1]))
    if cone is None:
        dirs.update([(1, 0), (-1, 0), (0, 1), (0, -1)])
        ordered = sorted(dirs, key=angle_key)
        return CriticalDirectionSet(tuple(ordered))
    in_dual = [w for w in dirs if cone.dual_contains(tuple(map(Fraction, w)))]
    boundary: set[IntDir] = set()
    for g in cone.generators:
        for cand in ((-g[1], g[0]), (g[1], -g[0])):
            if cand[0] == 0 and cand[1] == 0:
                continue
            cp = primitive(cand)
            if cone.dual_contains(tuple(map(Fraction, cp))):
                boundary.add(cp)
    sector = set(in_dual) | boundary
    # the sector spans less than a half turn, so the cross product is a
    # total order on it once anchored anywhere inside
    ordered = sorted(sector, key=cmp_to_key(lambda a, b: -cross(a, b)))
    return CriticalDirectionSet(tuple(ordered))


def oracle_region_2d(
    cloud: DataCloud, level: QuantileLevel, cone: Cone | None
) -> QuantileRegion:
    """Exact planar region by critical-direction enumeration.

    For every critical direction w the halfspace w.z >= q(w) is taken at the
    direction's own quantile; for every open arc between consecutive
    directions the quantile-achieving data point is constant, so the arc
    contributes its two endpoint normals anchored at that point.
    """
    if cloud.dim != 2:
        raise DimensionNot2(f"the planar oracle needs 2-dimensional data, got {cloud.dim}")
    level.require_valid()
    crit = critical_directions(cloud, cone).directions
    k = level.ceil_np
    halfspaces: list[Halfspace] = []
    entries: list[tuple[Vector, Fraction]] = []

    def q_of(w: IntDir) -> Fraction:
        sample = ScalarSample(tuple(_dot2(w, p) for p in cloud.points))
        return quantile_direct(sample, level)

    def add(w: IntDir, offset: Fraction) -> None:
        vec = (Fraction(w[0]), Fraction(w[1]))
        halfspaces.append(Halfspace(vec, offset))
        entries.append((vec, offset))

    for w in crit:
        add(w, q_of(w))

    if cone is None:
        arcs = [(crit[i], crit[(i + 1) % len(crit)]) for i in range(len(crit))]
    else:
        arcs = [(crit[i], crit[i + 1]) for i in range(len(crit) - 1)]
    for a, b in arcs:
        mid = primitive((a[0] + b[0], a[1] + b[1]))
        if not any(mid):
            raise InternalInvariantError(
                "two consecutive critical directions are antipodal"
            )
        proj = [_dot2(mid, p) for p in cloud.points]
        order = sorted(range(len(proj)), key=lambda i: (proj[i], i))
        anchor = cloud.points[order[k - 1]]
        add(a, _dot2(a, anchor))
        add(b, _dot2(b, anchor))

    region = Polyhedron.from_hrep(halfspaces, dim=2)
    return QuantileRegion(
        region=region,
        defining_entries=tuple(entries),
        level=level,
        provenance=ORACLE_PROVENANCE,
        stats=None,
    )


def membership_sample(
    cloud: DataCloud,
    level: QuantileLevel,
    cone: Cone | None,
    z,
    trials: int = 1000,
    seed: int = 0,
) -> bool:
    """One-sided membership test by sampled directions.

    Returns False as soon as a sampled dual-cone direction w refutes
    membership (the at-or-below count of w.z among the projections falls
    short of the level's threshold); True only means "not refuted".
    Deterministic for a given seed.
    """
    if trials < 1:
        raise ValueError("at least one trial is required")
    z_vec = as_vector(z)
    if len(z_vec) != cloud.dim:
        raise DimensionMismatch("query point dimension does not match the data")
    level.require_valid()
    rng = random.Random(seed)
    d = cloud.dim
    k = level.ceil_np
    rows, den = cloud.int_form
    cols = list(zip(*rows))
    gens: tuple[Vector, ...] = ()
    if cone is not None:
        gens = basis_vertices(make_dual_basis(cone))
    for _ in range(trials):
        if cone is None:
            w = tuple(Fraction(rng.randint(-9, 9)) for _ in range(d))
            while all(c == 0 for c in w):
                w = tuple(Fraction(rng.randint(-9, 9)) for _ in range(d))
        else:
            coefs = [rng.randint(0, 9) for _ in gens]
            while all(c == 0 for c in coefs):
                coefs = [rng.randint(0, 9) for _ in gens]
            w = tuple(
                sum((c * v[j] for c, v in zip(coefs, gens)), Fraction(0))
                for j in range(d)
            )
        keys, kden = project(cols, den, w)
        t = sum((wi * zi for wi, zi in zip(w, z_vec)), Fraction(0))
        if count_le(keys, kden, t) < k:
            return False
    return True


@dataclass(frozen=True)
class DepthCheck:
    """What :func:`check_tukey_region` tested, and the first point that
    refuted the region (None when none did)."""

    vertices: int
    facets: int
    refutation: str | None


def check_tukey_region(cloud: DataCloud, result: QuantileRegion) -> DepthCheck:
    """Exact two-sided check of a Tukey region against :func:`tukey_depth`.

    With k = ceil(N p): every vertex has depth >= k, and at each facet
    w.z >= t (a defining entry whose tight vertices span a hyperplane) the
    centroid of its vertices has depth >= k while that point moved past the
    facet by w/M has depth < k, for M = 1 and 10**9.  Facets are checked only
    on a nonempty bounded region.
    """
    if result.provenance != TUKEY_PROVENANCE:
        raise ValueError("the depth check needs a Tukey region")
    k = result.level.ceil_np
    d = cloud.dim
    verts = result.region.vertices

    def show(z) -> str:
        return "(" + ",".join(map(format_rational, z)) + ")"

    for v in verts:
        depth = tukey_depth(cloud, v)
        if depth < k:
            return DepthCheck(len(verts), 0, f"vertex {show(v)} has depth {depth} < {k}")
    facets = 0
    if not verts or not result.region.is_bounded:
        return DepthCheck(len(verts), facets, None)
    seen: set[frozenset] = set()
    for w, t in result.defining_entries:
        tight = frozenset(v for v in verts if dot(w, v) == t)
        if len(tight) < d or tight in seen:
            continue
        base = min(tight)
        diffs = [primitive([a - b for a, b in zip(v, base)]) for v in tight]
        if int_rank(diffs) != d - 1:
            continue
        seen.add(tight)
        c = tuple(sum(v[j] for v in tight) / len(tight) for j in range(d))
        depth = tukey_depth(cloud, c)
        if depth < k:
            return DepthCheck(
                len(verts), facets, f"facet centroid {show(c)} has depth {depth} < {k}"
            )
        for m in (1, 10**9):
            out = tuple(cj - wj / m for cj, wj in zip(c, w))
            depth = tukey_depth(cloud, out)
            if depth >= k:
                return DepthCheck(
                    len(verts), facets, f"point {show(out)} past a facet has depth {depth} >= {k}"
                )
        facets += 1
    return DepthCheck(len(verts), facets, None)
