"""Independent brute-force verifiers.

Every check reads the cloud as integer rows over one denominator, so w.x_i
for an integer direction w is an integer key over it and q(w) is the k-th
smallest key.  A region is read as its integer rows and generators, and a
report writes each scalar from integers; Fractions appear only in the point
that membership sampling tests and the dual basis it draws from.

The planar oracle rebuilds regions straight from the defining intersection
over all directions: the direction-indexed quantile is piecewise constant,
changing only across directions orthogonal to some difference of data
points, so finitely many critical directions plus one interior direction per
arc give the exact region.  It deliberately shares nothing with the dual
solver except the final halfspace intersection, to which it hands each entry
as a primitive integer row.  A Tukey or cone region in
any dimension is checked exactly on both sides by its definition: each of
its halfspaces is a quantile halfspace, and each of its vertices has depth
>= k by the direct count, which solves no region.  Sampled one-sided
membership is kept as a further check that shares neither; like the exact
check, it projects the cloud with the solver's packed projector.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ._linalg import angle_key, common_denominator, dot, half_turn_key, primitive
from .core import (
    Cone, DataCloud, QuantileLevel, _check_fit, _ratio, homogeneous_point, make_dual_basis
)
from .errors import DimensionMismatch, DimensionNot2, InternalInvariantError
from .polyhedra import Polyhedron
from .quantile import CONE_PROVENANCE, TUKEY_PROVENANCE, QuantileRegion, _depth
from .univariate import Projector
from .vlp import basis_vertices

ORACLE_PROVENANCE = "oracle-2d"

IntDir = tuple[int, int]


def critical_directions(cloud: DataCloud, cone: Cone | None) -> tuple[IntDir, ...]:
    """Directions where a planar projection ordering can change, angularly
    sorted: both normals of every difference of distinct data points, plus
    the extreme rays of the dual cone (cone case) or the axis directions
    (Tukey case).  Both the cloud and the cone must be planar."""
    if cloud.dim != 2:
        raise DimensionMismatch(f"critical directions need 2-dimensional data, got {cloud.dim}")
    if cone is not None and cone.dim != 2:
        raise DimensionMismatch(f"critical directions need a 2-dimensional cone, got {cone.dim}")
    dirs: set[IntDir] = set()
    rows, _ = cloud.int_form
    for i, (xi, yi) in enumerate(rows):
        for xj, yj in rows[i + 1 :]:
            dx, dy = xi - xj, yi - yj
            if dx == 0 and dy == 0:
                continue
            n = primitive((-dy, dx))
            dirs.add(n)
            dirs.add((-n[0], -n[1]))
    if cone is None:
        dirs.update([(1, 0), (-1, 0), (0, 1), (0, -1)])
        return tuple(sorted(dirs, key=angle_key))
    in_dual = [w for w in dirs if cone.dual_contains(w)]
    boundary: set[IntDir] = set()
    for g in cone.generators:
        for cand in ((-g[1], g[0]), (g[1], -g[0])):
            if cand[0] == 0 and cand[1] == 0:
                continue
            cp = primitive(cand)
            if cone.dual_contains(cp):
                boundary.add(cp)
    sector = set(in_dual) | boundary
    # the sector spans less than a half turn, so the cross product is a
    # total order on it
    return tuple(sorted(sector, key=half_turn_key))


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
    _check_fit(cloud, level, cone)
    crit = critical_directions(cloud, cone)
    k = level.ceil_np
    rows, den = cloud.int_form
    records: list[tuple[int, ...]] = []

    def keys(w: IntDir) -> list[int]:
        return [w[0] * x + w[1] * y for x, y in rows]

    def add(w: IntDir, key: int) -> None:
        # the entry (w, key / den) as the record (den w, key, den)
        records.append((w[0] * den, w[1] * den, key, den))

    for w in crit:
        add(w, sorted(keys(w))[k - 1])

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
        mid_keys = keys(mid)
        anchor = rows[sorted(range(len(rows)), key=mid_keys.__getitem__)[k - 1]]
        add(a, dot(a, anchor))
        add(b, dot(b, anchor))

    # each entry's halfspace as the primitive row (den w, -key)
    region = Polyhedron(2, tuple(primitive((a, b, -key)) for a, b, key, _ in records))
    return QuantileRegion(
        region=region,
        entry_records=tuple(records),
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
    membership: fewer than ceil(N p) of the w.x_i are at or below w.z.  True
    only means "not refuted".  Deterministic for a given seed.  With w at
    primitive integer scale, x_i = row_i / den and z = zn / zd, w.x_i <= w.z
    exactly when the integer key w.row_i is at most floor(den (w.zn) / zd).
    """
    if trials < 1:
        raise ValueError("at least one trial is required")
    *zn, zd = homogeneous_point(z, cloud.dim)
    level.require_valid()
    _check_fit(cloud, level, cone)
    rng = random.Random(seed)
    d = cloud.dim
    k = level.ceil_np
    rows, den = cloud.int_form
    projector = Projector(rows)
    gens: list[list[int]] = []
    if cone is not None:
        # one integer scale for all basis vertices scales each w by s > 0
        flat, _ = common_denominator(sum(basis_vertices(make_dual_basis(cone)), ()))
        gens = [flat[i : i + d] for i in range(0, len(flat), d)]
    for _ in range(trials):
        if cone is None:
            w = [rng.randint(-9, 9) for _ in range(d)]
            while not any(w):
                w = [rng.randint(-9, 9) for _ in range(d)]
        else:
            coefs = [rng.randint(0, 9) for _ in gens]
            while not any(coefs):
                coefs = [rng.randint(0, 9) for _ in gens]
            w = [sum(c * v[j] for c, v in zip(coefs, gens)) for j in range(d)]
        w = primitive(w)
        slots, shift = projector.keys(w)
        # a key is at most the bound exactly when its tagged slot is below
        # the next key's untagged slot
        limit = (den * dot(w, zn) // zd + shift + 1) << projector.tau
        if sum(1 for slot in slots if slot < limit) < k:
            return False
    return True


@dataclass(frozen=True)
class DepthCheck:
    """What :func:`check_region` tested, and the first vertex, ray or
    halfspace that refuted the region (None when none did)."""

    vertices: int
    halfspaces: int
    refutation: str | None


def check_region(cloud: DataCloud, cone: Cone | None, result: QuantileRegion) -> DepthCheck:
    """Exact two-sided check of a cone region R, or of a Tukey region when
    ``cone`` is None, against the definition of the true region T: the
    intersection of the halfspaces w.z >= q(w) over the nonzero w in the
    dual cone C+ (every nonzero w for a Tukey region), which is also the
    set of points of depth >= k = ceil(N p) (Hamel & Kostner, 2018).

    R is in T: every vertex has depth >= k, and every ray lies in the
    recession cone C (w.r >= 0 for every extreme ray w of C+) or, for a
    Tukey region, in {0}.  T is in R: every halfspace w.z >= t of R's own
    H-representation, where an equation is two opposite halfspaces, has w in
    C+ and t = q(w).  So R = T with no tolerance, and an empty R passes only
    when all its halfspaces are quantile halfspaces.  Each halfspace is read
    as R's own primitive integer row (w, -t); with the cloud's integer rows
    over den, q(w) is the k-th smallest key w.row_i over den.  Both tests
    hold at any positive scale of (w, t), since q(sw) = s q(w) for s > 0.  A
    solved region's halfspaces are its defining entries up to a positive
    scale, all quantile halfspaces; an H-representation derived from
    vertices may bound a lower-dimensional R = T by other normals, and is
    then refuted.
    """
    provenance = TUKEY_PROVENANCE if cone is None else CONE_PROVENANCE
    if result.provenance != provenance:
        raise ValueError(f"the depth check needs a {provenance} region")
    generators = () if cone is None else cone.generators
    level = result.level
    _check_fit(cloud, level, cone)
    k = level.ceil_np
    region = result.region
    verts, rays = region._sorted_gens

    def show(g) -> str:
        # a vertex (a, z0) as a / z0, a ray (a, 0) as a
        return "(" + ",".join(_ratio(a, g[-1] or 1) for a in g[:-1]) + ")"

    for g in verts:
        depth = _depth(cloud, g, generators)
        if depth < k:
            return DepthCheck(len(verts), 0, f"vertex {show(g)} has depth {depth} < {k}")
    for g in rays:
        if cone is None or any(dot(w, g[:-1]) < 0 for w in cone.dual_rays[1]):
            return DepthCheck(
                len(verts), 0, f"ray {show(g)} leaves the recession cone of the region"
            )
    rows, den = cloud.int_form
    projector = Projector(rows)
    region._ensure_hrep()
    sides = region._rows
    for checked, row in enumerate(sides):
        w, t = row[:-1], -row[-1]
        if cone is not None and not cone.dual_contains(w):
            wrong = "has a normal outside the dual cone"
        else:
            slots, shift = projector.keys(w)
            key = (sorted(slots)[k - 1] >> projector.tau) - shift
            if t * den == key:
                continue
            wrong = f"is not at its quantile {_ratio(key, den)}"
        halfspace = f"halfspace {show((*w, 0))}.z >= {t}"
        return DepthCheck(len(verts), checked, f"{halfspace} {wrong}")
    return DepthCheck(len(verts), len(sides), None)
