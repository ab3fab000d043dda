"""Geometric-dual solver: the unique irredundant representation of the
quantile region's scalarizations.

The dual image lives in (coords, value)-space: ``coords`` are the signed
first d-1 components of a weight w on the dual-cone basis (the last
component is recoverable from c.w = 1 because the solver frame guarantees a
nonzero last c-component) and ``value`` is the pinball-loss minimum of the
projected sample.  The image is the epigraph-like set swept by these points
plus the upward value-ray K; a Benson-type outer approximation shrinks an
initial box onto it by support cuts, confirming vertices by exact equality
of the value coordinate.  Termination is finite: every cut is a supporting
halfspace generated by a greedy transport solution, of which there are
finitely many, and each round's cuts strictly separate some current vertex.

The loop runs in homogeneous integers on the double description engine's
primitive rays (a, m, z0), i.e. coords a/z0 and value m/z0, and the solution
keeps the image in that form alone.  With the solver-frame c written as
cn/cd over one denominator, the weight of a vertex is W/D with
W = (cn[-1] a_j ..., sigma cd z0 - sum_j cn_j a_j) and D = |cn[-1]| z0 > 0,
so its projected keys are W.x over D den.  A vertex is confirmed when
m den D pden equals the loss numerator times z0.  Every row the loop adds is
one integer formula, the support row at a vector y of the solver frame:
(y_last cn_j - cn[-1] y_j ..., v, -sigma cd y_last).  A cut is that row at
the integer support sum Y with v = den pden |cn[-1]|.  By geometric duality
(Heyde & Loehne, 2008) the starting box's vertical facets are support rows
of the same kind: the row at y = -g with v = 0 for each cone generator g.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, mul

from ._linalg import common_denominator, dot, primitive, ratio_sorted
from .core import DataCloud, DualConeBasis, QuantileLevel, Vector, _check_fit
from .errors import EmptyBasis, InternalInvariantError
from .polyhedra import IntVec, _PointedCone
from .univariate import Projector, greedy_cut, key_quantile_and_loss, support_summer


@dataclass(frozen=True)
class BensonStats:
    """Deterministic counters from one dual solve."""

    rounds: int
    cuts_added: int
    scalarizations: int


@dataclass(frozen=True)
class DualSolution:
    """The irredundant optimal solution of the geometric dual, in integers.

    ``records`` hold one integer record (n, m, s) with s > 0 per entry, in
    entry order and in the caller's coordinate frame: the entry is
    (w, t) = (n / s, m / s) and its halfspace is w.z >= t.  w lies on the
    dual-cone basis exactly (Y w >= 0 and c.w = 1) and t is the direct
    lower quantile of the projected sample.  A record keeps the scale the
    solve found it at (see the module docstring): n = den W, unpermuted,
    m is the quantile's key W.x and s = D den.  The dual image is kept in
    the solver's homogeneous integers: ``vertex_rays`` are its vertices as
    rays (a, m, z0), one per entry and in entry order, so the entry's
    solver-frame weight has coords a/z0 and its loss minimum is m/z0;
    ``cut_rows`` are the cuts as rows r, in the order they were made, each
    with r.v >= 0 at every vertex ray v.
    """

    records: tuple[IntVec, ...]
    basis: DualConeBasis
    stats: BensonStats
    vertex_rays: tuple[IntVec, ...]
    cut_rows: tuple[IntVec, ...]


def entry_pairs(records) -> tuple[tuple[Vector, Fraction], ...]:
    """Integer entry records (n, m, s) read as (w, t) = (n / s, m / s)."""
    return tuple(
        (tuple(Fraction(v, s) for v in head), Fraction(m, s)) for *head, m, s in records
    )


def _support_row(cn: list[int], scd: int, y, value: int) -> IntVec:
    """The support row at y with value v (see the module docstring), for
    scd = sigma cd.  On a ray (a, m, 1) it reads v m - W.y: a cut at Y says
    m >= w.Y / (den pden), a box row at -g says w.g >= 0."""
    c_last = cn[-1]
    head = [y[-1] * cj - c_last * yj for cj, yj in zip(cn[:-1], y)]
    return primitive((*head, value, -scd * y[-1]))


def _box_rows(basis: DualConeBasis) -> list[IntVec]:
    """The starting outer approximation as primitive rows over
    (coords, value, 1): the full coordinate image of the basis times the
    nonnegative value axis.

    Substituting the affine weight reconstruction into Y w >= 0 gives the
    coordinate image's rows, one support row per generator; the value
    floor, last, uses that the pinball loss is nonnegative.  The set
    contains the dual image and its recession cone is exactly the upward
    value ray.
    """
    cn, cd = common_denominator(basis.solver_c)
    scd = basis.sigma * cd
    rows: list[IntVec] = []
    for g in basis.cone.generators:
        row = _support_row(cn, scd, [-v for v in basis.permute(primitive(g))], 0)
        if not any(row[:-2]):
            if row[-1] < 0:
                raise InternalInvariantError(
                    "validated cone yielded an infeasible constant row"
                )
            continue
        rows.append(row)
    rows.append((0,) * (basis.dim - 1) + (1, 0))
    return rows


def benson_dual_solve(
    cloud: DataCloud,
    level: QuantileLevel,
    basis: DualConeBasis,
) -> DualSolution:
    """Compute the unique irredundant dual solution by outer approximation.

    Each round reads the vertices of the current outer approximation off the
    engine as integer rays (see the module docstring).  Vertices at coords
    not seen before are scalarized in lexicographic coordinate order.  A
    vertex is confirmed when its value equals the projected sample's pinball
    minimum exactly; otherwise the greedy scalarization's support sum
    supplies a cut.  Cuts are applied as a batch per round.  At termination
    the outer set *is* the dual image, and its vertices define the entries.
    """
    level.require_valid()
    _check_fit(cloud, level, basis.cone)
    d = basis.dim
    rows, den = cloud.int_form
    if basis.is_permuted:
        rows = [basis.permute(row) for row in rows]
    projector = Projector(rows)
    tau = projector.tau
    support_sum = support_summer(rows, level.p.denominator)
    cn, cd = common_denominator(basis.solver_c)
    cn_head, c_last = cn[:-1], cn[-1]
    scd = basis.sigma * cd
    cut_scale = den * level.p.denominator * abs(c_last)

    box = _box_rows(basis)
    seen_rows = set(box)
    engine = _PointedCone(d + 1, [*box, (0,) * d + (1,)])
    if engine.lines:
        raise InternalInvariantError("initial outer approximation is not pointed")
    if not any(ray[-1] > 0 for ray in engine.rays):
        raise EmptyBasis("dual-cone basis has no extreme points")

    # (W, t key, loss numerator, loss denominator) per coords, keyed by
    # primitive (a, z0): w = W/D and t = key/(D den) with D = |c_last| z0.
    # The projection is not kept, since a vertex that needs a cut is cut off
    # and never comes back.
    cache: dict[IntVec, tuple[IntVec, int, int, int]] = {}
    cut_rows: list[IntVec] = []
    rounds = 0
    scalarizations = 0

    # ray ids only grow, the engine lists its rays in id order and a ray
    # never changes, so each round reads only the rays made since the last
    seen = -1
    while True:
        rounds += 1
        fresh: list[tuple[IntVec, IntVec, int]] = []
        for rid, ray in reversed(engine.items()):
            if rid <= seen:
                break
            key = _vertex_key(ray, cache)
            if key is not None and key not in cache:
                fresh.append((key, ray, rid))
        seen = next(reversed(engine.items()))[0]
        # each cut strictly cuts off the vertex it came from, so its
        # insertion starts there
        new_rows: list[tuple[IntVec, int]] = []
        for key, ray, rid in ratio_sorted(fresh, itemgetter(0)):
            a, z = key[:-1], key[-1]
            weight = (*(c_last * aj for aj in a), scd * z - sum(map(mul, cn_head, a)))
            # W.x_i + shift, tagged with i: w.x_i over D den, all shifted
            # alike; one sort serves the quantile, the loss and the cut
            slots, shift = projector.keys(weight)
            ka = sorted(slots)
            t, loss = key_quantile_and_loss(ka, tau, level, projector.key_total(weight, shift))
            loss_den = abs(c_last) * z * den * level.p.denominator
            cache[key] = (weight, t - shift, loss, loss_den)
            scalarizations += 1
            value, bound = ray[-2] * loss_den, loss * ray[-1]
            if value == bound:
                continue
            if value > bound:
                raise InternalInvariantError("outer vertex ended up above the dual image")
            y = support_sum(greedy_cut(ka, tau, level.p))
            scalarizations += 1
            row = _support_row(cn, scd, y, cut_scale)
            if row not in seen_rows:
                seen_rows.add(row)
                new_rows.append((row, rid))
        if not new_rows:
            break
        for row, rid in new_rows:
            engine.add_row(row, rid)
            cut_rows.append(row)

    vertices, rays = [], []
    for ray in engine.rays:
        key = _vertex_key(ray, cache)
        if key is None:
            rays.append(ray)
        else:
            vertices.append((key, ray))
    if rays != [(0,) * (d - 1) + (1, 0)]:
        raise InternalInvariantError(
            "dual image recession cone is not the upward value ray"
        )
    final = ratio_sorted(vertices, itemgetter(0))
    # w = W/D and t = key/(D den) as the record (den W, key, D den); the
    # loss denominator is D den pden
    pden = level.p.denominator
    records = []
    for key, _ in final:
        weight, t, _, loss_den = cache[key]
        records.append((*basis.unpermute([den * wj for wj in weight]), t, loss_den // pden))
    stats = BensonStats(
        rounds=rounds, cuts_added=len(cut_rows), scalarizations=scalarizations
    )
    return DualSolution(
        records=tuple(records),
        basis=basis,
        stats=stats,
        vertex_rays=tuple(ray for _, ray in final),
        cut_rows=tuple(cut_rows),
    )


def _vertex_key(ray: IntVec, cache: dict) -> IntVec | None:
    """The primitive key (a, z0) of an engine ray (a, m, z0), or None for a
    ray with z0 = 0.  A vertex whose coords are in ``cache`` must lie exactly
    on the dual image: below it, it would have been cut off."""
    z0 = ray[-1]
    if z0 <= 0:
        if z0 < 0:
            raise InternalInvariantError("homogenizing coordinate escaped its halfspace")
        return None
    key = primitive((*ray[:-2], z0))
    hit = cache.get(key)
    if hit is not None:
        *_, loss, loss_den = hit
        value, bound = ray[-2] * loss_den, loss * z0
        if value > bound:
            raise InternalInvariantError("outer vertex ended up above the dual image")
        if value < bound:
            raise InternalInvariantError("a cut-off vertex came back")
    return key


def basis_vertices(basis: DualConeBasis) -> tuple[Vector, ...]:
    """Extreme points of the dual-cone basis, in the caller's frame, sorted:
    each extreme ray r of the dual cone scaled to r / (c.r)."""
    _, rays = basis.cone.dual_rays
    vertices = []
    for r in rays:
        s = dot(basis.c, r)
        vertices.append(tuple(Fraction(x) / s for x in r))
    return tuple(sorted(vertices))
