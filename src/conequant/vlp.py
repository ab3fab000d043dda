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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._linalg import primitive
from .core import DataCloud, DualConeBasis, QuantileLevel, Vector, as_vector
from .errors import DimensionMismatch, EmptyBasis, InternalInvariantError
from .polyhedra import Equation, Halfspace, Polyhedron, _PointedCone
from .univariate import ascending, greedy_masses, project, quantile_and_loss, support_point


@dataclass(frozen=True)
class DualImagePoint:
    """A point of the dual image: weight coordinates and the loss value."""

    coords: Vector
    value: Fraction


@dataclass(frozen=True)
class BensonStats:
    """Deterministic counters from one dual solve."""

    rounds: int
    cuts_added: int
    scalarizations: int


@dataclass(frozen=True)
class BensonAudit:
    """Confirmed image vertices and every cut, for soundness checks."""

    confirmed: tuple[DualImagePoint, ...]
    cuts: tuple[Halfspace, ...]


@dataclass(frozen=True)
class DualSolution:
    """The irredundant optimal solution of the geometric dual.

    ``entries`` are (w, t) pairs in the caller's coordinate frame: w lies on
    the dual-cone basis exactly (Y w >= 0 and c.w = 1) and t is the direct
    lower quantile of the projected sample.  Each entry corresponds to
    exactly one vertex of ``dual_image``, which is kept in solver-frame
    (coords, value)-space with both representations attached.
    """

    entries: tuple[tuple[Vector, Fraction], ...]
    dual_image: Polyhedron
    basis: DualConeBasis
    stats: BensonStats
    image_vertices: tuple[DualImagePoint, ...]
    audit: BensonAudit | None = None


def image_coords(w, basis: DualConeBasis) -> Vector:
    """Map a basis weight to its dual-image coordinates (drop the last
    solver-frame component, signed by the last c-component)."""
    wp = basis.permute(as_vector(w))
    if len(wp) != basis.dim:
        raise DimensionMismatch("weight dimension does not match the basis")
    s = basis.sigma
    return tuple(s * wi for wi in wp[:-1])


def weight_of(coords, basis: DualConeBasis) -> Vector:
    """Inverse of :func:`image_coords`; returns w in the caller's frame."""
    return basis.unpermute(_solver_weight(as_vector(coords), basis))


def _solver_weight(coords: Vector, basis: DualConeBasis) -> Vector:
    if len(coords) != basis.dim - 1:
        raise DimensionMismatch("expected d-1 image coordinates")
    s = basis.sigma
    c = basis.solver_c
    head = [s * e for e in coords]
    rest = sum((cj * wj for cj, wj in zip(c, head)), Fraction(0))
    return tuple(head) + ((1 - rest) / c[-1],)


def initial_outer(basis: DualConeBasis) -> Polyhedron:
    """The starting outer approximation: the full coordinate image of the
    basis times the nonnegative value axis.

    Substituting the affine weight reconstruction into Y w >= 0 yields the
    coordinate image's halfspaces; the value floor uses that the pinball
    loss is nonnegative.  The result contains the dual image and its
    recession cone is exactly the upward value ray.
    """
    d = basis.dim
    c = basis.solver_c
    s = basis.sigma
    halfspaces: list[Halfspace] = []
    for g in basis.solver_generators:
        coef = tuple(s * (g[j] - g[-1] * c[j] / c[-1]) for j in range(d - 1))
        const = g[-1] / c[-1]
        if all(v == 0 for v in coef):
            if const < 0:
                raise InternalInvariantError(
                    "validated cone yielded an infeasible constant row"
                )
            continue
        halfspaces.append(Halfspace(coef + (Fraction(0),), -const))
    floor = Halfspace(tuple(Fraction(0) for _ in range(d - 1)) + (Fraction(1),), Fraction(0))
    halfspaces.append(floor)
    poly = Polyhedron.from_hrep(halfspaces, dim=d)
    if not poly.vertices:
        raise EmptyBasis("dual-cone basis has no extreme points")
    return poly


def _homogenized(h: Halfspace) -> tuple[int, ...]:
    return primitive((*h.normal, -h.offset))


def _cut_from_support(y: Vector, basis: DualConeBasis) -> Halfspace:
    """Supporting halfspace value' >= w(coords').y induced by an image point
    y of the scalarized program; affine in (coords', value')."""
    d = basis.dim
    c = basis.solver_c
    s = basis.sigma
    coef = tuple(-s * (y[j] - y[-1] * c[j] / c[-1]) for j in range(d - 1))
    return Halfspace(coef + (Fraction(1),), y[-1] / c[-1])


def benson_dual_solve(
    cloud: DataCloud,
    level: QuantileLevel,
    basis: DualConeBasis,
    *,
    audit: bool = False,
) -> DualSolution:
    """Compute the unique irredundant dual solution by outer approximation.

    Each round enumerates the vertices of the current outer approximation in
    lexicographic coordinate order; a vertex is confirmed when its value
    coordinate equals the projected sample's pinball minimum exactly,
    otherwise the greedy scalarization's support point supplies a cut.  Cuts
    are applied as a batch per round.  At termination the outer set *is* the
    dual image, and its vertices define the entries.
    """
    level.require_valid()
    if cloud.dim != basis.dim:
        raise DimensionMismatch(
            f"data dimension {cloud.dim} does not match cone dimension {basis.dim}"
        )
    if level.n != cloud.n:
        raise DimensionMismatch(f"level is for N={level.n} but the cloud has {cloud.n}")
    d = basis.dim
    if basis.is_permuted:
        solver_cloud = DataCloud(tuple(basis.permute(p) for p in cloud.points))
    else:
        solver_cloud = cloud
    rows, den = solver_cloud.int_form

    outer = list(initial_outer(basis).halfspaces)
    engine = _PointedCone(d + 1)
    for h in outer:
        engine.add_row(_homogenized(h))
    engine.add_row(tuple([0] * d + [1]))
    if not engine.ready:
        raise InternalInvariantError("initial outer approximation is not pointed")

    # (w, t, g) per vertex coords; the projection itself is not kept, since a
    # vertex that needs a cut is cut off and never comes back
    cache: dict[Vector, tuple[Vector, Fraction, Fraction]] = {}
    cut_keys = {h.key() for h in outer}
    confirmed: dict[Vector, DualImagePoint] = {}
    cuts_log: list[Halfspace] = []
    rounds = 0
    cuts_added = 0
    scalarizations = 0

    while True:
        rounds += 1
        verts = sorted(_engine_vertices(engine))
        new_cuts: list[Halfspace] = []
        for v in verts:
            coords, mu = v[:-1], v[-1]
            hit = cache.get(coords)
            keys = None
            if hit is None:
                w = _solver_weight(coords, basis)
                keys, kden = project(rows, den, w)
                asc = ascending(keys)
                hit = cache[coords] = (w, *quantile_and_loss(keys, kden, asc, level))
                scalarizations += 1
            g = hit[2]
            if mu == g:
                if coords not in confirmed:
                    confirmed[coords] = DualImagePoint(coords, mu)
                continue
            if mu > g:
                raise InternalInvariantError(
                    "outer vertex ended up above the dual image"
                )
            if keys is None:
                raise InternalInvariantError("a cut-off vertex came back")
            masses = greedy_masses(keys, asc, level.p)
            y = support_point(rows, den, *masses, level.p.denominator)
            scalarizations += 1
            cut = _cut_from_support(y, basis)
            key = cut.key()
            if key not in cut_keys:
                cut_keys.add(key)
                new_cuts.append(cut)
        if not new_cuts:
            break
        for cut in new_cuts:
            outer.append(cut)
            engine.add_row(_homogenized(cut))
        cuts_added += len(new_cuts)
        cuts_log.extend(new_cuts)

    verts = sorted(_engine_vertices(engine))
    rays = sorted(_engine_rays(engine))
    if rays != [tuple([Fraction(0)] * (d - 1)) + (Fraction(1),)]:
        raise InternalInvariantError(
            "dual image recession cone is not the upward value ray"
        )
    image = Polyhedron(d, tuple(outer), (), tuple(verts), tuple(rays), False)
    entries = []
    image_vertices = []
    for v in verts:
        coords, mu = v[:-1], v[-1]
        w, t, _ = cache[coords]
        entries.append((basis.unpermute(w), t))
        image_vertices.append(DualImagePoint(coords, mu))
    stats = BensonStats(rounds=rounds, cuts_added=cuts_added, scalarizations=scalarizations)
    audit_rec = None
    if audit:
        audit_rec = BensonAudit(
            confirmed=tuple(sorted(confirmed.values(), key=lambda pt: pt.coords)),
            cuts=tuple(cuts_log),
        )
    return DualSolution(
        entries=tuple(entries),
        dual_image=image,
        basis=basis,
        stats=stats,
        image_vertices=tuple(image_vertices),
        audit=audit_rec,
    )


def _engine_vertices(engine: _PointedCone) -> list[Vector]:
    out = []
    for ray in engine.rays:
        z0 = ray[-1]
        if z0 < 0:
            raise InternalInvariantError(
                "homogenizing coordinate escaped its halfspace"
            )
        if z0 > 0:
            out.append(tuple(Fraction(v, z0) for v in ray[:-1]))
    return out


def _engine_rays(engine: _PointedCone) -> list[Vector]:
    out = []
    for ray in engine.rays:
        if ray[-1] == 0:
            out.append(tuple(Fraction(v) for v in ray[:-1]))
    return out


def halfspaces_of(sol: DualSolution) -> tuple[Halfspace, ...]:
    """One halfspace {z : w.z >= t} per entry, ordered by canonical normal.

    Entries are emitted at their basis normalization (c.w = 1), without any
    deduplication beyond the solution's own irredundancy.
    """
    if not sol.entries:
        raise EmptyBasis("dual solution has no entries")
    halfspaces = [Halfspace(w, t) for w, t in sol.entries]
    return tuple(sorted(halfspaces, key=Halfspace.key))


def basis_vertices(basis: DualConeBasis) -> tuple[Vector, ...]:
    """Extreme points of the dual-cone basis, in the caller's frame."""
    poly = Polyhedron.from_hrep(
        [Halfspace(g, Fraction(0)) for g in basis.cone.generators if any(g)],
        [Equation(basis.c, Fraction(1))],
        dim=basis.dim,
    )
    return poly.vertices
