"""Exact polyhedral calculus: H- and V-representations, double description,
redundancy removal and set equality.

A polyhedron is held over the homogenized points (z, 1) in one integer
form per side: primitive rows r, each a halfspace r.(z, 1) >= 0, and
primitive generators g = (a, z0), a vertex a / z0 when z0 > 0 and a ray a
when z0 = 0.  An equation is two opposite rows, as a line is two opposite
rays, and the "vertices" of a non-pointed polyhedron are canonical
representatives of its minimal faces.  g lies in r iff r.g >= 0, so every
containment test is an integer sign.  The generators are read sorted in the
same integers, vertices by a / z0 and rays by a, through one exact order
(``_linalg.ratio_sorted``); tuples of rationals are built only for a caller
that asks for them.

Each conversion runs the double description method on one side's vectors
and reads the other side off the extreme rays.  The engine is built from
the vectors in one step; when they are rank deficient, it takes an exact
integer kernel basis of the lineality space among its starting rows and
each line's negation after the other rows, and so cuts the lineality away
itself.  The engine works on primitive ray vectors with zero sets as
bitmasks, and keeps the cone's edge graph: a new row is located by an edge
walk, touches only the rays it cuts off and their neighbours, and decides
the new edges on its own facet by the exact combinatorial test.  The walk
starts at a ray the caller names, such as the Benson vertex a cut was made
from; a start removed since is replaced through the engine's map from each
removed ray to a ray made by the insertion that removed it.
The intermediate cones depend on the row order.  ``quantile._region``
makes a quantile region's rows from its entries and orders them by
distance from the data centroid, likeliest facets first; every other
conversion hands its vectors over in one fixed pseudo-random order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import count
from math import gcd
from operator import mul

from . import _linalg
from .core import Vector, as_vector, homogeneous_point
from .errors import DimensionMismatch, InternalInvariantError

IntVec = tuple[int, ...]


@dataclass(frozen=True)
class Halfspace:
    """The set {z : normal.z >= offset}; the normal must be nonzero."""

    normal: Vector
    offset: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "normal", as_vector(self.normal))
        object.__setattr__(self, "offset", Fraction(self.offset))
        if all(c == 0 for c in self.normal):
            raise ValueError("halfspace normal must be nonzero")

    def canonical(self) -> "Halfspace":
        """Rescale so the first nonzero normal coordinate has absolute value 1."""
        scale = abs(next(c for c in self.normal if c != 0))
        if scale == 1:
            return self
        return Halfspace(tuple(c / scale for c in self.normal), self.offset / scale)

    def key(self) -> tuple:
        h = self.canonical()
        return (*h.normal, h.offset)

    def holds(self, z: Vector) -> bool:
        *a, s = homogeneous_point(z, len(self.normal))
        return _linalg.dot(self.normal, a) >= self.offset * s

    def holds_ray(self, r: Vector) -> bool:
        *a, _ = homogeneous_point(r, len(self.normal))
        return _linalg.dot(self.normal, a) >= 0


class _PointedCone:
    """Double description for the cone {x : row.x >= 0} of the rows it is
    built from, under incremental row insertion.  Rows and rays are
    primitive integer vectors.

    The bootstrap rows are the first ``dim`` linearly independent nonzero
    rows, taken greedily in input order.  Rows of rank below ``dim`` leave
    the lineality space L free; then ``lines`` is the primitive integer
    kernel basis of the bootstrap rows, which span the row space, so it is
    the kernel of all the rows, and a row space has one reduced echelon form,
    so it is the same vectors in the same order as the basis read off all
    the rows.  The lines join the bootstrap rows, their negations follow the
    other rows, and ``rays`` are the extreme rays of the pointed cone of the
    x orthogonal to L with row.x >= 0.

    A ray's zero set has bit k set exactly when ``processed[k]`` is zero on
    it, over the rows kept.  The bootstrap rows define a simplicial cone;
    every later row is inserted locally on the cone's edge graph (rays
    joined when they span a 2-face), in the dual form of the beneath-beyond
    method.  A later row that cuts off no ray leaves no trace: it is not
    kept, takes no bit and marks no face.  The cone does not change, so the
    rows kept still describe it, and the combinatorial adjacency test holds
    for any H-description of a pointed cone, full-dimensional or not.  Only
    the cone {0} keeps every row.

    Rays carry ids; ``_ray``, ``_zs`` and ``_nbrs`` map an id to its vector,
    zero set and neighbour ids, and ``_height`` to its value on the sum e of
    the bootstrap rows.  The bootstrap rows are independent and every row is
    nonnegative on every ray, so e.r > 0 for each ray r: on the slice
    e.x = 1 the cone is a polytope with the rays as vertices and the edges as
    its edges, and row.r / e.r is a linear function on it.  Height is linear,
    so a ray made from two others as vp r_n - vn r_p has the height
    vp e.r_n - vn e.r_p, divided by the gcd that makes the ray primitive;
    only the bootstrap rays take a dot product with e.

    A row is located by descending row.r / e.r along edges, which ends at a
    global minimum from any start.  A caller that knows a ray the row cuts
    off passes its id as ``start``.  ``_heir`` maps each removed id to a ray
    made by the insertion that removed it, on one of its cut edges where
    there is one, so a start removed since it was read still leads near the
    cut; with no live ray on that chain the walk starts at the newest ray.
    """

    def __init__(self, dim: int, rows) -> None:
        self.dim = dim
        self._ray: dict[int, IntVec] = {}
        self._zs: dict[int, int] = {}
        self._nbrs: dict[int, set[int]] = {}
        self._height: dict[int, int] = {}
        self._heir: dict[int, int] = {}
        self._ids = count()
        basis: list[IntVec] = []
        rest: list[IntVec] = []
        for row in map(tuple, rows):
            if len(row) != dim:
                raise DimensionMismatch("constraint row has the wrong width")
            if not any(row):
                continue
            if len(basis) < dim and _linalg.int_rank(basis + [row]) > len(basis):
                basis.append(row)
            else:
                rest.append(row)
        self.lines: list[IntVec] = []
        if len(basis) < dim:
            self.lines = _linalg.kernel(*_linalg.echelon(basis), dim)
            basis += self.lines
            rest += map(_negated, self.lines)
        # the independent rows B define a simplicial cone whose extreme rays
        # are the columns of the inverse matrix, read off the right-hand
        # block D B^-1 of [B | I] reduced; every two of them span a 2-face
        red, pivots = _linalg.echelon(
            [(*r, *(int(i == k) for k in range(dim))) for i, r in enumerate(basis)]
        )
        # B is square and invertible exactly when these are the pivots
        if pivots != list(range(dim)):
            raise InternalInvariantError("the bootstrap rows do not span the space")
        self.processed = basis
        e = tuple(map(sum, zip(*basis)))
        full = (1 << dim) - 1
        ids = []
        for k in range(dim):
            ray = _linalg.primitive([row[dim + k] for row in red])
            ids.append(self._add_ray(ray, full & ~(1 << k), sum(map(mul, e, ray))))
        for i in ids:
            self._nbrs[i] = set(ids) - {i}
        # through add_row, so that a wrapped add_row sees every row inserted
        for row in rest:
            self.add_row(row)

    @property
    def rays(self) -> list[IntVec]:
        return list(self._ray.values())

    def items(self):
        """(id, ray) pairs of the live rays, in increasing id order; a new
        ray gets a larger id than every ray before it."""
        return self._ray.items()

    def add_row(self, row: IntVec, start: int | None = None) -> None:
        """Insert a row; ``start`` is a ray id to begin the walk at."""
        if len(row) != self.dim:
            raise DimensionMismatch("constraint row has the wrong width")
        if any(row):
            self._insert(row, start)

    def _add_ray(self, ray: IntVec, zs: int, height: int) -> int:
        i = next(self._ids)
        self._ray[i] = ray
        self._zs[i] = zs
        self._nbrs[i] = set()
        self._height[i] = height
        return i

    def _insert(self, row: IntVec, start: int | None = None) -> None:
        ray, zs, nbrs, height = self._ray, self._zs, self._nbrs, self._height
        if not ray:
            self.processed.append(row)
            return  # the cone is {0}
        cur = start
        while cur is not None and cur not in ray:
            cur = self._heir.get(cur)
        if cur is None:
            cur = next(reversed(ray))
        # walk the edges while row.r / e.r strictly drops, until a ray is cut
        # off or no neighbour improves; as in the simplex method, a ray with
        # no improving neighbour minimizes row.r / e.r
        v = sum(map(mul, row, ray[cur]))
        vals = {cur: v}
        while v >= 0:
            h = height[cur]
            for j in nbrs[cur]:
                vj = vals.get(j)
                if vj is None:
                    vj = vals[j] = sum(map(mul, row, ray[j]))
                if vj * h < v * height[j]:
                    cur, v = j, vj
                    break
            else:
                break
        if v >= 0:
            return  # nothing is cut off, so the row is not kept
        bit = 1 << len(self.processed)
        self.processed.append(row)
        # the cut-off rays are connected, and every ray on the row has a
        # neighbour that is cut off, so scoring their neighbours finds all
        neg = {cur}
        todo = [cur]
        while todo:
            for j in nbrs[todo.pop()]:
                vj = vals.get(j)
                if vj is None:
                    vj = vals[j] = sum(map(mul, row, ray[j]))
                if vj < 0 and j not in neg:
                    neg.add(j)
                    todo.append(j)
        zero = [i for i, vi in vals.items() if vi == 0]
        # one new ray on each cut edge; a positive combination of two rays,
        # each nonnegative on every processed row, is zero exactly where both
        # are
        fresh = []
        heir = self._heir
        for n in neg:
            rn, vn, zn, hn = ray[n], vals[n], zs[n], height[n]
            for p in nbrs[n]:
                vp = vals[p]
                if vp > 0:
                    combo = [vp * b - vn * a for a, b in zip(ray[p], rn)]
                    h = vp * hn - vn * height[p]
                    g = gcd(*combo)
                    if g > 1:
                        combo = [c // g for c in combo]
                        h //= g
                    k = self._add_ray(tuple(combo), zs[p] & zn | bit, h)
                    nbrs[k].add(p)
                    nbrs[p].add(k)
                    fresh.append(k)
                    heir.setdefault(n, k)
        spare = fresh[0] if fresh else zero[0] if zero else None
        for n in neg:
            for j in nbrs.pop(n):
                if j not in neg:
                    nbrs[j].discard(n)
            del ray[n], zs[n], height[n]
            if spare is not None:
                heir.setdefault(n, spare)
        for i in zero:
            zs[i] |= bit
        # edges among the kept rays stay edges; every edge not yet known lies
        # on the new facet, so among the rays that carry the new bit, and a
        # 2-face needs at least dim-2 tight rows
        among = zero + fresh
        need = self.dim - 2
        for x, i in enumerate(among):
            zi, ni = zs[i], nbrs[i]
            for j in among[x + 1 :]:
                if j in ni:
                    continue
                mask = zi & zs[j]
                if mask.bit_count() >= need and self._adjacent(i, j, among):
                    ni.add(j)
                    nbrs[j].add(i)

    def _adjacent(self, i: int, j: int, among: list[int]) -> bool:
        """Whether rays i and j span a 2-face: no third ray of ``among``,
        which must hold every ray zero on all rows both are zero on, is zero
        on those rows too (Fukuda & Prodon 1996, combinatorial test)."""
        zs = self._zs
        mask = zs[i] & zs[j]
        for k in among:
            if k != i and k != j and zs[k] & mask == mask:
                return False
        return True


def _dd_cone(
    rows: list[IntVec], dim: int, shuffle: bool = True
) -> tuple[list[IntVec], list[IntVec]]:
    """Lines and extreme rays of the general cone {x : row.x >= 0}.

    The extreme rays are the same in any row order, but the intermediate
    cones are not: rows in their given order, often lexicographic, tend to
    cut neighbouring facets one after another and make many rays that later
    rows remove again (Avis, Bremner & Seidel 1997; Fukuda & Prodon 1996
    counter this with a row ordering).  So the rows enter the engine in one
    fixed pseudo-random order, unless ``shuffle`` is off because the caller
    has ordered them already.  The rays come back in no particular order.

    The engine cuts the lineality space L away itself (see ``_PointedCone``):
    the cone is L plus the pointed cone of the x orthogonal to L with
    row.x >= 0, whose extreme rays are the rays returned.
    """
    live = [r for r in rows if any(r)]
    if shuffle:
        random.Random(0).shuffle(live)
    engine = _PointedCone(dim, live)
    return engine.lines, engine.rays


def _negated(row: IntVec) -> IntVec:
    return tuple(-v for v in row)


def _canonical_order(rows) -> tuple[IntVec, ...]:
    """Distinct rows with nonzero normals, sorted as the ``key()`` of the
    constraints they read as: by (normal, offset) / s, where s is the
    absolute value of the first nonzero normal coordinate."""
    return tuple(
        _linalg.ratio_sorted(
            dict.fromkeys(rows), lambda r: (*r[:-1], -r[-1], abs(next(v for v in r if v)))
        )
    )


class Polyhedron:
    """A convex polyhedron as primitive integer constraint rows and
    generators, in the form the module describes; a missing side is
    converted from the other when first needed.  The set value is immutable.
    ``halfspaces`` reads the rows at primitive integer scale in their order.
    ``_sorted_gens`` splits the generators into vertices, in lexicographic
    order of a / z0, and rays, in lexicographic order of a; ``vertices`` and
    ``rays`` read them in that order as tuples of rationals.  Each view is
    built when first read.
    """

    def __init__(self, dim: int, rows=None, gens=None, empty=None, ordered=False):
        self._dim = dim
        self._rows = rows
        self._gens = gens
        self._empty = empty
        # whether the rows are in the order the V-representation takes them
        self._ordered = ordered

    @classmethod
    def from_hrep(cls, halfspaces, *, dim: int) -> "Polyhedron":
        rows = tuple(_linalg.primitive((*h.normal, -h.offset)) for h in halfspaces)
        if any(len(r) != dim + 1 for r in rows):
            raise DimensionMismatch("halfspace dimension mismatch")
        return cls(dim, rows)

    @classmethod
    def _from_rows(cls, rows, *, dim: int) -> "Polyhedron":
        """The polyhedron {z : r.(z, 1) >= 0 for every row r}, from primitive
        integer rows, which the V-representation takes in the order given."""
        return cls(dim, tuple(rows), ordered=True)

    @classmethod
    def from_vrep(cls, vertices, rays=(), *, dim: int) -> "Polyhedron":
        gens = []
        for v in map(as_vector, vertices):
            if len(v) != dim:
                raise DimensionMismatch("vertex dimension mismatch")
            gens.append(_linalg.primitive((*v, 1)))
        nv = len(gens)
        for r in map(as_vector, rays):
            if len(r) != dim:
                raise DimensionMismatch("ray dimension mismatch")
            if not any(r):
                raise ValueError("rays must be nonzero")
            gens.append(_linalg.primitive((*r, 0)))
        if not nv and gens:
            raise ValueError("a V-representation needs at least one vertex")
        return cls(dim, gens=tuple(gens), empty=not nv)

    @classmethod
    def empty(cls, dim: int) -> "Polyhedron":
        """The canonical empty polyhedron: x_1 >= 1 together with x_1 <= 0."""
        e1 = (1,) + (0,) * (dim - 1)
        return cls(dim, ((*e1, -1), (*_negated(e1), 0)), gens=(), empty=True)

    @property
    def dim(self) -> int:
        return self._dim

    @cached_property
    def halfspaces(self) -> tuple[Halfspace, ...]:
        self._ensure_hrep()
        return tuple(Halfspace(r[:-1], -r[-1]) for r in self._rows)

    @cached_property
    def _sorted_gens(self) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...]]:
        self._ensure_vrep()
        verts = _linalg.ratio_sorted(g for g in self._gens if g[-1])
        return tuple(verts), tuple(sorted(g for g in self._gens if not g[-1]))

    @cached_property
    def vertices(self) -> tuple[Vector, ...]:
        return tuple(tuple(Fraction(a, g[-1]) for a in g[:-1]) for g in self._sorted_gens[0])

    @cached_property
    def rays(self) -> tuple[Vector, ...]:
        return tuple(tuple(map(Fraction, g[:-1])) for g in self._sorted_gens[1])

    @property
    def is_empty(self) -> bool:
        if self._empty is None:
            self._ensure_vrep()
        return self._empty

    @property
    def is_bounded(self) -> bool:
        """Vacuously true for the empty set."""
        return self.is_empty or all(g[-1] for g in self._gens)

    def has_vrep(self) -> bool:
        return self._gens is not None

    def contains(self, point) -> bool:
        """Whether the point satisfies the H-representation (an empty
        polyhedron's rows hold nowhere); no V-representation is built."""
        g = homogeneous_point(point, self._dim)
        self._ensure_hrep()
        return all(_linalg.dot(r, g) >= 0 for r in self._rows)

    # -- conversions -------------------------------------------------------

    def _ensure_vrep(self) -> None:
        if self._gens is not None:
            return
        d = self._dim
        homogenizing = (0,) * d + (1,)
        rows = self._rows
        # ordered rows keep the caller's order, after the homogenizing row
        rows = [homogenizing, *rows] if self._ordered else [*rows, homogenizing]
        lines, raw = _dd_cone(rows, d + 1, shuffle=not self._ordered)
        if any(g[-1] < 0 for g in raw):
            raise InternalInvariantError("homogenizing coordinate escaped its halfspace")
        if any(ln[-1] for ln in lines):
            raise InternalInvariantError("a line leaves the homogenizing hyperplane")
        self._empty = not any(g[-1] for g in raw)
        self._gens = () if self._empty else (*raw, *lines, *map(_negated, lines))

    def _ensure_hrep(self) -> None:
        if self._rows is not None:
            return
        d = self._dim
        if self._empty:
            self._rows = Polyhedron.empty(d)._rows
            return
        lines, raw = _dd_cone(self._gens, d + 1)
        if any(not any(ln[:-1]) for ln in lines):
            raise InternalInvariantError(
                "an equation with a zero normal has a nonzero offset"
            )
        # directions of the affine hull: a row constant on it, such as the
        # homogenizing row, is not a facet
        hull_dirs = _linalg.kernel(*_linalg.echelon([ln[:-1] for ln in lines]), d)
        rows = [g for g in raw if any(_linalg.dot(g[:-1], h) for h in hull_dirs)]
        # each line l of the dual cone is an equation, the rows l and -l
        self._rows = _canonical_order([*rows, *lines, *map(_negated, lines)])


def remove_redundant(p: Polyhedron) -> Polyhedron:
    """Drop every halfspace implied by the others.

    The rows are visited in canonical order, exact duplicates merged first.
    A row r is kept iff the polyhedron Q cut out by the rows kept so far and
    the later ones is not contained in r.
    Q contains the nonempty p, so Q = conv(V) + cone(R) from its
    generators, and r fails on Q iff r.g < 0 for some generator g; a line
    is two opposite rays, so it must lie in r's boundary.  A pair of
    opposite halfspaces encodes an implicit equation; both sides survive the
    test, so such pairs are preserved.  The empty polyhedron maps to its
    canonical two-constraint form.
    """
    p._ensure_hrep()
    if p.is_empty:
        return Polyhedron.empty(p.dim)
    ordered = _canonical_order(set(p._rows))
    kept: list[IntVec] = []
    for i, r in enumerate(ordered):
        q = Polyhedron(p.dim, (*kept, *ordered[i + 1 :]))
        if q.is_empty:
            raise InternalInvariantError("nonempty polyhedron lost feasibility")
        if any(_linalg.dot(r, g) < 0 for g in q._gens):
            kept.append(r)
    return Polyhedron(p.dim, tuple(kept))


def poly_equal(p: Polyhedron, q: Polyhedron) -> bool:
    """Set equality by mutual containment of generators in constraints."""
    if p.dim != q.dim:
        raise DimensionMismatch("polyhedra live in different dimensions")
    if p.is_empty or q.is_empty:
        return p.is_empty and q.is_empty
    return poly_contains(p, q) and poly_contains(q, p)


def poly_contains(outer: Polyhedron, inner: Polyhedron) -> bool:
    """Whether every point of ``inner`` satisfies ``outer``'s constraints:
    r.g >= 0 for every row r of ``outer`` and every generator g of
    ``inner``."""
    if outer.dim != inner.dim:
        raise DimensionMismatch("polyhedra live in different dimensions")
    if inner.is_empty:
        return True
    if outer.is_empty:
        return False
    outer._ensure_hrep()
    gens = inner._gens
    return all(_linalg.dot(r, g) >= 0 for r in outer._rows for g in gens)
