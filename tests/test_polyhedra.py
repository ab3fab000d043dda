from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conequant import (
    DataCloud,
    DimensionMismatch,
    Halfspace,
    InternalInvariantError,
    Polyhedron,
    QuantileLevel,
    poly_contains,
    poly_equal,
    remove_redundant,
)
from conequant import polyhedra
from conequant._linalg import echelon, kernel, primitive
from conequant.lp import INFEASIBLE, LinearProgram, simplex_solve
from conequant.oracle import oracle_region_2d
from conequant.polyhedra import _dd_cone, _PointedCone
from conftest import frac_nullspace, frac_rank, lp_remove_redundant

F = Fraction


def _opposite(h):
    """The halfspace -normal.z >= -offset; with h it makes an equation."""
    return Halfspace(tuple(-c for c in h.normal), -h.offset)


def unit_square():
    return Polyhedron.from_hrep(
        [
            Halfspace((1, 0), 0),
            Halfspace((-1, 0), -1),
            Halfspace((0, 1), 0),
            Halfspace((0, -1), -1),
        ],
        dim=2,
    )


class TestHalfspace:
    def test_canonical_scaling(self):
        h = Halfspace((F(-2), F(4)), F(6)).canonical()
        assert h.normal == (F(-1), F(2))
        assert h.offset == F(3)

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            Halfspace((0, 0), 1)

    def test_membership(self):
        h = Halfspace((1, 1), 2)
        assert h.holds((1, 1))
        assert not h.holds((0, 0))


class TestHrepToVrep:
    def test_square(self):
        p = unit_square()
        assert p.vertices == ((F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1), F(1)))
        assert p.rays == ()
        assert p.is_bounded

    def test_orthant(self):
        p = Polyhedron.from_hrep([Halfspace((1, 0), 0), Halfspace((0, 1), 0)], dim=2)
        assert p.vertices == ((F(0), F(0)),)
        assert p.rays == ((F(0), F(1)), (F(1), F(0)))

    def test_empty(self):
        p = Polyhedron.from_hrep([Halfspace((1,), 1), Halfspace((-1,), 0)], dim=1)
        assert p.is_empty
        assert p.vertices == () and p.rays == ()

    def test_whole_space(self):
        p = Polyhedron.from_hrep([], dim=2)
        assert len(p.vertices) == 1
        rays = set(p.rays)
        assert all(tuple(-c for c in r) in rays for r in rays)  # line pairs

    def test_halfplane_has_line(self):
        p = Polyhedron.from_hrep([Halfspace((1, 0), 0)], dim=2)
        assert (F(0), F(1)) in p.rays and (F(0), F(-1)) in p.rays
        assert (F(1), F(0)) in p.rays


class TestVrepToHrep:
    def test_triangle(self):
        p = Polyhedron.from_vrep([(0, 0), (1, 0), (0, 1)], dim=2)
        assert len(p.halfspaces) == 3
        keys = {h.key() for h in p.halfspaces}
        assert not any(_opposite(h).key() in keys for h in p.halfspaces)

    def test_single_point_becomes_equations(self):
        p = Polyhedron.from_vrep([(1, 1)], dim=2)
        # two equations, each as a pair of opposite halfspaces
        assert len(p.halfspaces) == 4
        keys = {h.key() for h in p.halfspaces}
        assert all(_opposite(h).key() in keys for h in p.halfspaces)
        assert all(h.holds((1, 1)) for h in p.halfspaces)
        assert not all(h.holds((1, 2)) for h in p.halfspaces)

    def test_ray_in_one_dimension(self):
        p = Polyhedron.from_vrep([(0,)], rays=[(1,)], dim=1)
        assert [(h.normal, h.offset) for h in p.halfspaces] == [((F(1),), F(0))]

    def test_rays_without_vertex_rejected(self):
        with pytest.raises(ValueError):
            Polyhedron.from_vrep([], rays=[(1, 0)], dim=2)


class TestRemoveRedundant:
    def test_drops_implied(self):
        p = Polyhedron.from_hrep(
            [Halfspace((1, 0), 0), Halfspace((1, 0), -1), Halfspace((0, 1), 0)], dim=2
        )
        out = remove_redundant(p)
        assert [(h.normal, h.offset) for h in out.halfspaces] == [
            ((F(0), F(1)), F(0)),
            ((F(1), F(0)), F(0)),
        ]

    def test_irredundant_unchanged(self):
        out = remove_redundant(unit_square())
        assert len(out.halfspaces) == 4
        assert poly_equal(out, unit_square())

    def test_opposite_pair_preserved(self):
        p = Polyhedron.from_hrep(
            [Halfspace((1, 0), 0), Halfspace((-1, 0), 0), Halfspace((0, 1), 0)], dim=2
        )
        out = remove_redundant(p)
        keys = {h.key() for h in out.halfspaces}
        assert Halfspace((1, 0), 0).key() in keys
        assert Halfspace((-1, 0), 0).key() in keys
        assert poly_equal(out, p)

    def test_idempotent(self):
        rng = random.Random(41)
        for _ in range(25):
            p = _random_hrep(rng, dim=rng.randint(1, 3))
            once = remove_redundant(p)
            twice = remove_redundant(once)
            assert [h.key() for h in twice.halfspaces] == [
                h.key() for h in once.halfspaces
            ]
            assert poly_equal(once, p) or (once.is_empty and p.is_empty)

    def test_duplicates_collapse(self):
        p = Polyhedron.from_hrep(
            [Halfspace((2, 0), 0), Halfspace((1, 0), 0), Halfspace((0, 1), 0)], dim=2
        )
        out = remove_redundant(p)
        assert len(out.halfspaces) == 2


def _feature_hrep(rng, dim):
    """A random H-representation with rational offsets that mixes in what
    redundancy removal has to handle: scaled and loosened copies, opposite
    pairs (an implicit equation, a slab or a contradiction), an exact
    equation as a pair of opposite halfspaces, and normals blind to the last
    axis, which make that axis a line."""
    blind = dim > 1 and rng.random() < 0.3

    def normal():
        while True:
            n = [rng.randint(-3, 3) for _ in range(dim)]
            if blind:
                n[-1] = 0
            if any(n):
                return tuple(n)

    def offset():
        # mostly nonpositive, so most sets hold the origin and are nonempty
        return F(rng.randint(-6, 2), rng.randint(1, 4))

    hs = [Halfspace(normal(), offset()) for _ in range(rng.randint(1, dim + 3))]
    for h in list(hs):
        roll = rng.random()
        if roll < 0.15:
            hs.append(Halfspace(tuple(2 * c for c in h.normal), 2 * h.offset))
        elif roll < 0.3:
            hs.append(Halfspace(h.normal, h.offset - 1))
        elif roll < 0.5:
            gap = rng.choice((0, 0, 1, 1, -1))
            hs.append(Halfspace(tuple(-c for c in h.normal), -h.offset - gap))
    eq = [Halfspace(normal(), offset())] if rng.random() < 0.3 else []
    rng.shuffle(hs)
    return Polyhedron.from_hrep(hs + eq + [_opposite(h) for h in eq], dim=dim)


def _keys(p):
    return [h.key() for h in p.halfspaces]


class TestRemoveRedundantMatchesLp:
    """Redundancy removal by containment in the double description of the
    other constraints keeps exactly what one LP per halfspace keeps."""

    def test_same_output_once_and_twice(self):
        rng = random.Random(47)
        seen = dict.fromkeys(("d1", "empty", "equations", "implicit", "line", "unbounded"), 0)
        for _ in range(150):
            p = _feature_hrep(rng, rng.choice((1, 1, 2, 2, 3, 3, 4)))
            once = remove_redundant(p)
            reference = lp_remove_redundant(p)
            assert _keys(once) == _keys(reference)
            assert _keys(remove_redundant(once)) == _keys(lp_remove_redundant(reference))
            seen["d1"] += p.dim == 1
            if p.is_empty:
                seen["empty"] += 1
                continue
            assert poly_equal(once, p)
            keys = {h.key() for h in once.halfspaces}
            given = {h.key() for h in p.halfspaces}
            seen["equations"] += any(_opposite(h).key() in given for h in p.halfspaces)
            seen["implicit"] += any(_opposite(h).key() in keys for h in once.halfspaces)
            seen["line"] += any(tuple(-c for c in r) in p.rays for r in p.rays)
            seen["unbounded"] += not p.is_bounded
        assert min(seen.values()) >= 5, seen

    def test_solves_no_linear_program(self, monkeypatch):
        import conequant.lp

        def refuse(lp):
            raise AssertionError("redundancy removal solved a linear program")

        monkeypatch.setattr(conequant.lp, "simplex_solve", refuse)
        rng = random.Random(48)
        for _ in range(20):
            p = _feature_hrep(rng, rng.randint(1, 3))
            assert poly_equal(remove_redundant(p), p)


class TestPolyEqual:
    def test_redundant_extra_halfspace(self):
        extra = Polyhedron.from_hrep(
            list(unit_square().halfspaces) + [Halfspace((1, 1), -3)], dim=2
        )
        assert poly_equal(unit_square(), extra)

    def test_different_sets(self):
        tri = Polyhedron.from_vrep([(0, 0), (1, 0), (0, 1)], dim=2)
        assert not poly_equal(unit_square(), tri)

    def test_empty_matches_empty(self):
        a = Polyhedron.from_hrep([Halfspace((1, 0), 2), Halfspace((-1, 0), 0)], dim=2)
        b = Polyhedron.empty(2)
        assert poly_equal(a, b)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            poly_equal(unit_square(), Polyhedron.empty(3))

    def test_containment(self):
        tri = Polyhedron.from_vrep([(0, 0), (1, 0), (0, 1)], dim=2)
        assert poly_contains(unit_square(), tri)
        assert not poly_contains(tri, unit_square())


from conftest import random_hrep_polyhedron as _random_hrep
from conftest import random_vrep_polyhedron as _random_vrep


class TestRoundTrips:
    def test_hrep_vrep_round_trip(self):
        rng = random.Random(42)
        for _ in range(60):
            p = _random_hrep(rng, dim=rng.randint(1, 4))
            if p.is_empty:
                assert poly_equal(p, Polyhedron.empty(p.dim))
                continue
            back = Polyhedron.from_vrep(p.vertices, p.rays, dim=p.dim)
            assert poly_equal(p, back)

    def test_vrep_hrep_round_trip(self):
        rng = random.Random(43)
        for _ in range(60):
            p = _random_vrep(rng, dim=rng.randint(1, 4))
            back = Polyhedron.from_hrep(p.halfspaces, dim=p.dim)
            assert poly_equal(p, back)

    def test_vertices_satisfy_constraints_tightly(self):
        rng = random.Random(44)
        for _ in range(40):
            p = _random_hrep(rng, dim=rng.randint(2, 4))
            if p.is_empty:
                continue
            lines = {tuple(-c for c in r) for r in p.rays} & set(p.rays)
            for v in p.vertices:
                assert all(h.holds(v) for h in p.halfspaces)
                # a minimal face representative is pinned by its tight rows:
                # together with the lineality directions they span the space
                tight = [
                    h.normal
                    for h in p.halfspaces
                    if sum(a * b for a, b in zip(h.normal, v)) == h.offset
                ]
                expected_rank = p.dim - len(lines) // 2
                assert frac_rank(tight) >= expected_rank
            for r in p.rays:
                assert all(h.holds_ray(r) for h in p.halfspaces)

    def test_remove_redundant_order_independent(self):
        rng = random.Random(46)
        for _ in range(15):
            p = _random_hrep(rng, dim=rng.randint(1, 3))
            base = remove_redundant(p)
            shuffled = list(p.halfspaces)
            rng.shuffle(shuffled)
            again = remove_redundant(Polyhedron.from_hrep(shuffled, dim=p.dim))
            assert [h.key() for h in again.halfspaces] == [
                h.key() for h in base.halfspaces
            ]

    def test_empty_flag_backed_by_infeasibility_certificate(self):
        rng = random.Random(45)
        empties = 0
        for _ in range(120):
            p = _random_hrep(rng, dim=rng.randint(1, 3))
            if not p.is_empty:
                continue
            empties += 1
            lp = LinearProgram(
                "min",
                tuple(F(0) for _ in range(p.dim)),
                tuple(h.normal for h in p.halfspaces),
                (">=",) * len(p.halfspaces),
                tuple(h.offset for h in p.halfspaces),
                tuple((None, None) for _ in range(p.dim)),
            )
            out = simplex_solve(lp)
            assert out.status == INFEASIBLE
            # verify the Farkas certificate explicitly
            y = out.y
            assert all(yi >= 0 for yi in y)
            for j in range(p.dim):
                assert sum(y[i] * h.normal[j] for i, h in enumerate(p.halfspaces)) == 0
            assert sum(y[i] * h.offset for i, h in enumerate(p.halfspaces)) > 0
        assert empties >= 5


def _brute_force_rays(rows, dim):
    """Extreme rays of the pointed cone {x : row.x >= 0}: the feasible
    kernel directions of every rank dim-1 set of dim-1 rows."""
    rays = set()
    for sub in combinations(rows, dim - 1):
        if frac_rank(sub) != dim - 1:
            continue
        (kernel,) = frac_nullspace(sub, dim)
        for sign in (1, -1):
            ray = primitive(tuple(sign * c for c in kernel))
            if all(sum(map(mul, row, ray)) >= 0 for row in rows):
                rays.add(ray)
    return rays


def _square_pyramid(dim):
    """Four facets through one point: in dim 3 the cone over a square, whose
    apex is the origin; in dim 4 the homogenized square pyramid, whose apex
    is an extreme ray on four facets where a simple 3-D vertex has three."""
    if dim == 3:
        return [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)]
    return [
        (0, 0, 1, 0),
        (-1, 0, -1, 1),
        (1, 0, -1, 1),
        (0, -1, -1, 1),
        (0, 1, -1, 1),
        (0, 0, 0, 1),
    ]


def _full_rank_prefix(rows, dim):
    """The length of the shortest prefix of ``rows`` of rank ``dim``."""
    return next(m for m in range(dim, len(rows) + 1) if frac_rank(rows[:m]) == dim)


def _rank_deficient_rows(rng, dim, rank):
    """Shuffled rows of rank ``rank`` in dimension ``dim``, with duplicates
    and a zero row."""
    rows = []
    while frac_rank(rows) < rank or not rows:
        basis = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rank)]
        coefs = [
            [rng.randint(-2, 2) for _ in basis]
            for _ in range(rng.randint(rank, rank + 3))
        ]
        rows = [
            tuple(sum(c * b[j] for c, b in zip(cs, basis)) for j in range(dim))
            for cs in coefs
        ]
    rows += [rng.choice(rows) for _ in range(rng.randint(0, 2))] + [(0,) * dim]
    rng.shuffle(rows)
    return rows


class TestPointedConeEngine:
    """The incremental double description against brute force."""

    def _check(self, rows, dim):
        return self._verify(_PointedCone(dim, rows), rows, dim)

    def _verify(self, engine, rows, dim):
        assert engine.lines == []
        assert len(set(engine.rays)) == len(engine.rays)
        assert set(engine.rays) == _brute_force_rays(rows, dim)
        for rid, ray in engine.items():
            zs = engine._zs[rid]
            tight = sum(
                1 << k
                for k, row in enumerate(engine.processed)
                if sum(map(mul, row, ray)) == 0
            )
            assert zs == tight
        # the edge graph: two rays span a 2-face iff the rows tight on both
        # have rank dim-2
        ray, nbrs = engine._ray, engine._nbrs
        assert nbrs.keys() == ray.keys()
        assert all(i in nbrs[j] for i in nbrs for j in nbrs[i])
        edges = {frozenset((ray[i], ray[j])) for i in nbrs for j in nbrs[i]}
        expected = set()
        for a, b in combinations(engine.rays, 2):
            common = [
                row
                for row in engine.processed
                if sum(map(mul, row, a)) == 0 == sum(map(mul, row, b))
            ]
            if frac_rank(common) == dim - 2:
                expected.add(frozenset((a, b)))
        assert edges == expected
        return engine

    @pytest.mark.parametrize("dim", [3, 4])
    def test_square_pyramid_apex(self, dim):
        rows = _square_pyramid(dim)
        self._check(rows, dim)
        rng = random.Random(dim)
        for _ in range(10):
            rng.shuffle(rows)
            self._check(rows, dim)

    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_random_cones(self, dim):
        rng = random.Random(600 + dim)
        checked = 0
        while checked < 40:
            rows = [
                tuple(rng.randint(-2, 2) for _ in range(dim))
                for _ in range(rng.randint(dim, dim + 5))
            ]
            if frac_rank(rows) < dim:
                continue
            # duplicates, zero rows and positive combinations are redundant
            extra = [rng.choice(rows) for _ in range(rng.randint(0, 2))]
            for _ in range(rng.randint(0, 2)):
                a, b = rng.sample(rows, 2)
                extra.append(tuple(x + 2 * y for x, y in zip(a, b)))
            rows += extra + [(0,) * dim]
            rng.shuffle(rows)
            self._check(rows, dim)
            checked += 1

    @pytest.mark.parametrize("dim", [3, 4])
    def test_walk_start_anywhere(self, dim):
        """The same rows with the walk started at a live ray, at a ray an
        earlier row removed (followed to a live ray through the engine's
        map of removed rays) and at an id no ray ever had give the same cone."""
        rng = random.Random(800 + dim)
        through_map = 0
        for _ in range(12):
            rows = [(0,) * (dim - 1) + (1,)]
            while frac_rank(rows) < dim or len(rows) < dim + 8:
                rows.append(tuple(rng.randint(-3, 3) for _ in range(dim - 1)) + (6,))
            m = _full_rank_prefix(rows, dim)
            for how in ("live", "removed", "unknown"):
                engine = _PointedCone(dim, rows[:m])
                for row in rows[m:]:
                    start = None
                    if how == "live":
                        start = rng.choice(list(engine._ray))
                    elif how == "removed":
                        gone = [i for i in engine._heir if i not in engine._ray]
                        if gone:
                            start = rng.choice(gone)
                            heir = start
                            while heir is not None and heir not in engine._ray:
                                heir = engine._heir.get(heir)
                            through_map += heir is not None
                    elif how == "unknown":
                        start = -1
                    engine.add_row(row, start)
                self._verify(engine, rows, dim)
        assert through_map >= 20

    @pytest.mark.parametrize("dim", [3, 4])
    def test_cut_down_to_origin(self, dim):
        # the orthant cut by -sum(x) >= 0 is {0}; later rows leave it so
        orthant = [tuple(int(i == k) for i in range(dim)) for k in range(dim)]
        rows = orthant + [(-1,) * dim, (1,) * dim, (1, -1) + (0,) * (dim - 2)]
        engine = self._check(rows, dim)
        assert engine.rays == [] and len(engine.processed) == len(rows)

    @pytest.mark.parametrize("dim", [3, 4])
    def test_cuts_through_a_hub(self, dim):
        """Benson-style cuts in (coords, value, z0): a box of coords times
        value >= 0, cut by value >= w.(coords - u) for many w in random
        order.  From the second cut on, the apex (u, 0) is a ray on every
        cut, and each cut gives it another neighbour."""
        if dim == 3:
            # only +-3 are facets in the end; +-1 and +-2 only touch the apex
            # once both are in
            normals, degree = [(1,), (-1,), (2,), (-2,), (3,), (-3,)], 2
        else:
            # the 12 integer points of the circle of radius 5: all are facets
            circle = [(5, 0), (4, 3), (3, 4), (0, 5)]
            normals = sorted({(sx * a, sy * b) for a, b in circle for sx in (1, -1) for sy in (1, -1)})
            degree = 12
        k = dim - 2
        rng = random.Random(700 + dim)
        for _ in range(3):
            rows = [(0,) * k + (1, 0), (0,) * k + (0, 1)]
            for j in range(k):
                unit = tuple(int(i == j) for i in range(k))
                rows += [unit + (0, 0), tuple(-u for u in unit) + (0, 12)]
            self._check(rows, dim)
            rng.shuffle(normals)
            for w in normals:
                # value - w.coords + 6 sum(w) z0 >= 0, through u = (6, ..., 6)
                rows.append(tuple(-c for c in w) + (1, 6 * sum(w)))
                engine = self._check(rows, dim)
            apex = next(i for i, r in engine._ray.items() if r == (6,) * k + (0, 1))
            assert len(engine._nbrs[apex]) == degree

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_new_rays_inherit_their_height(self, dim):
        """A new ray's height is its parents' heights combined as the ray
        is: after every insertion each live ray is primitive and its stored
        height is e.r for the sum e of the bootstrap rows.  The cones are
        slices a.x >= -6 x_d of random polytopes and of degenerate ones,
        a in {-1, 0, 1}^(d-1), whose vertices lie on many facets, with
        duplicate rows and one opposite row; their final rays are the same
        in another row order."""
        rng = random.Random(1000 + dim)
        span = (3, 1)
        rays_checked = 0
        for trial in range(8):
            rows = [(0,) * (dim - 1) + (1,)]
            while frac_rank(rows) < dim or len(rows) < 2 * dim + 4:
                a = tuple(rng.randint(-span[trial % 2], span[trial % 2]) for _ in range(dim - 1))
                if any(a):
                    rows.append(a + (6,))
            rows += [rng.choice(rows) for _ in range(2)]
            rows.append(tuple(-v for v in rng.choice(rows[1:])))
            rng.shuffle(rows)
            m = _full_rank_prefix(rows, dim)
            engine = _PointedCone(dim, rows[:m])
            # None checks the bootstrapped cone before the first insertion
            for row in [None, *rows[m:]]:
                if row is not None:
                    engine.add_row(row)
                e = tuple(map(sum, zip(*engine.processed[:dim])))
                for rid, ray in engine.items():
                    assert math.gcd(*ray) == 1
                    assert engine._height[rid] == sum(map(mul, e, ray)) > 0
                    rays_checked += 1
            other = _PointedCone(dim, rng.sample(rows, len(rows)))
            assert set(other.rays) == set(engine.rays)
        assert rays_checked >= 250

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_rank_deficient_rows(self, dim):
        """Rows of every rank 0..dim-1, with zero rows and duplicates: the
        lines are the kernel basis read off all the nonzero rows, and the
        bootstrap rows are the greedy independent rows in input order
        followed by the lines."""
        rng = random.Random(1100 + dim)
        for rank in range(dim):
            for _ in range(4):
                rows = _rank_deficient_rows(rng, dim, rank)
                nonzero = [r for r in rows if any(r)]
                greedy = []
                for row in nonzero:
                    if frac_rank(greedy + [row]) > len(greedy):
                        greedy.append(row)
                engine = _PointedCone(dim, rows)
                assert engine.lines == kernel(*echelon(nonzero), dim)
                assert len(greedy) == rank == dim - len(engine.lines)
                assert engine.processed[:dim] == greedy + engine.lines

    def test_short_kernel_is_an_invariant_failure(self, monkeypatch):
        """Bootstrap rows that do not span the space are caught even under
        python -O: here a kernel basis one line short."""
        monkeypatch.setattr(polyhedra._linalg, "kernel", lambda *args: kernel(*args)[:-1])
        with pytest.raises(InternalInvariantError):
            _PointedCone(3, [(1, 0, 0), (2, 0, 0)])


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_dd_cone_cuts_lineality_away(dim):
    """Rank-deficient rows, every rank 0..dim-1, with zero rows and
    duplicates: the lines are a kernel basis of the rows, and the rays are
    the extreme rays of the pointed cone the rows and +-lines cut out."""
    rng = random.Random(900 + dim)
    with_rays = 0
    for rank in range(dim):
        for _ in range(6):
            rows = _rank_deficient_rows(rng, dim, rank)
            lines, rays = _dd_cone(rows, dim)
            assert len(lines) == dim - rank == frac_rank(lines)
            assert all(sum(map(mul, row, ln)) == 0 for row in rows for ln in lines)
            cut = rows + lines + [tuple(-c for c in ln) for ln in lines]
            assert len(set(rays)) == len(rays)
            assert set(rays) == _brute_force_rays(cut, dim)
            with_rays += bool(rays)
    assert with_rays >= 2 * (dim - 1)


KINDS = ("bounded", "unbounded", "equations", "lineality", "empty")


@st.composite
def hrep_and_permutation(draw):
    """Halfspaces of one kind of polyhedron in d <= 4 with small integer
    data, and a reordering of them; an equation is a pair of opposite
    halfspaces."""
    kind = draw(st.sampled_from(KINDS))
    dim = draw(st.integers(1 if kind != "equations" else 2, 4))
    width = dim - 1 if kind == "lineality" and dim > 1 else dim
    normal = st.tuples(*[st.integers(-3, 3)] * width).filter(any)
    pad = (0,) * (dim - width)
    hs = [
        Halfspace(n + pad, off)
        for n, off in draw(st.lists(st.tuples(normal, st.integers(-6, 6)), max_size=8))
    ]
    for k in range(dim):
        unit = tuple(int(i == k) for i in range(dim))
        if kind == "bounded":
            hs += [Halfspace(unit, -5), Halfspace(tuple(-u for u in unit), -5)]
        elif kind in ("unbounded", "equations"):
            hs.append(Halfspace(unit, -5))
    if kind == "equations":
        for n, off in draw(st.lists(st.tuples(normal, st.integers(-4, 4)), min_size=1, max_size=dim - 1)):
            eq = Halfspace(n, off)
            hs += [eq, _opposite(eq)]
    if kind == "empty":
        hs += [Halfspace((1,) + (0,) * (dim - 1), 1), Halfspace((-1,) + (0,) * (dim - 1), 0)]
    return dim, hs, draw(st.permutations(hs))


@settings(max_examples=150)
@given(hrep_and_permutation())
def test_conversion_ignores_constraint_order(case):
    """The V-representation is a function of the set: any order of the same
    halfspaces gives the same vertices and rays."""
    dim, hs, hs2 = case
    p = Polyhedron.from_hrep(hs, dim=dim)
    q = Polyhedron.from_hrep(hs2, dim=dim)
    assert q.is_empty == p.is_empty
    assert q.vertices == p.vertices
    assert q.rays == p.rays


def _fraction_contains(p, z):
    """Membership by the Fraction constraints that ``halfspaces`` reads as."""
    return all(h.holds(z) for h in p.halfspaces)


def _fraction_poly_contains(outer, inner):
    """Containment by the Fraction constraints of ``outer`` on the vertices
    and rays of ``inner``."""
    if inner.is_empty:
        return True
    if outer.is_empty:
        return False
    return all(_fraction_contains(outer, v) for v in inner.vertices) and all(
        h.holds_ray(r) for h in outer.halfspaces for r in inner.rays
    )


class TestIntegerForm:
    """Both sides of a polyhedron are primitive integer vectors, and every
    containment test is the sign of r.g."""

    def test_contains_builds_no_vrep(self):
        p = unit_square()
        assert p.contains((F(1, 2), 1)) and not p.contains((2, 0))
        assert not p.has_vrep()
        cloud = DataCloud.from_rows([[0, 0], [4, 0], [0, 4], [4, 4], [1, 2]])
        region = oracle_region_2d(cloud, QuantileLevel(F(3, 10), 5), None).region
        assert region.contains((1, 2))
        assert not region.has_vrep()

    def test_matches_the_fraction_rule(self):
        rng = random.Random(90)
        outcomes = {True: 0, False: 0}
        pair_outcomes = {True: 0, False: 0}
        for _ in range(40):
            dim = rng.randint(1, 3)
            pool = [_random_hrep(rng, dim) for _ in range(3)]
            pool += [_random_vrep(rng, dim) for _ in range(3)]
            for p in list(pool):
                if not p.is_empty:  # a subset: some of p's own generators
                    verts = rng.sample(p.vertices, rng.randint(1, len(p.vertices)))
                    pool.append(Polyhedron.from_vrep(verts, p.rays[:1], dim=dim))
            for p in pool:
                points = [
                    tuple(F(rng.randint(-12, 12), rng.randint(1, 3)) for _ in range(dim))
                    for _ in range(15)
                ]
                for z in points + list(p.vertices):
                    got = p.contains(z)
                    assert got == _fraction_contains(p, z), (p.halfspaces, z)
                    outcomes[got] += 1
            for outer in pool:
                for inner in pool:
                    got = poly_contains(outer, inner)
                    assert got == _fraction_poly_contains(outer, inner)
                    pair_outcomes[got] += 1
        assert min(outcomes.values()) >= 200, outcomes
        assert min(pair_outcomes.values()) >= 200, pair_outcomes

    def test_no_fraction_constraint_is_built(self, monkeypatch):
        import conequant.polyhedra as polyhedra

        rng = random.Random(91)
        cases = []
        for _ in range(12):
            dim = rng.randint(1, 3)
            for p in (_random_hrep(rng, dim), _random_vrep(rng, dim)):
                q = _random_hrep(rng, dim)
                z = tuple(F(rng.randint(-6, 6), 2) for _ in range(dim))
                answers = (
                    poly_equal(p, q), poly_contains(p, q), poly_contains(q, p), p.contains(z)
                )
                fresh = Polyhedron.from_vrep(p.vertices, p.rays, dim=dim) if p.vertices else p
                cases.append((p, fresh, q, z, answers, _keys(remove_redundant(p))))

        def refuse(*args):
            raise AssertionError("a Fraction constraint was built")

        monkeypatch.setattr(polyhedra, "Halfspace", refuse)
        reduced = []
        for p, fresh, q, z, answers, _ in cases:
            for r in (p, fresh):
                got = (poly_equal(r, q), poly_contains(r, q), poly_contains(q, r), r.contains(z))
                assert got == answers
                reduced.append(remove_redundant(r))
                assert poly_equal(reduced[-1], r)
        monkeypatch.undo()
        assert [_keys(out) for out in reduced] == [keys for *_, keys in cases for _ in range(2)]

    def test_hrep_reads_at_primitive_scale(self):
        (h,) = Polyhedron.from_hrep([Halfspace((-2, 4), 6)], dim=2).halfspaces
        assert (h.normal, h.offset) == ((F(-1), F(2)), F(3))
        eq = Halfspace((F(1, 2), F(-3, 4)), 1)
        pair = Polyhedron.from_hrep([eq, _opposite(eq)], dim=2).halfspaces
        assert [(h.normal, h.offset) for h in pair] == [
            ((F(2), F(-3)), F(4)),
            ((F(-2), F(3)), F(-4)),
        ]

    def test_vrep_reads_sorted_at_primitive_scale(self):
        p = Polyhedron.from_vrep([(1, 1), (0, F(1, 2)), (0, 0)], rays=[(F(1, 2), 1), (0, 6)], dim=2)
        assert p.vertices == ((F(0), F(0)), (F(0), F(1, 2)), (F(1), F(1)))
        assert p.rays == ((F(0), F(1)), (F(1), F(2)))

    def test_conversions_give_primitive_rows_in_key_order(self):
        # 2x + 3y <= 6 reads as (-2, -3).z >= -6, not as (-1, -3/2).z >= -3
        tri = Polyhedron.from_vrep([(0, 0), (3, 0), (0, 2)], dim=2)
        assert [(h.normal, h.offset) for h in tri.halfspaces] == [
            ((F(-2), F(-3)), F(-6)),
            ((F(0), F(1)), F(0)),
            ((F(1), F(0)), F(0)),
        ]
        segment = Polyhedron.from_vrep([(0, 0), (3, 2)], dim=2)
        rows = [(h.normal, h.offset) for h in segment.halfspaces]
        assert ((F(2), F(-3)), F(0)) in rows and ((F(-2), F(3)), F(0)) in rows
        assert [h.key() for h in segment.halfspaces] == sorted(
            h.key() for h in segment.halfspaces
        )
        p = Polyhedron.from_hrep(
            [Halfspace((4, 6), 12), Halfspace((1, 0), 0), Halfspace((2, 3), 5)], dim=2
        )
        assert [(h.normal, h.offset) for h in remove_redundant(p).halfspaces] == [
            ((F(1), F(0)), F(0)),
            ((F(2), F(3)), F(6)),
        ]
