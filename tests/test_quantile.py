from __future__ import annotations

import dataclasses
import operator
import random
from fractions import Fraction

import pytest

from conequant import (
    DataCloud,
    DimensionMismatch,
    Halfspace,
    IntegralNp,
    InternalInvariantError,
    Polyhedron,
    QuantileLevel,
    QuantileRegion,
    benson_dual_solve,
    format_rational,
    lift_dataset,
    make_dual_basis,
    poly_contains,
    poly_equal,
    project_data,
    quantile_direct,
    quantile_region,
    region_membership,
    remove_redundant,
    tukey_depth,
    tukey_region,
    validate_cone,
)
from conequant._linalg import primitive
from conequant.cli import region_document
from conequant.oracle import check_region, oracle_region_2d
from conftest import (
    assert_depth_brackets,
    depth_level,
    random_cloud,
    random_cone,
    random_valid_level,
    scalar_cloud,
)

F = Fraction

SQUARE = DataCloud.from_rows([[0, 0], [1, 0], [0, 1], [1, 1]])
TRIANGLE = DataCloud.from_rows([[0, 0], [1, 0], [0, 1]])


def orthant(dim):
    return validate_cone([[int(i == j) for j in range(dim)] for i in range(dim)])


class TestQuantileRegionFixtures:
    def test_two_point_high(self):
        cloud = DataCloud.from_rows([[0, 0], [1, 1]])
        reg = quantile_region(cloud, QuantileLevel(F(3, 4), 2), orthant(2))
        expected = Polyhedron.from_vrep([(1, 1)], rays=[(1, 0), (0, 1)], dim=2)
        assert poly_equal(reg.region, expected)

    def test_two_point_low(self):
        cloud = DataCloud.from_rows([[0, 0], [1, 1]])
        reg = quantile_region(cloud, QuantileLevel(F(1, 4), 2), orthant(2))
        expected = Polyhedron.from_vrep([(0, 0)], rays=[(1, 0), (0, 1)], dim=2)
        assert poly_equal(reg.region, expected)

    def test_univariate_interval(self):
        cloud = DataCloud.from_rows([[1], [2], [3], [4], [5]])
        reg = quantile_region(cloud, QuantileLevel(F(1, 2), 5), validate_cone([[1]]))
        expected = Polyhedron.from_vrep([(3,)], rays=[(1,)], dim=1)
        assert poly_equal(reg.region, expected)

    def test_intersection_matches_defining_entries(self):
        rng = random.Random(61)
        for _ in range(10):
            dim = rng.randint(1, 3)
            cloud = random_cloud(rng, rng.randint(1, 8), dim, span=10)
            level = random_valid_level(rng, cloud.n, max_den=30)
            reg = quantile_region(cloud, level, random_cone(rng, dim))
            rebuilt = Polyhedron.from_hrep(
                [Halfspace(w, t) for w, t in reg.defining_entries], dim=dim
            )
            assert poly_equal(reg.region, rebuilt)
            assert reg.provenance == "cone-quantile"


class TestLifting:
    def test_lift_examples(self):
        assert lift_dataset(DataCloud.from_rows([[1, 2]])).points == (
            (F(1), F(2), F(-3)),
        )
        assert lift_dataset(DataCloud.from_rows([[0, 0]])).points == ((F(0), F(0), F(0)),)
        assert lift_dataset(DataCloud.from_rows([[1], [-1]])).points == (
            (F(1), F(-1)),
            (F(-1), F(1)),
        )

    def test_lifted_points_sum_to_zero(self):
        rng = random.Random(62)
        cloud = random_cloud(rng, 10, 3)
        for p in lift_dataset(cloud).points:
            assert sum(p) == 0

    def test_unlift_identity(self):
        """w.lift(x) = (w_j - w_d)_{j<d}.x for every point x and lifted
        normal w, the identity by which a Tukey entry is unlifted."""
        rng = random.Random(63)
        for _ in range(100):
            d = rng.randint(1, 4)
            x = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d))
            w = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d + 1))
            (lifted,) = lift_dataset(DataCloud.from_rows([x])).points
            lhs = sum(a * b for a, b in zip(w, lifted))
            rhs = sum((wj - w[-1]) * xj for wj, xj in zip(w, x))
            assert lhs == rhs


class TestTukeyRegion:
    def test_square_center_point(self):
        reg = tukey_region(SQUARE, QuantileLevel(F(3, 10), 4))
        assert not reg.region.is_empty
        assert reg.region.vertices == ((F(1, 2), F(1, 2)),)
        assert reg.region.rays == ()
        assert reg.provenance == "tukey-lifted"

    def test_triangle_empty(self):
        reg = tukey_region(TRIANGLE, QuantileLevel(F(2, 5), 3))
        assert reg.region.is_empty

    def test_single_point_cloud(self):
        cloud = DataCloud.from_rows([[0, 0]])
        reg = tukey_region(cloud, QuantileLevel(F(1, 3), 1))
        assert poly_equal(reg.region, Polyhedron.from_vrep([(0, 0)], dim=2))

    def test_prune_preserves_set_and_entries(self):
        level = QuantileLevel(F(3, 10), 4)
        plain = tukey_region(SQUARE, level)
        pruned = remove_redundant(plain.region)
        assert poly_equal(plain.region, pruned)
        assert len(pruned.halfspaces) <= len(plain.region.halfspaces)

    def test_integral_np_rejected(self):
        with pytest.raises(IntegralNp):
            tukey_region(SQUARE, QuantileLevel(F(1, 2), 4))

    def test_zero_unlifted_normal_with_positive_offset_is_an_invariant_failure(
        self, monkeypatch
    ):
        """The weight that unlifts to zero projects every lifted point to 0,
        so its offset is 0; a solver that reports a positive one is wrong."""
        import conequant.quantile as quantile

        real = quantile.benson_dual_solve

        def with_bad_entry(cloud, level, basis):
            sol = real(cloud, level, basis)
            # the apex weight (1/d, ..., 1/d) with t = 1, as the record
            # (1, ..., 1, d, d)
            apex = (1,) * cloud.dim + (cloud.dim, cloud.dim)
            return dataclasses.replace(sol, records=sol.records + (apex,))

        monkeypatch.setattr(quantile, "benson_dual_solve", with_bad_entry)
        with pytest.raises(InternalInvariantError):
            tukey_region(SQUARE, QuantileLevel(F(3, 10), 4))


def _row_corpus(rng):
    """(cloud, cone or None) pairs for the integer-row regions: seeded clouds
    in d = 1-4, collinear clouds, duplicate points, N = 1, coordinates of
    size 10**12/10**9 and one cloud whose common denominator is about
    10**190, where the scaled squared distances of the row order would
    overflow a float."""
    corpus = []
    for dim, n in ((1, 6), (2, 9), (3, 8), (4, 6)):
        corpus.append((random_cloud(rng, n, dim, span=9), None))
        corpus.append((random_cloud(rng, n, dim, span=9), random_cone(rng, dim)))
    line = [(t, 2 * t - 1, -t) for t in (rng.randint(-5, 5) for _ in range(6))]
    corpus.append((DataCloud.from_rows(line), None))
    corpus.append((DataCloud.from_rows([r[:2] for r in line]), random_cone(rng, 2)))
    twice = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(4)] * 2
    corpus.append((DataCloud.from_rows(twice), None))
    corpus.append((DataCloud.from_rows(twice), random_cone(rng, 3)))
    corpus.append((DataCloud.from_rows([[F(7, 3), F(-1, 2)]]), None))
    corpus.append((DataCloud.from_rows([[F(7, 3), F(-1, 2), 5]]), random_cone(rng, 3)))
    big = [
        [F(rng.randint(-10**12, 10**12), rng.randint(1, 10**9)) for _ in range(3)]
        for _ in range(6)
    ]
    corpus.append((DataCloud.from_rows(big), None))
    huge = [
        [F(rng.randint(-10**6, 10**6), 3 ** rng.randint(0, 400)) for _ in range(2)]
        for _ in range(7)
    ]
    corpus.append((DataCloud.from_rows(huge), None))
    corpus.append((DataCloud.from_rows(huge), random_cone(rng, 2)))
    return corpus


class TestIntegerRows:
    """A solved region is built from the dual solve's integer rows; its
    V-representation and its halfspaces, up to a positive scale, match the
    intersection of the defining entries' Fraction halfspaces."""

    def test_rows_give_the_region_of_the_entries(self):
        rng = random.Random(68)
        empty = 0
        for cloud, cone in _row_corpus(rng):
            if cone is None:
                # a depth up to N/2, whose region is seldom empty, and N
                solves = [
                    tukey_region(cloud, depth_level(k, cloud.n))
                    for k in (rng.randint(1, (cloud.n + 1) // 2), cloud.n)
                ]
            else:
                solves = [
                    quantile_region(cloud, random_valid_level(rng, cloud.n, max_den=12), cone)
                ]
            for reg in solves:
                hs = tuple(Halfspace(w, t) for w, t in reg.defining_entries)
                want = Polyhedron.from_hrep(hs, dim=cloud.dim)
                got = reg.region
                assert (got.is_empty, got.vertices, got.rays) == (
                    want.is_empty,
                    want.vertices,
                    want.rays,
                )
                # the entries' halfspaces, at the rows' scale and order, and
                # no other row
                assert sorted(map(Halfspace.key, got.halfspaces)) == sorted(map(Halfspace.key, hs))
                empty += got.is_empty
        assert 0 < empty < 10


def _fan(dim, sign=1):
    """The cone of sign (e_1 +- e_j), j >= 2 (the ray sign e_1 when dim is
    1): its generator sum, the default interior point, ends in 0 for
    dim >= 2, so its dual basis is permuted, and the solver frame's last
    c-component has the given sign."""
    if dim == 1:
        return validate_cone([[sign]])
    unit = [[int(i == j) for j in range(dim)] for i in range(dim)]
    return validate_cone(
        [
            [sign * (a + s * b) for a, b in zip(unit[0], unit[j])]
            for j in range(1, dim)
            for s in (1, -1)
        ]
    )


def _vertex_entries(cloud, level, basis, sol):
    """The entries (w, t) of a dual solution rebuilt from its vertex rays
    (a, m, z0), not from its records: the solver-frame weight has the
    signed coords w_j = sigma a_j / z0, j < d, and c.w = 1 fixes w_d; w is
    unpermuted, and t is the direct quantile of the cloud projected on w."""
    c = basis.solver_c
    entries = []
    for *a, _, z0 in sol.vertex_rays:
        head = [basis.sigma * F(v, z0) for v in a]
        w = basis.unpermute((*head, (1 - sum(map(operator.mul, c, head))) / c[-1]))
        entries.append((w, quantile_direct(scalar_cloud(project_data(cloud, w)), level)))
    return entries


class TestEntryRecords:
    """A solved region keeps each entry as one integer record; its Fraction
    pairs are built when ``defining_entries`` is first read, and the
    document formats the records straight to the same strings."""

    def test_lazy_pairs_match_the_vertex_rays(self):
        """On seeded rational clouds in d = 1-4, Tukey regions and cone
        regions on bases with sigma = 1 and -1, permuted for d >= 2: the
        pairs equal the entries rebuilt from the dual solve's vertex rays
        (unlifted as lambda_j = w_j - w_d for Tukey regions, with the zero
        lambda dropped and its t 0), every row of the region is its
        record's primitive((n, -m)), and the document's halfspaces are those
        pairs as format_rational writes them."""
        rng = random.Random(92)
        permuted = negative = entries = 0
        for dim in (1, 2, 3, 4):
            for _ in range(3):
                n = rng.randint(4, 7)
                points = [
                    [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(dim)] for _ in range(n)
                ]
                cloud = DataCloud.from_rows(points)
                level = random_valid_level(rng, n, max_den=12)
                lifted = lift_dataset(cloud)
                tukey_basis = make_dual_basis(orthant(dim + 1), (1,) * (dim + 1))
                sol = benson_dual_solve(lifted, level, tukey_basis)
                want_tukey = []
                for w, t in _vertex_entries(lifted, level, tukey_basis, sol):
                    lam = tuple(v - w[-1] for v in w[:-1])
                    if any(lam):
                        t_lam = quantile_direct(scalar_cloud(project_data(cloud, lam)), level)
                        assert t_lam == t
                        want_tukey.append((lam, t))
                    else:
                        assert t == 0
                solves = [(tukey_region(cloud, level), want_tukey, "tukey")]
                for sign in (1, -1):
                    cone = _fan(dim, sign)
                    basis = make_dual_basis(cone)
                    permuted += basis.is_permuted
                    negative += basis.sigma < 0
                    sol = benson_dual_solve(cloud, level, basis)
                    want = _vertex_entries(cloud, level, basis, sol)
                    solves.append((quantile_region(cloud, level, cone), want, None))
                for reg, want, echo in solves:
                    assert all(rec[-1] > 0 for rec in reg.entry_records)
                    assert sorted(reg.region._rows) == sorted(
                        primitive((*w, -t)) for *w, t, _ in reg.entry_records
                    )
                    assert "defining_entries" not in vars(reg)
                    doc = region_document(reg, cloud, echo, None)
                    assert "defining_entries" not in vars(reg)
                    assert reg.defining_entries == tuple(want)
                    assert doc["halfspaces"] == [
                        {"w": [format_rational(c) for c in w], "t": format_rational(t)}
                        for w, t in want
                    ]
                    again = QuantileRegion.from_pairs(reg.region, want, level, reg.provenance)
                    assert again.defining_entries == reg.defining_entries
                    entries += len(want)
        assert (permuted, negative) == (18, 12) and entries >= 100


class TestMembership:
    def test_square_fixture_points(self):
        level = QuantileLevel(F(3, 10), 4)
        assert region_membership(SQUARE, level, None, (F(1, 2), F(1, 2)))
        assert not region_membership(SQUARE, level, None, (F(2, 5), F(1, 2)))

    def test_cone_vertex_member(self):
        cloud = DataCloud.from_rows([[0, 0], [1, 1]])
        level = QuantileLevel(F(3, 4), 2)
        assert region_membership(cloud, level, orthant(2), (1, 1))

    def test_typed_errors(self):
        with pytest.raises(IntegralNp):
            region_membership(SQUARE, QuantileLevel(F(1, 2), 4), None, (0, 0))
        with pytest.raises(DimensionMismatch):
            region_membership(SQUARE, QuantileLevel(F(3, 10), 4), orthant(2), (0, 0, 0))
        with pytest.raises(DimensionMismatch):
            region_membership(SQUARE, QuantileLevel(F(3, 10), 5), None, (0, 0))
        with pytest.raises(DimensionMismatch):
            region_membership(SQUARE, QuantileLevel(F(3, 10), 4), orthant(3), (0, 0))

    def test_solves_no_region(self, monkeypatch):
        import conequant.quantile as quantile

        def refuse(*args, **kwargs):
            raise AssertionError("membership solved a region")

        monkeypatch.setattr(quantile, "benson_dual_solve", refuse)
        level = QuantileLevel(F(3, 10), 4)
        assert region_membership(SQUARE, level, None, (F(1, 2), F(1, 2)))
        assert not region_membership(SQUARE, level, orthant(2), (0, 0))


def _corpus_cone(rng, dim, kind):
    """A random validated cone and an interior point (None for the
    default): kind 1 gives a basis with sigma = -1, kind 2 an interior point
    with a zero last component (a permuted basis) and kind 3 a zero
    generator row."""
    cone = random_cone(rng, dim)
    gens = [list(g) for g in cone.generators]
    if kind == 1 and make_dual_basis(cone).sigma == 1:
        gens = [g[:-1] + [-g[-1]] for g in gens]
    elif kind == 2 and dim > 1:
        s = [sum(g[j] for g in gens) for j in range(dim)]
        j = next(j for j in range(dim) if s[j] != 0)
        if j < dim - 1:
            # a shear that zeroes the last coordinate of the interior point s
            f = s[-1] / s[j]
            gens = [g[:-1] + [g[-1] - f * g[j]] for g in gens]
            return validate_cone(gens), tuple(s[:-1]) + (F(0),)
    elif kind == 3:
        gens.append([0] * dim)
    return validate_cone(gens), None


def _corpus_queries(rng, region):
    """Every vertex, each vertex plus each ray, each vertex moved by 1/7
    along every axis both ways, and 8 random rational points."""
    verts, rays, dim = region.vertices, region.rays, region.dim
    out = list(verts)
    for v in verts:
        out += [tuple(a + b for a, b in zip(v, r)) for r in rays]
        for j in range(dim):
            for step in (F(1, 7), F(-1, 7)):
                out.append(tuple(a + step * (i == j) for i, a in enumerate(v)))
    for _ in range(8):
        out.append(tuple(F(rng.randint(-24, 24), rng.randint(1, 4)) for _ in range(dim)))
    return out


class TestConeDepth:
    def test_matches_region_membership(self):
        """Depth >= ceil(N p) decides membership in the solved cone region,
        for integer and rational clouds, sigma = -1, permuted bases and zero
        generator rows."""
        rng = random.Random(71)
        points = 0
        kinds = {"sigma": 0, "permuted": 0, "zero row": 0}
        for dim, cases, n_max in ((1, 16, 8), (2, 32, 8), (3, 32, 7), (4, 12, 6)):
            for i in range(cases):
                n = rng.randint(1, n_max)
                if i % 2:
                    rows = [
                        [F(rng.randint(-12, 12), rng.randint(1, 3)) for _ in range(dim)]
                        for _ in range(n)
                    ]
                else:
                    rows = [[rng.randint(-6, 6) for _ in range(dim)] for _ in range(n)]
                cloud = DataCloud.from_rows(rows)
                cone, c = _corpus_cone(rng, dim, i % 4)
                basis = make_dual_basis(cone, c)
                kinds["sigma"] += basis.sigma == -1
                kinds["permuted"] += basis.is_permuted
                kinds["zero row"] += any(not any(g) for g in cone.generators)
                level = random_valid_level(rng, n, max_den=20)
                reg = quantile_region(cloud, level, cone, c)
                for z in _corpus_queries(rng, reg.region):
                    member = reg.region.contains(z)
                    assert region_membership(cloud, level, cone, z) == member, (rows, cone, z)
                    points += 1
        assert points >= 2000
        assert min(kinds.values()) >= 10, kinds


class TestTukeyDepth:
    def test_square_fixture_depths(self):
        assert tukey_depth(SQUARE, (F(1, 2), F(1, 2))) == 2
        assert tukey_depth(SQUARE, (0, 0)) == 1
        assert tukey_depth(SQUARE, (5, 5)) == 0

    def test_data_point_consistency(self):
        rng = random.Random(64)
        for _ in range(8):
            cloud = random_cloud(rng, rng.randint(1, 8), 2, span=8)
            level = random_valid_level(rng, cloud.n, max_den=20)
            reg = tukey_region(cloud, level)
            for x in cloud.points:
                if reg.region.contains(x):
                    assert tukey_depth(cloud, x) >= level.ceil_np

    def test_matches_region_sweep(self):
        rng = random.Random(65)
        for dim, n_max, clouds in ((1, 9, 6), (2, 9, 9), (3, 7, 6), (4, 5, 3)):
            for i in range(clouds):
                cloud = _depth_test_cloud(rng, dim, n_max, i)
                for z in _depth_test_queries(rng, cloud):
                    depth = tukey_depth(cloud, z)
                    assert_depth_brackets(cloud, z, depth)
                    if dim == 2:
                        assert_depth_brackets(cloud, z, depth, _oracle_region)

    def test_planar_depth_does_no_rank_elimination(self, monkeypatch):
        """In d <= 2 the count goes straight to the planar sweep: with
        echelon refusing, Tukey depths still bracket the regions of the
        depth sweep's corpus and cone depths still decide membership in the
        solved regions.  A d = 3 query still eliminates."""
        import conequant.quantile as quantile

        def refuse(rows):
            raise AssertionError("depth eliminated for a rank")

        monkeypatch.setattr(quantile, "echelon", refuse)
        rng = random.Random(65)
        for dim, n_max, clouds in ((1, 9, 6), (2, 9, 9)):
            region = tukey_region if dim == 1 else _oracle_region
            for i in range(clouds):
                cloud = _depth_test_cloud(rng, dim, n_max, i)
                for z in _depth_test_queries(rng, cloud):
                    assert_depth_brackets(cloud, z, tukey_depth(cloud, z), region)
        for dim in (1, 2):
            for kind in range(4):
                cloud = random_cloud(rng, rng.randint(1, 8), dim, span=6)
                cone, c = _corpus_cone(rng, dim, kind)
                level = random_valid_level(rng, cloud.n, max_den=20)
                reg = quantile_region(cloud, level, cone, c).region
                for z in _corpus_queries(rng, reg):
                    assert region_membership(cloud, level, cone, z) == reg.contains(z)
        cube = DataCloud.from_rows([[i >> 2 & 1, i >> 1 & 1, i & 1] for i in range(8)])
        with pytest.raises(AssertionError, match="eliminated"):
            tukey_depth(cube, (F(1, 2), F(1, 2), F(1, 2)))

    def test_regions_are_exact_in_3d(self):
        """Region vertices have depth >= k, and every halfspace of the region
        lies at its quantile."""
        rng = random.Random(63)
        halfspaces_checked = 0
        for _ in range(14):
            n = rng.randint(4, 12)
            cloud = random_cloud(rng, n, 3, span=10)
            k = rng.randint(1, max(1, n // 3))
            reg = tukey_region(cloud, QuantileLevel(F(2 * k - 1, 2 * n), n))
            check = check_region(cloud, None, reg)
            assert check.refutation is None
            assert check.vertices == len(reg.region.vertices)
            halfspaces_checked += check.halfspaces
        assert halfspaces_checked >= 100


def _depth_test_cloud(rng, dim, n_max, i):
    """The first cloud has one point; then plain, duplicated and (from
    d = 2 on) collinear clouds in turn."""
    if i == 0:
        return random_cloud(rng, 1, dim, span=6)
    n = rng.randint(2, n_max)
    kind = i % 3
    if kind == 2 and dim > 1:
        step = [rng.randint(-3, 3) or 1 for _ in range(dim)]
        base = [rng.randint(-3, 3) for _ in range(dim)]
        ts = [rng.randint(-3, 3) for _ in range(n)]
        return DataCloud.from_rows([[b + t * s for b, s in zip(base, step)] for t in ts])
    cloud = random_cloud(rng, n, dim, span=6)
    if kind == 1:
        extra = tuple(rng.choice(cloud.points) for _ in range(rng.randint(1, n)))
        return DataCloud(cloud.points + extra)
    return cloud


def _depth_test_queries(rng, cloud):
    """A data point, the (rational) centroid, a rational point near the
    cloud and a point outside its bounding box."""
    dim = cloud.dim
    return [
        rng.choice(cloud.points),
        tuple(sum(p[j] for p in cloud.points) / cloud.n for j in range(dim)),
        tuple(F(rng.randint(-14, 14), rng.randint(1, 3)) for _ in range(dim)),
        tuple(max(p[j] for p in cloud.points) + F(1, 3) for j in range(dim)),
    ]


def _oracle_region(cloud, level):
    return oracle_region_2d(cloud, level, None)


class TestRegionLaws:
    def test_nested_in_level(self):
        rng = random.Random(65)
        for _ in range(6):
            cloud = random_cloud(rng, rng.randint(2, 8), 2, span=8)
            l1 = random_valid_level(rng, cloud.n, max_den=20)
            l2 = random_valid_level(rng, cloud.n, max_den=20)
            if l1.p > l2.p:
                l1, l2 = l2, l1
            r1 = tukey_region(cloud, l1)
            r2 = tukey_region(cloud, l2)
            assert poly_contains(r1.region, r2.region)

    def test_translation_equivariance(self):
        rng = random.Random(66)
        for _ in range(6):
            cloud = random_cloud(rng, rng.randint(1, 7), 2, span=8)
            level = random_valid_level(rng, cloud.n, max_den=20)
            shift = tuple(F(rng.randint(-5, 5)) for _ in range(2))
            moved = DataCloud(
                tuple(tuple(a + b for a, b in zip(p, shift)) for p in cloud.points)
            )
            base = tukey_region(cloud, level)
            translated = tukey_region(moved, level)
            expected = Polyhedron.from_hrep(
                [
                    Halfspace(w, t + sum(a * b for a, b in zip(w, shift)))
                    for w, t in base.defining_entries
                ],
                dim=2,
            )
            assert poly_equal(translated.region, expected)

    def test_positive_scaling_equivariance(self):
        rng = random.Random(67)
        for _ in range(6):
            cloud = random_cloud(rng, rng.randint(1, 7), 2, span=8)
            level = random_valid_level(rng, cloud.n, max_den=20)
            alpha = F(rng.randint(1, 6), rng.randint(1, 6))
            scaled = DataCloud(
                tuple(tuple(alpha * c for c in p) for p in cloud.points)
            )
            base = tukey_region(cloud, level)
            scaled_reg = tukey_region(scaled, level)
            expected = Polyhedron.from_hrep(
                [Halfspace(w, alpha * t) for w, t in base.defining_entries], dim=2
            )
            assert poly_equal(scaled_reg.region, expected)
