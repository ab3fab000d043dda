from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conequant import (
    DataCloud,
    Halfspace,
    IntegralNp,
    Polyhedron,
    QuantileLevel,
    lift_dataset,
    poly_contains,
    poly_equal,
    quantile_region,
    region_membership,
    tukey_depth,
    tukey_region,
    unlift_normal,
    validate_cone,
)
from conequant.oracle import check_tukey_region, oracle_region_2d
from conftest import assert_depth_brackets, random_cloud, random_valid_level

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
        from conftest import random_cone

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

    def test_unlift_examples(self):
        assert unlift_normal(("1/5", "3/10", "1/2")) == (F(-3, 10), F(-1, 5))
        assert unlift_normal((1, 1, 1)) == (F(0), F(0))
        assert unlift_normal((1, 0, 0)) == (F(1), F(0))

    def test_unlift_identity(self):
        rng = random.Random(63)
        for _ in range(100):
            d = rng.randint(1, 4)
            x = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d))
            w = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d + 1))
            lifted = x + (-sum(x),)
            lhs = sum(a * b for a, b in zip(w, lifted))
            lam = unlift_normal(w)
            rhs = sum(a * b for a, b in zip(lam, x))
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
        pruned = tukey_region(SQUARE, level, prune=True)
        assert poly_equal(plain.region, pruned.region)
        assert pruned.defining_entries == plain.defining_entries
        assert len(pruned.region.halfspaces) <= len(plain.region.halfspaces)

    def test_integral_np_rejected(self):
        with pytest.raises(IntegralNp):
            tukey_region(SQUARE, QuantileLevel(F(1, 2), 4))


class TestMembership:
    def test_square_fixture_points(self):
        level = QuantileLevel(F(3, 10), 4)
        assert region_membership(SQUARE, level, None, (F(1, 2), F(1, 2)))
        assert not region_membership(SQUARE, level, None, (F(2, 5), F(1, 2)))

    def test_cone_vertex_member(self):
        cloud = DataCloud.from_rows([[0, 0], [1, 1]])
        level = QuantileLevel(F(3, 4), 2)
        assert region_membership(cloud, level, orthant(2), (1, 1))

    def test_cached_region_reused(self):
        level = QuantileLevel(F(3, 10), 4)
        reg = tukey_region(SQUARE, level)
        assert region_membership(SQUARE, level, None, (F(1, 2), F(1, 2)), region=reg)


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

    def test_regions_are_exact_in_3d(self):
        """Region vertices have depth >= k; at each facet, the centroid of
        its vertices has depth >= k and that point moved past the facet by
        w/M has depth < k."""
        rng = random.Random(63)
        facets_checked = 0
        for _ in range(14):
            n = rng.randint(4, 12)
            cloud = random_cloud(rng, n, 3, span=10)
            k = rng.randint(1, max(1, n // 3))
            reg = tukey_region(cloud, QuantileLevel(F(2 * k - 1, 2 * n), n))
            check = check_tukey_region(cloud, reg)
            assert check.refutation is None
            assert check.vertices == len(reg.region.vertices)
            facets_checked += check.facets
        assert facets_checked >= 100


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
