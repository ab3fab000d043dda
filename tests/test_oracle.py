from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conequant import (
    DataCloud,
    DimensionNot2,
    Halfspace,
    Polyhedron,
    QuantileLevel,
    QuantileRegion,
    critical_directions,
    membership_sample,
    oracle_region_2d,
    poly_equal,
    quantile_direct,
    quantile_region,
    ScalarSample,
    project_data,
    tukey_region,
    validate_cone,
)
from conequant.oracle import check_region
from conftest import random_cloud, random_cone, random_valid_level

F = Fraction

SQUARE = DataCloud.from_rows([[0, 0], [1, 0], [0, 1], [1, 1]])
TRIANGLE = DataCloud.from_rows([[0, 0], [1, 0], [0, 1]])


def orthant2():
    return validate_cone([[1, 0], [0, 1]])


class TestOracleFixtures:
    def test_square_tukey_is_center(self):
        reg = oracle_region_2d(SQUARE, QuantileLevel(F(3, 10), 4), None)
        assert reg.region.vertices == ((F(1, 2), F(1, 2)),)
        # exhaustive membership over a rational grid confirms the point
        level = QuantileLevel(F(3, 10), 4)
        for i in range(0, 9):
            for j in range(0, 9):
                z = (F(i, 8), F(j, 8))
                expected = z == (F(1, 2), F(1, 2))
                assert reg.region.contains(z) == expected

    def test_triangle_tukey_empty(self):
        reg = oracle_region_2d(TRIANGLE, QuantileLevel(F(2, 5), 3), None)
        assert reg.region.is_empty
        level = QuantileLevel(F(2, 5), 3)
        for i in range(0, 7):
            for j in range(0, 7):
                assert not reg.region.contains((F(i, 6), F(j, 6)))

    def test_two_point_cone(self):
        cloud = DataCloud.from_rows([[0, 0], [1, 1]])
        reg = oracle_region_2d(cloud, QuantileLevel(F(3, 4), 2), orthant2())
        expected = Polyhedron.from_vrep([(1, 1)], rays=[(1, 0), (0, 1)], dim=2)
        assert poly_equal(reg.region, expected)

    def test_dimension_guard(self):
        cloud = DataCloud.from_rows([[1, 2, 3]])
        with pytest.raises(DimensionNot2):
            oracle_region_2d(cloud, QuantileLevel(F(1, 3), 1), None)


class TestCriticalDirections:
    def test_pair_normals_present(self):
        dirs = critical_directions(DataCloud.from_rows([[0, 0], [1, 0]]), None)
        assert (0, 1) in dirs and (0, -1) in dirs  # normals of the difference
        assert (1, 0) in dirs and (-1, 0) in dirs  # axes always included

    def test_cone_case_stays_in_dual(self):
        cone = orthant2()
        dirs = critical_directions(SQUARE, cone)
        for w in dirs:
            assert w[0] >= 0 and w[1] >= 0
        assert (1, 0) in dirs and (0, 1) in dirs  # extreme rays of the dual

    def test_extra_directions_never_shrink(self):
        # completeness: any further direction's halfspace already contains
        # the oracle region
        rng = random.Random(71)
        for _ in range(10):
            cloud = random_cloud(rng, rng.randint(1, 9), 2, span=9)
            level = random_valid_level(rng, cloud.n, max_den=25)
            reg = oracle_region_2d(cloud, level, None)
            for _ in range(50):
                w = (rng.randint(-9, 9), rng.randint(-9, 9))
                if w == (0, 0):
                    continue
                sample = ScalarSample(
                    tuple(w[0] * p[0] + w[1] * p[1] for p in cloud.points)
                )
                q = quantile_direct(sample, level)
                cut = Polyhedron.from_hrep(
                    list(reg.region.halfspaces) + [Halfspace((F(w[0]), F(w[1])), q)],
                    dim=2,
                )
                assert poly_equal(cut, reg.region)


class TestOracleAgainstSolver:
    def test_random_tukey_equivalence(self):
        rng = random.Random(72)
        for _ in range(15):
            cloud = random_cloud(rng, rng.randint(1, 12), 2, span=12)
            level = random_valid_level(rng, cloud.n, max_den=40)
            solved = tukey_region(cloud, level)
            reference = oracle_region_2d(cloud, level, None)
            assert poly_equal(solved.region, reference.region)

    def test_random_cone_equivalence(self):
        rng = random.Random(73)
        for _ in range(15):
            cloud = random_cloud(rng, rng.randint(1, 12), 2, span=12)
            level = random_valid_level(rng, cloud.n, max_den=40)
            cone = random_cone(rng, 2)
            solved = quantile_region(cloud, level, cone)
            reference = oracle_region_2d(cloud, level, cone)
            assert poly_equal(solved.region, reference.region)


class TestMembershipSample:
    def test_fixture_votes(self):
        level = QuantileLevel(F(3, 10), 4)
        assert membership_sample(SQUARE, level, None, (F(1, 2), F(1, 2)), 1000, 7)
        assert not membership_sample(SQUARE, level, None, (0, 0), 1000, 7)

    def test_own_data_point_with_threshold_one(self):
        rng = random.Random(74)
        cloud = random_cloud(rng, 6, 3, span=9)
        level = QuantileLevel(F(1, 12), 6)
        assert level.ceil_np == 1
        assert membership_sample(cloud, level, None, cloud.points[0], 500, 3)

    def test_never_refutes_true_members(self):
        rng = random.Random(75)
        for _ in range(8):
            cloud = random_cloud(rng, rng.randint(1, 9), 2, span=9)
            level = random_valid_level(rng, cloud.n, max_den=25)
            reg = tukey_region(cloud, level)
            for v in reg.region.vertices:
                assert membership_sample(cloud, level, None, v, 400, seed=11)

    def test_deterministic_given_seed(self):
        level = QuantileLevel(F(3, 10), 4)
        a = membership_sample(SQUARE, level, None, (F(1, 4), F(1, 4)), 200, 5)
        b = membership_sample(SQUARE, level, None, (F(1, 4), F(1, 4)), 200, 5)
        assert a == b


def scaled(cloud, alpha):
    return DataCloud(tuple(tuple(alpha * c for c in p) for p in cloud.points))


def with_offsets(reg, move):
    """A copy of a solved region whose every offset t becomes move(w, t)."""
    entries = tuple((w, move(w, t)) for w, t in reg.defining_entries)
    region = Polyhedron.from_hrep([Halfspace(w, t) for w, t in entries], dim=reg.region.dim)
    return QuantileRegion(region, entries, reg.level, reg.provenance)


class TestCheckRegion:
    def test_cone_regions_are_exact_in_3d(self):
        """Solved cone regions pass the exact check, every halfspace at its
        quantile, though every one of them is unbounded."""
        rng = random.Random(76)
        halfspaces = 0
        for _ in range(10):
            n = rng.randint(3, 10)
            cloud = random_cloud(rng, n, 3, span=10)
            cone = random_cone(rng, 3)
            reg = quantile_region(cloud, random_valid_level(rng, n, max_den=20), cone)
            check = check_region(cloud, cone, reg)
            assert check.refutation is None
            assert check.vertices == len(reg.region.vertices)
            assert check.halfspaces == len(reg.region.halfspaces)
            assert reg.region.rays
            halfspaces += check.halfspaces
        assert halfspaces >= 30

    def test_shrunk_regions_are_refuted_at_any_scale(self):
        """Every offset moved 1/1000 of the way toward the vertex centroid
        gives a smaller set whose vertices all lie in the true region; on
        clouds scaled by 10**-12 no fixed push past a facet reaches out of
        it, but the offsets are no longer quantiles."""
        rng = random.Random(77)
        refuted = {"tukey": 0, "cone": 0}
        for i in range(8):
            n = rng.randint(6, 10)
            cloud = scaled(random_cloud(rng, n, 3, span=10), F(1, 10**12))
            k = rng.randint(1, max(1, n // 3))
            level = QuantileLevel(F(2 * k - 1, 2 * n), n)
            cone = random_cone(rng, 3) if i % 2 else None
            reg = tukey_region(cloud, level) if cone is None else quantile_region(cloud, level, cone)
            verts = reg.region.vertices
            if not verts:
                continue
            c = tuple(sum(v[j] for v in verts) / len(verts) for j in range(3))
            shrunk = with_offsets(
                reg, lambda w, t: t + (sum(a * b for a, b in zip(w, c)) - t) / 1000
            )
            assert not poly_equal(shrunk.region, reg.region)
            assert check_region(cloud, cone, reg).refutation is None
            refutation = check_region(cloud, cone, shrunk).refutation
            assert refutation.startswith("halfspace (")
            assert " is not at its quantile " in refutation
            refuted["tukey" if cone is None else "cone"] += 1
        assert min(refuted.values()) >= 3

    def test_normal_outside_the_dual_cone_is_refuted(self):
        """The cube's orthant region at p = 15/16 is (1,1,1) plus the
        orthant.  Its facet x >= 1 replaced by the quantile halfspace of
        (1,-1,0), which is not in the dual cone, leaves a region inside the
        true one, with rays in the cone: only the normal is wrong."""
        cube = DataCloud.from_rows([[a, b, c] for a in (0, 1) for b in (0, 1) for c in (0, 1)])
        cone = validate_cone([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        level = QuantileLevel(F(15, 16), 8)
        reg = quantile_region(cube, level, cone)
        w = (F(1), F(-1), F(0))
        q = quantile_direct(ScalarSample(project_data(cube, w)), level)
        assert q == 1
        entries = tuple(
            (w, q) if e[0] == (1, 0, 0) else e for e in reg.defining_entries
        )
        assert entries != reg.defining_entries
        region = Polyhedron.from_hrep([Halfspace(*e) for e in entries], dim=3)
        check = check_region(cube, cone, QuantileRegion(region, entries, level, reg.provenance))
        assert check.vertices == 1
        assert check.refutation == (
            "halfspace (1,-1,0).z >= 1 has a normal outside the dual cone"
        )

    def test_planar_corpus_matches_the_oracle(self):
        """On integer and 10**-12-scaled planar clouds every solved region
        passes and equals the planar oracle's region, and every copy with
        its offsets moved in or out by 10**-15 that differs from the oracle
        region is refuted."""
        rng = random.Random(78)
        solved = differing = 0
        for i in range(24):
            n = rng.randint(1, 15)
            cloud = random_cloud(rng, n, 2, span=12)
            if i % 2:
                cloud = scaled(cloud, F(1, 10**12))
            level = random_valid_level(rng, n, max_den=40)
            for cone in (None, random_cone(rng, 2)):
                if cone is None:
                    reg = tukey_region(cloud, level)
                else:
                    reg = quantile_region(cloud, level, cone)
                reference = oracle_region_2d(cloud, level, cone).region
                assert check_region(cloud, cone, reg).refutation is None
                assert poly_equal(reg.region, reference)
                solved += 1
                for step in (F(1, 10**15), F(-1, 10**15)):
                    moved = with_offsets(reg, lambda w, t: t + step)
                    if not poly_equal(moved.region, reference):
                        assert check_region(cloud, cone, moved).refutation is not None
                        differing += 1
        assert solved == 48
        assert differing >= 60

    def test_provenance_must_match(self):
        level = QuantileLevel(F(3, 10), 4)
        with pytest.raises(ValueError):
            check_region(SQUARE, None, oracle_region_2d(SQUARE, level, None))
        with pytest.raises(ValueError):
            check_region(SQUARE, orthant2(), tukey_region(SQUARE, level))
        with pytest.raises(ValueError):
            check_region(SQUARE, None, quantile_region(SQUARE, level, orthant2()))
