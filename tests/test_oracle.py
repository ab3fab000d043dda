from __future__ import annotations

import random
from fractions import Fraction

import pytest

import conequant.oracle as oracle
import conequant.polyhedra as polyhedra
from conequant import (
    DataCloud,
    DimensionMismatch,
    DimensionNot2,
    Halfspace,
    Polyhedron,
    QuantileLevel,
    QuantileRegion,
    basis_vertices,
    benson_dual_solve,
    critical_directions,
    make_dual_basis,
    membership_sample,
    oracle_region_2d,
    poly_equal,
    quantile_direct,
    quantile_region,
    project_data,
    tukey_region,
    validate_cone,
)
from conequant.oracle import check_region
from conftest import random_cloud, random_cone, random_direction, random_valid_level, scalar_cloud

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

    def test_both_entry_points_raise_dimension_mismatch(self):
        # a caller that catches DimensionMismatch catches a non-planar cloud
        # in either entry point
        cloud = DataCloud.from_rows([[1, 2, 3], [0, 1, 0]])
        with pytest.raises(DimensionMismatch, match="2-dimensional data, got 3"):
            oracle_region_2d(cloud, QuantileLevel(F(1, 3), 2), None)
        with pytest.raises(DimensionMismatch, match="2-dimensional data, got 3"):
            critical_directions(cloud, None)


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

    @pytest.mark.parametrize(
        "points, generators",
        [
            ([[0, 0], [1, 0], [0, 1], [1, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
            ([[0, 0], [1, 0], [0, 1], [1, 1]], [[1]]),
            ([[0, 0, 0], [1, 0, 0], [0, 1, 1]], None),
        ],
        ids=["3d-cone", "1d-cone", "3d-cloud"],
    )
    def test_needs_planar_cloud_and_cone(self, points, generators):
        """A cloud or cone that is not planar is a typed error, not a
        silent answer, an IndexError or a failed unpacking."""
        cone = None if generators is None else validate_cone(generators)
        with pytest.raises(DimensionMismatch, match="2-dimensional"):
            critical_directions(DataCloud.from_rows(points), cone)

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
                q = quantile_direct(scalar_cloud(project_data(cloud, w)), level)
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

    def test_verdicts_match_the_fraction_rule(self):
        """The integer count gives the verdict of the same sampled rule in
        Fractions, on integer and rational clouds, with and without a cone,
        at region vertices, points pushed off them and random points."""
        rng = random.Random(79)
        verdicts = {True: 0, False: 0}
        for i in range(40):
            d = 2 + i % 2
            n = rng.randint(2, 9)
            cloud = random_cloud(rng, n, d, span=9)
            if i % 4 >= 2:
                cloud = scaled(cloud, F(rng.randint(1, 9), rng.randint(2, 9)))
            level = random_valid_level(rng, n, max_den=20)
            cone = random_cone(rng, d) if i % 3 else None
            reg = tukey_region(cloud, level) if cone is None else quantile_region(cloud, level, cone)
            step = F(rng.choice([-1, 1]), rng.randint(2, 30))
            zs = [*reg.region.vertices, *(tuple(c + step for c in v) for v in reg.region.vertices)]
            zs += [tuple(F(rng.randint(-20, 20), rng.randint(1, 4)) for _ in range(d)) for _ in range(3)]
            for z in zs:
                verdict = membership_sample(cloud, level, cone, z, trials=40, seed=i)
                assert verdict == fraction_membership(cloud, level, cone, z, 40, i)
                verdicts[verdict] += 1
        assert min(verdicts.values()) >= 100


def fraction_membership(cloud, level, cone, z, trials, seed) -> bool:
    """The sampled membership rule in Fractions: the same direction draws,
    each projection w.x counted against w.z."""
    rng = random.Random(seed)
    d, k = cloud.dim, level.ceil_np
    gens = () if cone is None else basis_vertices(make_dual_basis(cone))
    for _ in range(trials):
        if cone is None:
            w = random_direction(rng, d)
        else:
            coefs = [rng.randint(0, 9) for _ in gens]
            while all(c == 0 for c in coefs):
                coefs = [rng.randint(0, 9) for _ in gens]
            w = tuple(sum((c * v[j] for c, v in zip(coefs, gens)), F(0)) for j in range(d))
        wz = sum(a * b for a, b in zip(w, z))
        if sum(1 for v in project_data(cloud, w) if v <= wz) < k:
            return False
    return True


def scaled(cloud, alpha):
    return DataCloud(tuple(tuple(alpha * c for c in p) for p in cloud.points))


def with_offsets(reg, move):
    """A copy of a solved region whose every offset t becomes move(w, t)."""
    entries = tuple((w, move(w, t)) for w, t in reg.defining_entries)
    region = Polyhedron.from_hrep([Halfspace(w, t) for w, t in entries], dim=reg.region.dim)
    return QuantileRegion.from_pairs(region, entries, reg.level, reg.provenance)


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
        q = quantile_direct(scalar_cloud(project_data(cube, w)), level)
        assert q == 1
        entries = tuple(
            (w, q) if e[0] == (1, 0, 0) else e for e in reg.defining_entries
        )
        assert entries != reg.defining_entries
        region = Polyhedron.from_hrep([Halfspace(*e) for e in entries], dim=3)
        check = check_region(
            cube, cone, QuantileRegion.from_pairs(region, entries, level, reg.provenance)
        )
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


class TestIntegerForm:
    def test_checks_never_read_the_rational_points(self, monkeypatch):
        """Every check runs on the cloud's integer rows alone, and gives what
        it gave before the rational points became unreadable."""
        cloud = DataCloud.from_rows([[0, 0], [3, 1], [1, 4], [F(5, 2), 2], [3, 1], [-1, 2]])
        level = QuantileLevel(F(5, 12), 6)
        cone = validate_cone([[1, 0], [1, 2]])
        tukey, coned = tukey_region(cloud, level), quantile_region(cloud, level, cone)

        def run():
            return (
                critical_directions(cloud, None),
                oracle_region_2d(cloud, level, cone).defining_entries,
                [membership_sample(cloud, level, c, z, 200, 3)
                 for c in (None, cone) for z in ((1, 2), (3, 3))],
                check_region(cloud, None, tukey),
                check_region(cloud, cone, coned),
            )

        expected = run()

        def refuse(self):
            raise AssertionError("a check read the rational points")

        monkeypatch.setattr(DataCloud, "points", property(refuse))
        assert run() == expected
        assert any(expected[2]) and not all(expected[2])

    def test_check_region_builds_no_halfspace(self, monkeypatch):
        """The halfspace side reads the region's integer rows: with
        ``Halfspace`` unusable once the regions exist, each check gives what
        it gives on a second copy of the same region."""
        rng = random.Random(80)
        cases = []
        for cone in (None, random_cone(rng, 3)):
            cloud = random_cloud(rng, 9, 3, span=10)
            level = QuantileLevel(F(3, 18), 9)
            for shift in (0, F(1, 1000)):
                pair = [
                    with_offsets(
                        tukey_region(cloud, level)
                        if cone is None
                        else quantile_region(cloud, level, cone),
                        lambda w, t: t + shift,
                    )
                    for _ in range(2)
                ]
                cases.append((cloud, cone, pair))
        expected = [check_region(cloud, cone, twin) for cloud, cone, (_, twin) in cases]
        assert sum(e.refutation is None for e in expected) == 2
        assert sum((e.refutation or "").startswith("halfspace (") for e in expected) == 2

        def refuse(*args, **kwargs):
            raise AssertionError("the check built a Halfspace")

        monkeypatch.setattr(polyhedra, "Halfspace", refuse)
        monkeypatch.setattr(oracle, "Halfspace", refuse, raising=False)
        got = [check_region(cloud, cone, reg) for cloud, cone, (reg, _) in cases]
        assert got == expected

    @pytest.mark.parametrize("cone", [None, [[2, 1], [-1, 3]]])
    def test_planar_oracle_builds_no_halfspace(self, cone, monkeypatch):
        """The planar oracle hands its entries to ``Polyhedron`` as integer
        rows: with ``Halfspace`` unusable it makes the same region."""
        cloud = random_cloud(random.Random(81), 12, 2, span=10)
        level = QuantileLevel(F(7, 24), 12)
        cone = None if cone is None else validate_cone(cone)
        expected = oracle_region_2d(cloud, level, cone).region

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle built a Halfspace")

        monkeypatch.setattr(polyhedra.Halfspace, "__post_init__", refuse)
        got = oracle_region_2d(cloud, level, cone).region
        assert got._rows == expected._rows
        assert got._sorted_gens == expected._sorted_gens and got._sorted_gens[0]


class TestConeDimension:
    """A cone whose dimension is not the cloud's is refused by every check."""

    CLOUD3 = DataCloud.from_rows([[0, 0, 0], [1, 0, 2], [0, 1, 1], [2, 2, 0]])

    def test_oracle_region_2d(self):
        level = QuantileLevel(F(3, 10), 4)
        with pytest.raises(DimensionMismatch, match="data dimension 2 does not match cone dimension 3"):
            oracle_region_2d(SQUARE, level, validate_cone([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        with pytest.raises(DimensionMismatch, match="data dimension 2 does not match cone dimension 1"):
            oracle_region_2d(SQUARE, level, validate_cone([[1]]))

    def test_membership_sample(self):
        level = QuantileLevel(F(3, 10), 4)
        with pytest.raises(DimensionMismatch, match="data dimension 3 does not match cone dimension 2"):
            membership_sample(self.CLOUD3, level, orthant2(), (0, 0, 0), 10, 0)
        cone3 = validate_cone([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(DimensionMismatch, match="data dimension 2 does not match cone dimension 3"):
            membership_sample(SQUARE, level, cone3, (F(1, 2), F(1, 2)), 10, 0)

    def test_check_region(self):
        level = QuantileLevel(F(3, 10), 4)
        cone3 = validate_cone([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        reg = quantile_region(self.CLOUD3, level, cone3)
        with pytest.raises(DimensionMismatch, match="data dimension 2 does not match cone dimension 3"):
            check_region(SQUARE, cone3, reg)

    def test_benson_dual_solve(self):
        """The solve checks the level's N before the cone's dimension."""
        basis3 = make_dual_basis(validate_cone([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        with pytest.raises(DimensionMismatch, match="data dimension 2 does not match cone dimension 3"):
            benson_dual_solve(SQUARE, QuantileLevel(F(3, 10), 4), basis3)
        with pytest.raises(DimensionMismatch, match="level is for N=5 but the cloud has 4"):
            benson_dual_solve(self.CLOUD3, QuantileLevel(F(3, 10), 5), basis3)
        with pytest.raises(DimensionMismatch, match="level is for N=5 but the cloud has 4"):
            benson_dual_solve(SQUARE, QuantileLevel(F(3, 10), 5), basis3)
