"""Acceptance suite.

One test per criterion, at the stated instance counts, with exact equality
everywhere (no tolerances anywhere in this file).  Each test prints a
single PASS line on success; run with ``pytest tests/test_acceptance.py -v -s``
to see them stream.  The whole suite is seeded and deterministic.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from pathlib import Path

import pytest

from conequant import (
    Cone,
    DataCloud,
    Halfspace,
    OPTIMAL,
    Polyhedron,
    QuantileLevel,
    QuantileRegion,
    basis_vertices,
    benson_dual_solve,
    build_lp_dual,
    lift_dataset,
    make_dual_basis,
    minimize_pinball_loss,
    oracle_region_2d,
    poly_contains,
    poly_equal,
    project_data,
    quantile_direct,
    quantile_region,
    remove_redundant,
    simplex_solve,
    tukey_region,
    validate_cone,
)
from conequant.cli import main as cli_main
from conequant.oracle import check_region
from conftest import (
    build_lp,
    greedy_uv,
    random_cloud,
    random_cone,
    random_direction,
    random_hrep_polyhedron,
    random_valid_level,
    random_vrep_polyhedron,
    scalar_cloud,
    solution_entries,
)

F = Fraction
GOLDEN = Path(__file__).parent / "golden"


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: {text}: PASS", flush=True)


# -- criterion 1 -----------------------------------------------------------


def test_criterion_1_dual_lp_optimum_is_direct_quantile():
    rng = random.Random(101)
    for _ in range(1000):
        n = rng.randint(1, 25)
        cloud = DataCloud.from_rows([[rng.randint(-50, 50)] for _ in range(n)])
        level = random_valid_level(rng, n)
        out = simplex_solve(build_lp_dual(cloud, level, (F(1),)))
        assert out.status == OPTIMAL
        assert out.x[0] == quantile_direct(cloud, level)
        assert out.value == minimize_pinball_loss(cloud, level)[1]
    report(1, "1000 dual-LP optima equal the direct quantile exactly")


# -- criterion 2 -----------------------------------------------------------


def test_criterion_2_scalarization_strong_duality():
    rng = random.Random(102)
    for _ in range(1000):
        n = rng.randint(1, 25)
        d = rng.randint(1, 4)
        cloud = random_cloud(rng, n, d)
        level = random_valid_level(rng, n)
        w = random_direction(rng, d)
        u, v = greedy_uv(cloud, level, w)
        sample = scalar_cloud(project_data(cloud, w))
        greedy = sum(z * (a - b) for (z,), a, b in zip(sample.points, u, v))
        primal = simplex_solve(build_lp(cloud, level, w))
        assert primal.status == OPTIMAL
        minimum = minimize_pinball_loss(sample, level)[1]
        assert greedy == primal.value == minimum
    report(2, "1000 greedy = simplex = loss-minimum identities, exact")


# -- shared planar corpus for criteria 3, 6, 7 -----------------------------


@dataclass
class PlanarInstance:
    cloud: DataCloud
    level: QuantileLevel
    cone: Cone
    tukey: QuantileRegion
    coned: QuantileRegion
    tukey_sol: object
    coned_sol: object
    seed: int


def _planar_cloud(rng: random.Random, n: int) -> DataCloud:
    # uniform rational coordinates: mostly integers, some small denominators
    rows = []
    for _ in range(n):
        den = rng.choice((1, 1, 2, 3))
        rows.append([F(rng.randint(-12 * den, 12 * den), den) for _ in range(2)])
    return DataCloud.from_rows(rows)


@pytest.fixture(scope="module")
def planar_corpus() -> list[PlanarInstance]:
    rng = random.Random(103)
    corpus = []
    for idx in range(200):
        n = rng.randint(1, 15)
        cloud = _planar_cloud(rng, n)
        level = random_valid_level(rng, n, max_den=60)
        cone = random_cone(rng, 2)
        tukey = tukey_region(cloud, level)
        coned = quantile_region(cloud, level, cone)
        # the dual solutions behind both regions, for criterion 6
        basis3 = make_dual_basis(
            validate_cone([[int(i == j) for j in range(3)] for i in range(3)]),
            (1, 1, 1),
        )
        tukey_sol = benson_dual_solve(lift_dataset(cloud), level, basis3)
        cone_sol = benson_dual_solve(cloud, level, make_dual_basis(cone))
        corpus.append(
            PlanarInstance(
                cloud=cloud,
                level=level,
                cone=cone,
                tukey=tukey,
                coned=coned,
                tukey_sol=tukey_sol,
                coned_sol=cone_sol,
                seed=rng.randint(0, 10**9),
            )
        )
    return corpus


# -- criterion 3 -----------------------------------------------------------


def test_criterion_3_planar_solver_matches_exact_oracle(planar_corpus):
    for inst in planar_corpus:
        reference_tukey = oracle_region_2d(inst.cloud, inst.level, None)
        assert poly_equal(inst.tukey.region, reference_tukey.region)
        reference_cone = oracle_region_2d(inst.cloud, inst.level, inst.cone)
        assert poly_equal(inst.coned.region, reference_cone.region)
    report(3, "200 planar clouds: solver equals the exact oracle, both cases")


# -- criterion 4 -----------------------------------------------------------


def test_criterion_4_golden_fixture_documents(capsys):
    cases = [
        (["tukey", str(GOLDEN / "square.csv"), "--p", "3/10"], "square_tukey_p3_10.json"),
        (["tukey", str(GOLDEN / "triangle.csv"), "--p", "2/5"], "triangle_tukey_p2_5.json"),
        (
            ["region", str(GOLDEN / "twopoint.csv"), "--p", "3/4", "--cone", str(GOLDEN / "orthant2.txt")],
            "twopoint_orthant_p3_4.json",
        ),
        (
            ["region", str(GOLDEN / "twopoint.csv"), "--p", "1/4", "--cone", str(GOLDEN / "orthant2.txt")],
            "twopoint_orthant_p1_4.json",
        ),
        (
            ["region", str(GOLDEN / "univariate.csv"), "--p", "1/2", "--cone", str(GOLDEN / "ray1.txt")],
            "univariate_p1_2.json",
        ),
    ]
    for args, golden_name in cases:
        code = cli_main(args)
        out = capsys.readouterr().out
        assert code == 0
        assert out == (GOLDEN / golden_name).read_text(), golden_name
    # spot-check the derived region contents, independent of serialization
    import json

    doc = json.loads((GOLDEN / "square_tukey_p3_10.json").read_text())
    assert doc["vertices"] == [["1/2", "1/2"]] and doc["rays"] == []
    doc = json.loads((GOLDEN / "triangle_tukey_p2_5.json").read_text())
    assert doc["empty"] is True
    doc = json.loads((GOLDEN / "twopoint_orthant_p3_4.json").read_text())
    assert doc["vertices"] == [["1", "1"]]
    doc = json.loads((GOLDEN / "twopoint_orthant_p1_4.json").read_text())
    assert doc["vertices"] == [["0", "0"]]
    doc = json.loads((GOLDEN / "univariate_p1_2.json").read_text())
    assert doc["vertices"] == [["3"]] and doc["rays"] == [["1"]]
    with capsys.disabled():
        report(4, "golden fixtures reproduced bit-exactly")


# -- criterion 5 -----------------------------------------------------------


def _entries_under_permutations(rng, cloud, level, cone, c=None):
    basis = make_dual_basis(cone, c)
    baseline = benson_dual_solve(cloud, level, basis)
    shuffled_points = list(cloud.points)
    rng.shuffle(shuffled_points)
    data_perm = benson_dual_solve(DataCloud(tuple(shuffled_points)), level, basis)
    shuffled_rows = list(cone.generators)
    rng.shuffle(shuffled_rows)
    row_basis = make_dual_basis(validate_cone(shuffled_rows), c)
    rows_perm = benson_dual_solve(cloud, level, row_basis)
    both = benson_dual_solve(
        DataCloud(tuple(shuffled_points)), level, row_basis
    )
    assert solution_entries(data_perm) == solution_entries(baseline)
    assert solution_entries(rows_perm) == solution_entries(baseline)
    assert solution_entries(both) == solution_entries(baseline)
    return baseline, cloud, level


def test_criterion_5_unique_irredundant_solution():
    rng = random.Random(105)
    solves = []
    # fixtures
    fixtures = [
        (DataCloud.from_rows([[0, 0], [1, 1]]), QuantileLevel(F(3, 4), 2)),
        (DataCloud.from_rows([[0, 0], [1, 1]]), QuantileLevel(F(1, 4), 2)),
        (DataCloud.from_rows([[1], [2], [3], [4], [5]]), QuantileLevel(F(1, 2), 5)),
    ]
    orthant2 = validate_cone([[1, 0], [0, 1]])
    ray1 = validate_cone([[1]])
    for cloud, level in fixtures:
        cone = orthant2 if cloud.dim == 2 else ray1
        solves.append(_entries_under_permutations(rng, cloud, level, cone))
    for square_like in (
        DataCloud.from_rows([[0, 0], [1, 0], [0, 1], [1, 1]]),
        DataCloud.from_rows([[0, 0], [1, 0], [0, 1]]),
    ):
        level = QuantileLevel(F(3, 10), 4) if square_like.n == 4 else QuantileLevel(F(2, 5), 3)
        base = tukey_region(square_like, level)
        shuffled = list(square_like.points)
        rng.shuffle(shuffled)
        again = tukey_region(DataCloud(tuple(shuffled)), level)
        assert again.defining_entries == base.defining_entries
    # 50 random instances
    for _ in range(50):
        d = rng.randint(1, 3)
        cloud = random_cloud(rng, rng.randint(2, 10), d, span=15)
        level = random_valid_level(rng, cloud.n, max_den=40)
        cone = random_cone(rng, d)
        solves.append(_entries_under_permutations(rng, cloud, level, cone))
    test_criterion_5_unique_irredundant_solution.solves = solves
    report(5, "entries invariant under data and generator permutations, bit-exact")


# -- criterion 6 -----------------------------------------------------------


def _check_soundness(sol, cloud, level) -> None:
    # every final vertex (a, m, z0) is confirmed: its coords a/z0 are its
    # entry's w in the solver frame, and its value m/z0 is the pinball-loss
    # minimum of the sample ``cloud`` (the one solved) projected on w,
    # derived afresh
    basis = sol.basis
    for (w, _), ray in zip(solution_entries(sol), sol.vertex_rays, strict=True):
        a, m, z0 = ray[:-2], ray[-2], ray[-1]
        assert tuple(basis.sigma * x for x in basis.permute(w)[:-1]) == tuple(
            F(x, z0) for x in a
        )
        _, loss = minimize_pinball_loss(scalar_cloud(project_data(cloud, w)), level)
        assert loss == F(m, z0)
    # no cut is violated by any image vertex
    for ray in sol.vertex_rays:
        for row in sol.cut_rows:
            assert sum(map(mul, row, ray)) >= 0


def test_criterion_6_benson_soundness(planar_corpus):
    checked = 0
    for inst in planar_corpus:
        _check_soundness(inst.tukey_sol, lift_dataset(inst.cloud), inst.level)
        _check_soundness(inst.coned_sol, inst.cloud, inst.level)
        checked += 2
    solves = getattr(test_criterion_5_unique_irredundant_solution, "solves", [])
    for sol, cloud, level in solves:
        _check_soundness(sol, cloud, level)
        checked += 1
    assert checked >= 400
    report(6, f"{checked} solves: vertices confirmed, every cut valid")


# -- criterion 7 -----------------------------------------------------------


def _direction_pool(rng, cone: Cone | None, count: int):
    if cone is None:
        return [random_direction(rng, 2) for _ in range(count)]
    verts = basis_vertices(make_dual_basis(cone))
    dirs = []
    for _ in range(count):
        coefs = [rng.randint(0, 9) for _ in verts]
        while all(c == 0 for c in coefs):
            coefs = [rng.randint(0, 9) for _ in verts]
        dirs.append(
            tuple(
                sum((c * v[j] for c, v in zip(coefs, verts)), F(0))
                for j in range(2)
            )
        )
    return dirs


def _check_count_characterization(region: QuantileRegion, cloud, cone, rng) -> None:
    dirs = _direction_pool(rng, cone, 1000)
    if region.region.vertices:
        _assert_counts(cloud, region.region.vertices, dirs, region.level.ceil_np)


def _assert_counts(cloud, verts, dirs, k: int) -> None:
    """At least k points have w.x <= w.z, for every vertex z and direction w:
    one integer sort per direction and a bisection per vertex."""
    # in integers: the vertices z = zn/zd, the points x = X/den and w = wn/wd,
    # so w.x <= w.z iff wn.X <= den (wn.zn) / zd, whose floor will do
    zd = lcm(*(c.denominator for z in verts for c in z))
    zns = [[c.numerator * (zd // c.denominator) for c in z] for z in verts]
    rows, den = cloud.int_form
    for w in dirs:
        wd = lcm(*(c.denominator for c in w))
        wn = [c.numerator * (wd // c.denominator) for c in w]
        keys = sorted(sum(map(mul, wn, x)) for x in rows)
        for zn in zns:
            assert bisect_right(keys, den * sum(map(mul, wn, zn)) // zd) >= k


def _shifted_region(entries, shift, dim):
    return Polyhedron.from_hrep(
        [
            Halfspace(w, t + sum(a * b for a, b in zip(w, shift)))
            for w, t in entries
        ],
        dim=dim,
    )


def test_criterion_7_region_laws(planar_corpus):
    rng = random.Random(107)
    for inst in planar_corpus:
        cloud, level = inst.cloud, inst.level
        # nestedness in the level (the corpus region serves as one side)
        other = random_valid_level(rng, cloud.n, max_den=60)
        t_other = tukey_region(cloud, other)
        c_other = quantile_region(cloud, other, inst.cone)
        if level.p <= other.p:
            assert poly_contains(inst.tukey.region, t_other.region)
            assert poly_contains(inst.coned.region, c_other.region)
        else:
            assert poly_contains(t_other.region, inst.tukey.region)
            assert poly_contains(c_other.region, inst.coned.region)
        # translation equivariance (exact: same normals, shifted offsets)
        shift = tuple(F(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(2))
        moved = DataCloud(
            tuple(tuple(a + b for a, b in zip(p, shift)) for p in cloud.points)
        )
        for base, solve in (
            (inst.tukey, lambda c: tukey_region(c, level)),
            (inst.coned, lambda c: quantile_region(c, level, inst.cone)),
        ):
            moved_region = solve(moved)
            expected_entries = tuple(
                (w, t + sum(a * b for a, b in zip(w, shift)))
                for w, t in base.defining_entries
            )
            assert moved_region.defining_entries == expected_entries
            assert poly_equal(
                moved_region.region, _shifted_region(base.defining_entries, shift, 2)
            )
        # positive scaling equivariance
        alpha = F(rng.randint(1, 5), rng.randint(1, 5))
        scaled = DataCloud(tuple(tuple(alpha * c for c in p) for p in cloud.points))
        for base, solve in (
            (inst.tukey, lambda c: tukey_region(c, level)),
            (inst.coned, lambda c: quantile_region(c, level, inst.cone)),
        ):
            scaled_region = solve(scaled)
            assert scaled_region.defining_entries == tuple(
                (w, alpha * t) for w, t in base.defining_entries
            )
            assert poly_equal(
                scaled_region.region,
                Polyhedron.from_hrep(
                    [Halfspace(w, alpha * t) for w, t in base.defining_entries],
                    dim=2,
                ),
            )
        # membership-count characterization on 1000 sampled directions
        _check_count_characterization(inst.tukey, cloud, None, rng)
        _check_count_characterization(inst.coned, cloud, inst.cone, rng)
    report(7, "region laws hold on all 200 planar instances, zero violations")


# -- criterion 8 -----------------------------------------------------------


def test_criterion_8_three_dimensional_partial_verification():
    """Each region is checked exactly (``check_region``), then against the
    region laws and a sampled count characterization of its vertices."""
    rng = random.Random(108)
    nonempty = 0
    for _ in range(50):
        n = rng.randint(4, 12)
        cloud = random_cloud(rng, n, 3, span=10)
        # bias the level low so most depth regions are nonempty
        level = QuantileLevel(F(2 * rng.randint(1, max(1, n // 3)) - 1, 2 * n), n)
        assert level.is_valid
        reg = tukey_region(cloud, level)
        assert check_region(cloud, None, reg).refutation is None
        for _ in reg.region.vertices:
            rng.randint(0, 10**9)  # one unused draw per vertex keeps the later draws fixed
        if reg.region.vertices:
            nonempty += 1
        # region laws
        other = random_valid_level(rng, n, max_den=40)
        lo, hi = (level, other) if level.p <= other.p else (other, level)
        assert poly_contains(tukey_region(cloud, lo).region, tukey_region(cloud, hi).region)
        shift = tuple(F(rng.randint(-5, 5)) for _ in range(3))
        moved = DataCloud(tuple(tuple(a + b for a, b in zip(p, shift)) for p in cloud.points))
        moved_reg = tukey_region(moved, level)
        assert moved_reg.defining_entries == tuple(
            (w, t + sum(a * b for a, b in zip(w, shift)))
            for w, t in reg.defining_entries
        )
        alpha = F(rng.randint(1, 4), rng.randint(1, 4))
        scaled = DataCloud(tuple(tuple(alpha * c for c in p) for p in cloud.points))
        scaled_reg = tukey_region(scaled, level)
        assert scaled_reg.defining_entries == tuple(
            (w, alpha * t) for w, t in reg.defining_entries
        )
        # count characterization on the vertices, sampled directions
        if reg.region.vertices:
            dirs = [random_direction(rng, 3) for _ in range(200)]
            _assert_counts(cloud, reg.region.vertices, dirs, level.ceil_np)
    assert nonempty >= 25
    report(8, f"50 spatial clouds, {nonempty} nonempty regions, the exact check never refuted")


# -- criterion 9 -----------------------------------------------------------


def test_criterion_9_polyhedral_kernel_round_trips():
    rng = random.Random(109)
    for i in range(500):
        dim = rng.randint(1, 5)
        if i % 2 == 0:
            # reading a representation converts to it, and poly_equal reads
            # both of each side
            p = random_hrep_polyhedron(rng, dim)
            if p.is_empty:
                assert poly_equal(p, Polyhedron.empty(dim))
            else:
                back = Polyhedron.from_vrep(p.vertices, p.rays, dim=dim)
                assert poly_equal(p, back)
        else:
            p = random_vrep_polyhedron(rng, dim)
            back = Polyhedron.from_hrep(p.halfspaces, dim=dim)
            assert poly_equal(p, back)
        once = remove_redundant(p)
        twice = remove_redundant(once)
        assert [h.key() for h in twice.halfspaces] == [h.key() for h in once.halfspaces]
        assert poly_equal(once, p)
    report(9, "500 H/V round trips equal, redundancy removal idempotent")
