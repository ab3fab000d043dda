from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from operator import mul
from pathlib import Path

import pytest

from conequant import (
    BensonStats,
    DataCloud,
    Halfspace,
    IntegralNp,
    InternalInvariantError,
    Polyhedron,
    QuantileLevel,
    basis_vertices,
    benson_dual_solve,
    format_rational,
    lift_dataset,
    make_dual_basis,
    minimize_pinball_loss,
    poly_equal,
    project_data,
    quantile_direct,
    quantile_region,
    tukey_region,
    validate_cone,
)
from conequant.cli import document_bytes, region_document
from conequant._linalg import primitive
from conequant.vlp import _box_rows
from conftest import (
    random_cloud,
    random_cone,
    random_valid_level,
    scalar_cloud,
    solution_cuts,
    solution_entries,
)

F = Fraction


def orthant(dim):
    rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
    return validate_cone(rows)


def box(basis):
    """The starting outer approximation: the solver's box rows, each a row
    (n, n0) over (coords, value, 1) read as n.z >= -n0."""
    halfspaces = [Halfspace(r[:-1], -r[-1]) for r in _box_rows(basis)]
    return Polyhedron.from_hrep(halfspaces, dim=basis.dim)


class TestInitialOuter:
    def test_orthant_strip(self):
        poly = box(make_dual_basis(orthant(2), (1, 1)))
        strip = Polyhedron.from_hrep(
            [
                Halfspace((1, 0), 0),
                Halfspace((-1, 0), -1),
                Halfspace((0, 1), 0),
            ],
            dim=2,
        )
        assert poly_equal(poly, strip)
        assert poly.rays == ((F(0), F(1)),)  # recession is the value ray

    def test_dimension_one(self):
        poly = box(make_dual_basis(validate_cone([[1]]), (1,)))
        assert poly.vertices == ((F(0),),)
        assert poly.rays == ((F(1),),)

    def test_orthant_three_dim_simplex_slice(self):
        poly = box(make_dual_basis(orthant(3), (1, 1, 1)))
        assert set(poly.vertices) == {
            (F(0), F(0), F(0)),
            (F(1), F(0), F(0)),
            (F(0), F(1), F(0)),
        }
        assert poly.rays == ((F(0), F(0), F(1)),)

    def test_bounded_basis_for_random_cones(self):
        rng = random.Random(52)
        for _ in range(20):
            basis = make_dual_basis(random_cone(rng, rng.randint(1, 3)))
            # bounded and nonempty: this is what makes the slice a basis
            assert basis_vertices(basis)
            # c.w = 1 as two opposite halfspaces
            c = basis.c
            slice_ = [Halfspace(c, F(1)), Halfspace(tuple(-x for x in c), F(-1))]
            full = Polyhedron.from_hrep(
                [Halfspace(g, F(0)) for g in basis.cone.generators if any(g)] + slice_,
                dim=basis.dim,
            )
            assert full.is_bounded


def fraction_box_rows(basis):
    """The box rows derived in Fractions: Y w >= 0 under the affine weight
    reconstruction from the solver-frame coords, row by row, then the value
    floor.  A reference for the solver's integer support rows."""
    d, s = basis.dim, basis.sigma
    c = basis.permute(basis.c)
    rows = []
    for g in map(basis.permute, basis.cone.generators):
        coef = tuple(s * (g[j] - g[-1] * c[j] / c[-1]) for j in range(d - 1))
        if any(coef):
            rows.append(primitive((*coef, 0, g[-1] / c[-1])))
    return rows + [(0,) * (d - 1) + (1, 0)]


class TestBoxRows:
    def test_support_rows_equal_the_fraction_box(self):
        rng = random.Random(57)
        kinds = dict.fromkeys(("permuted", "sigma -1", "rational", "zero"), 0)
        for _ in range(400):
            dim = rng.randint(1, 4)
            cone = random_cone(rng, dim, span=2)
            # a positive rational scale per generator keeps the cone
            scales = [F(rng.randint(1, 3), rng.randint(1, 3)) for _ in cone.generators]
            gens = [tuple(k * v for v in g) for k, g in zip(scales, cone.generators)]
            cone = validate_cone(gens)
            c = None
            if rng.random() < 0.5:  # a positive combination of all generators is interior
                coefs = [rng.randint(1, 3) for _ in gens]
                c = [sum(k * g[j] for k, g in zip(coefs, gens)) for j in range(dim)]
            basis = make_dual_basis(cone, c)
            assert _box_rows(basis) == fraction_box_rows(basis)
            kinds["permuted"] += basis.is_permuted
            kinds["sigma -1"] += basis.sigma < 0
            kinds["rational"] += any(v.denominator > 1 for g in gens for v in g)
            kinds["zero"] += not all(map(any, gens))
        assert all(kinds.values()), kinds


class TestBensonSolve:
    def test_dimension_one_entry(self):
        cloud = DataCloud.from_rows([[1], [2], [3], [4], [5]])
        basis = make_dual_basis(validate_cone([[1]]), (1,))
        sol = benson_dual_solve(cloud, QuantileLevel(F(1, 2), 5), basis)
        assert solution_entries(sol) == (((F(1),), F(3)),)
        _, g = minimize_pinball_loss(cloud, QuantileLevel(F(1, 2), 5))
        *_, m, z0 = sol.vertex_rays[0]
        assert F(m, z0) == g

    def test_two_point_high_level(self):
        cloud = DataCloud.from_rows([[0, 0], [1, 1]])
        basis = make_dual_basis(orthant(2), (1, 1))
        sol = benson_dual_solve(cloud, QuantileLevel(F(3, 4), 2), basis)
        assert ((F(1), F(0)), F(1)) in solution_entries(sol)
        assert ((F(0), F(1)), F(1)) in solution_entries(sol)

    def test_two_point_low_level(self):
        cloud = DataCloud.from_rows([[0, 0], [1, 1]])
        basis = make_dual_basis(orthant(2), (1, 1))
        sol = benson_dual_solve(cloud, QuantileLevel(F(1, 4), 2), basis)
        assert ((F(1), F(0)), F(0)) in solution_entries(sol)
        assert ((F(0), F(1)), F(0)) in solution_entries(sol)

    def test_integral_np_rejected(self):
        cloud = DataCloud.from_rows([[0, 0], [1, 1]])
        basis = make_dual_basis(orthant(2))
        with pytest.raises(IntegralNp):
            benson_dual_solve(cloud, QuantileLevel(F(1, 2), 2), basis)

    def test_final_vertices_confirmed_and_entries_consistent(self):
        rng = random.Random(53)
        for _ in range(25):
            dim = rng.randint(1, 3)
            cloud = random_cloud(rng, rng.randint(1, 10), dim, span=12)
            cone = random_cone(rng, dim)
            basis = make_dual_basis(cone)
            level = random_valid_level(rng, cloud.n, max_den=40)
            sol = benson_dual_solve(cloud, level, basis)
            assert len(sol.vertex_rays) == len(solution_entries(sol))
            for (w, t), ray in zip(solution_entries(sol), sol.vertex_rays):
                # w sits on the basis exactly
                assert all(
                    sum(gj * wj for gj, wj in zip(g, w)) >= 0
                    for g in cone.generators
                )
                assert sum(cj * wj for cj, wj in zip(basis.c, w)) == 1
                # the entry's vertex (a, m, z0) sits at its weight: coords a/z0
                a, m, z0 = ray[:-2], ray[-2], ray[-1]
                assert tuple(basis.sigma * x for x in basis.permute(w)[:-1]) == tuple(
                    F(x, z0) for x in a
                )
                # t is the direct quantile, the value m/z0 the loss minimum
                s = scalar_cloud(project_data(cloud, w))
                assert t == quantile_direct(s, level)
                t2, g = minimize_pinball_loss(s, level)
                assert t2 == t and g == F(m, z0)
                # first-order conditions at the entry's t: the loss's right
                # derivative #{x <= t} - N p is positive
                assert sum(1 for (x,) in s.points if x <= t) > level.n * level.p
            # cut soundness: the confirmed image points satisfy every cut
            for ray in sol.vertex_rays:
                for row in sol.cut_rows:
                    assert sum(map(mul, row, ray)) >= 0

    def test_outer_approximation_shrinks_onto_image(self):
        rng = random.Random(55)
        for _ in range(10):
            dim = rng.randint(1, 3)
            cloud = random_cloud(rng, rng.randint(1, 8), dim, span=10)
            cone = random_cone(rng, dim)
            basis = make_dual_basis(cone)
            level = random_valid_level(rng, cloud.n, max_den=30)
            sol = benson_dual_solve(cloud, level, basis)
            assert len(sol.vertex_rays) == len(solution_entries(sol))
            # the image, its vertices plus the upward value ray, lies in the
            # starting box
            up = (0,) * (dim - 1) + (1, 0)
            for row in _box_rows(basis):
                assert all(sum(map(mul, row, v)) >= 0 for v in sol.vertex_rays + (up,))

    def test_rerun_and_data_order_invariance(self):
        rng = random.Random(54)
        for _ in range(10):
            dim = rng.randint(1, 3)
            cloud = random_cloud(rng, rng.randint(2, 9), dim, span=10)
            cone = random_cone(rng, dim)
            level = random_valid_level(rng, cloud.n, max_den=30)
            basis = make_dual_basis(cone)
            sol1 = benson_dual_solve(cloud, level, basis)
            sol2 = benson_dual_solve(cloud, level, basis)
            assert solution_entries(sol1) == solution_entries(sol2)
            assert sol1.stats == sol2.stats
            shuffled = list(cloud.points)
            rng.shuffle(shuffled)
            sol3 = benson_dual_solve(DataCloud(tuple(shuffled)), level, basis)
            assert solution_entries(sol3) == solution_entries(sol1)

    def test_wide_keys_give_the_scaled_region(self, monkeypatch):
        """A cloud scaled by 10^12, so that its keys overflow a 64-bit slot and
        the projector takes the direct products, gives the scaled region of
        the unscaled cloud, with the same stats."""
        import conequant.univariate as univariate

        direct = []
        real = univariate._direct_keys

        def counted(*args):
            direct.append(1)
            return real(*args)

        monkeypatch.setattr(univariate, "_direct_keys", counted)
        rng = random.Random(1)
        points = [[rng.randint(-10**7, 10**7) for _ in range(2)] for _ in range(12)]
        level = QuantileLevel(F(5, 24), 12)
        small = tukey_region(DataCloud.from_rows(points), level)
        assert not direct
        scale = 10**12
        big = tukey_region(DataCloud.from_rows([[scale * x for x in p] for p in points]), level)
        assert len(direct) > small.stats.rounds
        assert big.stats == small.stats
        assert big.region.vertices == tuple(
            tuple(scale * x for x in v) for v in small.region.vertices
        )


class TestInternalInvariants:
    """A broken solver invariant raises a typed error, also under python -O."""

    def test_value_below_outer_vertex_raises(self, value_below_vertex):
        cloud = DataCloud.from_rows([[0, 0], [1, 0], [0, 1], [1, 1]])
        basis = make_dual_basis(orthant(2), (1, 1))
        with pytest.raises(InternalInvariantError, match="above the dual image"):
            benson_dual_solve(cloud, QuantileLevel(F(3, 10), 4), basis)

    def test_raised_under_optimize_flag(self):
        import conequant

        script = """
from fractions import Fraction
import conequant as cq
import conequant.vlp as vlp

real = vlp.key_quantile_and_loss
vlp.key_quantile_and_loss = lambda *a: (real(*a)[0], real(*a)[1] - 1)
cloud = cq.DataCloud.from_rows([[0, 0], [1, 0], [0, 1], [1, 1]])
basis = cq.make_dual_basis(cq.validate_cone([[1, 0], [0, 1]]), (1, 1))
try:
    cq.benson_dual_solve(cloud, cq.QuantileLevel(Fraction(3, 10), 4), basis)
except cq.InternalInvariantError:
    print(__debug__, "InternalInvariantError")
"""
        src = str(Path(conequant.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "InternalInvariantError"]


# name: (seed, d, N, rational data, cone generators (None: Tukey region),
# interior point, p, sigma, permuted basis, BensonStats, sha256 of the region
# document, sha256 of the cuts).  Every benchmark cone has sigma = +1,
# an unpermuted basis and integer data; the values were recorded with the
# Fraction Benson loop that the integer one replaced.
PINNED = {
    "d2-sigma-neg-rational": (
        0, 2, 14, True, [[1, 0], [0, -1]], (1, -1), "2/5", -1, False, (7, 11, 31),
        "5dd484490321ce2253d8b6582c8b1de49160e10ed44630c9d3c966b81e322fa6",
        "dd2ce6c727028a5075a74bb5d1a029fcf0692a190ee366c040fe54b2ee519d2d",
    ),
    "d2-permuted-rational": (
        1, 2, 13, True, [[1, 1], [1, -1]], (2, 0), "3/10", 1, True, (5, 6, 17),
        "1cee522e6a850209aa7f15f0f03f0e543ae3fa12165743752148481d6d4827e3",
        "9e82973e08355ae3aa37ef1ea28ef9a39c3f6eed8069ccef14b92b3dfde91a5e",
    ),
    "d2-tukey-rational": (
        2, 2, 12, True, None, None, "7/16", 1, False, (7, 39, 110),
        "4177765fb214221c9157b033308de81ab2ee38f10a8444ff183b313927fe6ed9",
        "5fda83845ad964f54018235baf03d9d159da3e3161b40e7d7be21a3e916cfbd0",
    ),
    "d3-permuted": (
        3, 3, 9, False, [[1, 0, 1], [1, 0, -1], [0, 1, 0]], (2, 1, 0), "1/4", 1, True,
        (6, 22, 72),
        "4aa62d2700c12586b56e77ebcd7411a02f1a6f374234fbfbe4669d8fa036878b",
        "92fe4e7a441a4a75ef6a76de559d51d7ec9fcbbcfbda52ef53eda74ace64b31e",
    ),
    "d3-permuted-sigma-neg-rational": (
        4, 3, 8, True, [[1, 0, 1], [1, 0, -1], [0, -1, 0]], (2, -1, 0), "5/12", -1, True,
        (5, 18, 71),
        "e9e00a7bd911801fb0f68ad23c6973bb6c4ac8bbddd27d905dea85fb845dd3f5",
        "049a999eb9b54e15569b3756e9eb819ccde2636c0c42f2fabc4951ef9d2db0c1",
    ),
    "d3-sigma-neg-rational": (
        5, 3, 10, True, [[1, 0, 0], [0, 1, 0], [0, 0, -1]], (1, 2, -1), "1/3", -1, False,
        (5, 11, 44),
        "b34f9c5d08f06eb020275faefba7c5943432cbe41bad7d86324152907521f5c9",
        "cc3e1671a69c74538c8effcc9c6a34465db0b25a25eba5d9cfbb2e7f3eb1800d",
    ),
    "d4-sigma-neg-rational": (
        6, 4, 8, True,
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1], [1, 0, 1, -1]],
        None, "5/16", -1, False, (7, 123, 525),
        "701bc2167ee228a9e54be1e277ddff34ae2f6041860cffad0dc08d3ed5e7bc95",
        "f78cbe2af0c0da8bf9fba0605b64d5f6169ec215a8f5dc50c4200b1f91ad53a5",
    ),
    "d4-permuted": (
        7, 4, 7, False, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1]],
        (1, 1, 2, 0), "2/3", 1, True, (5, 31, 168),
        "b2f0b860bd3fdc87d0d2928a3f9b023c1c783f70534a5991ecc367d5b8bf279e",
        "31c5bf38860b92c69c62d17bf250d1dc1a7c4600b87d20ea5f4b847d5cc597ab",
    ),
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedSolves:
    """Stats, region documents and cuts stay as they were recorded."""

    @pytest.mark.parametrize("name", list(PINNED))
    def test_stats_document_and_cuts(self, name):
        seed, dim, n, rational, gens, c, p, sigma, permuted, stats, doc_sha, cuts_sha = (
            PINNED[name]
        )
        rng = random.Random(seed)
        cloud = DataCloud.from_rows(
            [
                [F(rng.randint(-9, 9), rng.randint(1, 4) if rational else 1) for _ in range(dim)]
                for _ in range(n)
            ]
        )
        level = QuantileLevel(F(p), n)
        if gens is None:
            basis = make_dual_basis(orthant(dim + 1), (1,) * (dim + 1))
            sol = benson_dual_solve(lift_dataset(cloud), level, basis)
            doc = region_document(tukey_region(cloud, level), cloud, "tukey", None)
        else:
            cone = validate_cone(gens)
            basis = make_dual_basis(cone, c)
            sol = benson_dual_solve(cloud, level, basis)
            echo = {
                "generators": [[format_rational(x) for x in g] for g in gens],
                "interior": None if c is None else [format_rational(x) for x in c],
            }
            doc = region_document(quantile_region(cloud, level, cone, c), cloud, echo, None)
        assert (basis.sigma, basis.is_permuted) == (sigma, permuted)
        assert sol.stats == BensonStats(*stats)
        assert _sha256(document_bytes(doc)) == doc_sha
        # every cut is value' >= w(coords').y: value coefficient 1
        cut_halfspaces = solution_cuts(sol)
        assert all(h.normal[-1] == 1 for h in cut_halfspaces)
        cuts = "\n".join(
            ",".join(map(format_rational, h.normal)) + ">=" + format_rational(h.offset)
            for h in cut_halfspaces
        )
        assert _sha256(cuts) == cuts_sha
