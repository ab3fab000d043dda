from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conequant import (
    DataCloud,
    DualSolution,
    EmptyBasis,
    Halfspace,
    IntegralNp,
    InternalInvariantError,
    Polyhedron,
    QuantileLevel,
    ScalarSample,
    basis_vertices,
    benson_dual_solve,
    halfspaces_of,
    image_coords,
    initial_outer,
    make_dual_basis,
    minimize_pinball_loss,
    pinball_right_derivative,
    poly_equal,
    project_data,
    quantile_direct,
    validate_cone,
    weight_of,
)
from conftest import random_cloud, random_cone, random_valid_level

F = Fraction


def orthant(dim):
    rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
    return validate_cone(rows)


class TestCoordinateMaps:
    def test_orthant_two_dim(self):
        basis = make_dual_basis(orthant(2), (1, 1))
        w = (F(1, 3), F(2, 3))
        coords = image_coords(w, basis)
        assert coords == (F(1, 3),)
        assert weight_of(coords, basis) == w

    def test_negative_sign_factor(self):
        cone = validate_cone([[1, 0], [0, -1]])  # fourth-quadrant cone
        basis = make_dual_basis(cone, (1, -1))
        assert basis.sigma == -1
        w = (F(2), F(1))  # c.w = 2 - 1 = 1
        coords = image_coords(w, basis)
        assert coords == (F(-2),)
        assert weight_of(coords, basis) == w

    def test_degenerate_dimension_one(self):
        basis = make_dual_basis(validate_cone([[2]]))
        assert image_coords((F(1, 2),), basis) == ()
        assert weight_of((), basis) == (F(1, 2),)

    def test_mutually_inverse_on_basis_points(self):
        rng = random.Random(51)
        for _ in range(30):
            basis = make_dual_basis(random_cone(rng, rng.randint(1, 3)))
            for w in basis_vertices(basis):
                assert weight_of(image_coords(w, basis), basis) == w


class TestInitialOuter:
    def test_orthant_strip(self):
        poly = initial_outer(make_dual_basis(orthant(2), (1, 1)))
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
        poly = initial_outer(make_dual_basis(validate_cone([[1]]), (1,)))
        assert poly.vertices == ((F(0),),)
        assert poly.rays == ((F(1),),)

    def test_orthant_three_dim_simplex_slice(self):
        poly = initial_outer(make_dual_basis(orthant(3), (1, 1, 1)))
        assert set(poly.vertices) == {
            (F(0), F(0), F(0)),
            (F(1), F(0), F(0)),
            (F(0), F(1), F(0)),
        }
        assert poly.rays == ((F(0), F(0), F(1)),)

    def test_bounded_basis_for_random_cones(self):
        from conequant import Equation

        rng = random.Random(52)
        for _ in range(20):
            basis = make_dual_basis(random_cone(rng, rng.randint(1, 3)))
            # bounded and nonempty: this is what makes the slice a basis
            assert basis_vertices(basis)
            full = Polyhedron.from_hrep(
                [Halfspace(g, F(0)) for g in basis.cone.generators if any(g)],
                [Equation(basis.c, F(1))],
                dim=basis.dim,
            )
            assert full.is_bounded


class TestBensonSolve:
    def test_dimension_one_entry(self):
        cloud = DataCloud.from_rows([[1], [2], [3], [4], [5]])
        basis = make_dual_basis(validate_cone([[1]]), (1,))
        sol = benson_dual_solve(cloud, QuantileLevel(F(1, 2), 5), basis)
        assert sol.entries == (((F(1),), F(3)),)
        s = ScalarSample(tuple(p[0] for p in cloud.points))
        _, g = minimize_pinball_loss(s, QuantileLevel(F(1, 2), 5))
        assert sol.image_vertices[0].value == g

    def test_two_point_high_level(self):
        cloud = DataCloud.from_rows([[0, 0], [1, 1]])
        basis = make_dual_basis(orthant(2), (1, 1))
        sol = benson_dual_solve(cloud, QuantileLevel(F(3, 4), 2), basis)
        assert ((F(1), F(0)), F(1)) in sol.entries
        assert ((F(0), F(1)), F(1)) in sol.entries

    def test_two_point_low_level(self):
        cloud = DataCloud.from_rows([[0, 0], [1, 1]])
        basis = make_dual_basis(orthant(2), (1, 1))
        sol = benson_dual_solve(cloud, QuantileLevel(F(1, 4), 2), basis)
        assert ((F(1), F(0)), F(0)) in sol.entries
        assert ((F(0), F(1)), F(0)) in sol.entries

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
            sol = benson_dual_solve(cloud, level, basis, audit=True)
            assert len(sol.entries) == len(sol.dual_image.vertices)
            for (w, t), pt in zip(sol.entries, sol.image_vertices):
                # w sits on the basis exactly
                assert all(
                    sum(gj * wj for gj, wj in zip(g, w)) >= 0
                    for g in cone.generators
                )
                assert sum(cj * wj for cj, wj in zip(basis.c, w)) == 1
                # t is the direct quantile, the value the loss minimum
                s = ScalarSample(project_data(cloud, w))
                assert t == quantile_direct(s, level)
                t2, g = minimize_pinball_loss(s, level)
                assert t2 == t and g == pt.value
                # first-order conditions at the entry's t
                assert pinball_right_derivative(s, level, t) > 0
            # cut soundness: confirmed image points satisfy every cut
            for pt in sol.audit.confirmed:
                z = pt.coords + (pt.value,)
                for cut in sol.audit.cuts:
                    assert cut.holds(z)

    def test_outer_approximation_shrinks_onto_image(self):
        from conequant import poly_contains

        rng = random.Random(55)
        for _ in range(10):
            dim = rng.randint(1, 3)
            cloud = random_cloud(rng, rng.randint(1, 8), dim, span=10)
            cone = random_cone(rng, dim)
            basis = make_dual_basis(cone)
            level = random_valid_level(rng, cloud.n, max_den=30)
            start = initial_outer(basis)
            sol = benson_dual_solve(cloud, level, basis)
            assert poly_contains(start, sol.dual_image)
            assert sol.dual_image.rays == (
                tuple([F(0)] * (dim - 1)) + (F(1),),
            )

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
            assert sol1.entries == sol2.entries
            assert sol1.stats == sol2.stats
            shuffled = list(cloud.points)
            rng.shuffle(shuffled)
            sol3 = benson_dual_solve(DataCloud(tuple(shuffled)), level, basis)
            assert sol3.entries == sol1.entries


class TestHalfspacesOf:
    def test_lexicographic_by_canonical_normal(self):
        cloud = DataCloud.from_rows([[0, 0], [1, 1]])
        basis = make_dual_basis(orthant(2))
        sol = benson_dual_solve(cloud, QuantileLevel(F(3, 4), 2), basis)
        hs = halfspaces_of(sol)
        keys = [h.key() for h in hs]
        assert keys == sorted(keys)
        assert len(hs) == len(sol.entries)

    def test_one_dimensional(self):
        cloud = DataCloud.from_rows([[1], [2], [3], [4], [5]])
        basis = make_dual_basis(validate_cone([[1]]), (1,))
        sol = benson_dual_solve(cloud, QuantileLevel(F(1, 2), 5), basis)
        (h,) = halfspaces_of(sol)
        assert h.normal == (F(1),) and h.offset == F(3)

    def test_empty_solution_rejected(self):
        cloud = DataCloud.from_rows([[1]])
        basis = make_dual_basis(validate_cone([[1]]))
        sol = benson_dual_solve(cloud, QuantileLevel(F(1, 3), 1), basis)
        hollow = DualSolution(
            entries=(),
            dual_image=sol.dual_image,
            basis=sol.basis,
            stats=sol.stats,
            image_vertices=(),
        )
        with pytest.raises(EmptyBasis):
            halfspaces_of(hollow)


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

real = vlp.quantile_and_loss
vlp.quantile_and_loss = lambda *a: (real(*a)[0], real(*a)[1] - 1)
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
