from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conequant import (
    DataCloud,
    IntegralNp,
    OPTIMAL,
    QuantileLevel,
    ScalarSample,
    build_lp,
    build_lp_dual,
    minimize_pinball_loss,
    pinball_loss,
    pinball_right_derivative,
    project_data,
    quantile_direct,
    simplex_solve,
    solve_scalarized_lp,
)
from conequant.univariate import (
    ascending,
    count_le,
    dense_masses,
    greedy_cut,
    key_quantile_and_loss,
    project,
    quantile_and_loss,
    support_sum,
)
from conftest import (
    dense_support_sum,
    greedy_masses,
    loop_quantile_and_loss,
    random_cloud,
    random_direction,
    random_valid_level,
)


def sample(*values) -> ScalarSample:
    return ScalarSample.from_values(values)


def level(p, n) -> QuantileLevel:
    return QuantileLevel(Fraction(p), n)


class TestQuantileDirect:
    def test_median_of_five(self):
        assert quantile_direct(sample(1, 2, 3, 4, 5), level("1/2", 5)) == 3

    def test_high_level_returns_max(self):
        assert quantile_direct(sample(3, 1, 2), level("9/10", 3)) == 3

    def test_multiplicity_counts(self):
        assert quantile_direct(sample(1, 1, 2), level("1/2", 3)) == 1

    def test_always_member_of_sample(self):
        rng = random.Random(21)
        for _ in range(200):
            values = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, 12))]
            s = ScalarSample.from_values(values)
            lvl = random_valid_level(rng, s.n)
            assert quantile_direct(s, lvl) in values


class TestPinballLoss:
    def test_spot_values(self):
        assert pinball_loss(sample(0, 1), level("1/4", 2), 0) == Fraction(1, 4)
        assert pinball_loss(sample(0, 1), level("1/4", 2), 1) == Fraction(3, 4)
        assert pinball_loss(sample(5), level("1/3", 1), 5) == 0

    def test_nonnegative(self):
        rng = random.Random(22)
        for _ in range(200):
            values = [rng.randint(-20, 20) for _ in range(rng.randint(1, 10))]
            s = ScalarSample.from_values(values)
            lvl = random_valid_level(rng, s.n)
            t = Fraction(rng.randint(-25, 25), rng.randint(1, 4))
            assert pinball_loss(s, lvl, t) >= 0

    def test_convex_in_t(self):
        rng = random.Random(23)
        for _ in range(200):
            values = [rng.randint(-20, 20) for _ in range(rng.randint(1, 10))]
            s = ScalarSample.from_values(values)
            lvl = random_valid_level(rng, s.n)
            t1 = Fraction(rng.randint(-25, 25), rng.randint(1, 4))
            t2 = Fraction(rng.randint(-25, 25), rng.randint(1, 4))
            lam = Fraction(rng.randint(1, 9), 10)
            mid = lam * t1 + (1 - lam) * t2
            assert pinball_loss(s, lvl, mid) <= lam * pinball_loss(
                s, lvl, t1
            ) + (1 - lam) * pinball_loss(s, lvl, t2)


class TestRightDerivative:
    def test_spot_values(self):
        assert pinball_right_derivative(sample(1, 2, 3), level("1/2", 3), 2) == Fraction(1, 2)
        assert pinball_right_derivative(sample(1, 2, 3), level("1/2", 3), 0) == Fraction(-3, 2)
        assert pinball_right_derivative(sample(0, 1), level("1/4", 2), 0) == Fraction(1, 2)

    def test_sign_pattern_identifies_minimizer(self):
        rng = random.Random(24)
        for _ in range(200):
            values = [rng.randint(-15, 15) for _ in range(rng.randint(1, 10))]
            s = ScalarSample.from_values(values)
            lvl = random_valid_level(rng, s.n)
            t_star, _ = minimize_pinball_loss(s, lvl)
            assert pinball_right_derivative(s, lvl, t_star) > 0
            for v in values:
                if v < t_star:
                    assert pinball_right_derivative(s, lvl, v) < 0


class TestMinimize:
    def test_matches_direct_quantile(self):
        t_star, g = minimize_pinball_loss(sample(0, 1), level("1/4", 2))
        assert (t_star, g) == (0, Fraction(1, 4))
        assert minimize_pinball_loss(sample(1, 2, 3, 4, 5), level("1/2", 5))[0] == 3
        assert minimize_pinball_loss(sample(7), level("1/3", 1)) == (7, 0)

    def test_grid_search_agrees(self):
        # independent check: evaluate the loss on all data values and
        # midpoints, the minimum must sit at the reported minimizer
        rng = random.Random(25)
        for _ in range(100):
            values = sorted(rng.randint(-12, 12) for _ in range(rng.randint(1, 8)))
            s = ScalarSample.from_values(values)
            lvl = random_valid_level(rng, s.n)
            t_star, g = minimize_pinball_loss(s, lvl)
            grid = set(values)
            grid.update(
                Fraction(a + b, 2) for a, b in zip(values, values[1:])
            )
            grid.update((min(values) - 1, max(values) + 1))
            best = min(pinball_loss(s, lvl, t) for t in grid)
            assert best == g == pinball_loss(s, lvl, t_star)
            for t in grid:
                if t != t_star:
                    assert pinball_loss(s, lvl, t) > g  # unique minimizer

    def test_integral_np_rejected(self):
        with pytest.raises(IntegralNp):
            minimize_pinball_loss(sample(1, 2, 3, 4), level("1/2", 4))


class TestGreedyScalarization:
    def test_two_point_example(self):
        cloud = DataCloud.from_rows([[0], [1]])
        lvl = level("1/4", 2)
        sol = solve_scalarized_lp(cloud, lvl, (1,))
        assert sol.u == (0, Fraction(1, 4))
        assert sol.v == (Fraction(1, 4), 0)
        assert sol.value == Fraction(1, 4)
        assert sol.support_point == (Fraction(1, 4),)

    def test_zero_direction(self):
        cloud = DataCloud.from_rows([[3, 1], [2, 2]])
        sol = solve_scalarized_lp(cloud, level("1/3", 2), (0, 0))
        assert sol.value == 0

    def test_diagonal_example(self):
        cloud = DataCloud.from_rows([[0, 0], [1, 1]])
        sol = solve_scalarized_lp(cloud, level("3/4", 2), ("1/2", "1/2"))
        s = ScalarSample.from_values([0, 1])
        assert sol.value == minimize_pinball_loss(s, level("3/4", 2))[1]

    def test_feasibility_invariants(self):
        rng = random.Random(26)
        for _ in range(100):
            cloud = random_cloud(rng, rng.randint(1, 12), rng.randint(1, 3), span=20)
            lvl = random_valid_level(rng, cloud.n, max_den=30)
            w = random_direction(rng, cloud.dim)
            sol = solve_scalarized_lp(cloud, lvl, w)
            assert all(0 <= ui <= lvl.p for ui in sol.u)
            assert all(0 <= vi <= 1 - lvl.p for vi in sol.v)
            assert sum(sol.u) == sum(sol.v)
            assert sol.value == sum(
                z * (ui - vi)
                for z, ui, vi in zip(project_data(cloud, w), sol.u, sol.v)
            )


class TestStrongDuality:
    def test_greedy_equals_simplex_equals_minimum(self):
        rng = random.Random(27)
        for _ in range(60):
            cloud = random_cloud(rng, rng.randint(1, 10), rng.randint(1, 3), span=15)
            lvl = random_valid_level(rng, cloud.n, max_den=20)
            w = random_direction(rng, cloud.dim)
            greedy = solve_scalarized_lp(cloud, lvl, w).value
            s = ScalarSample(project_data(cloud, w))
            _, g = minimize_pinball_loss(s, lvl)
            assert greedy == g
            primal = simplex_solve(build_lp(cloud, lvl, w))
            dual = simplex_solve(build_lp_dual(cloud, lvl, w))
            assert primal.status == dual.status == OPTIMAL
            assert primal.value == dual.value == g

    def test_support_point_gives_valid_cuts(self):
        # the value of any other direction dominates its pairing with the
        # support point: this is what makes Benson cuts sound
        rng = random.Random(28)
        for _ in range(60):
            cloud = random_cloud(rng, rng.randint(1, 10), rng.randint(1, 3), span=15)
            lvl = random_valid_level(rng, cloud.n, max_den=20)
            w = random_direction(rng, cloud.dim)
            y = solve_scalarized_lp(cloud, lvl, w).support_point
            for _ in range(10):
                w2 = random_direction(rng, cloud.dim)
                s2 = ScalarSample(project_data(cloud, w2))
                _, g2 = minimize_pinball_loss(s2, lvl)
                assert g2 >= sum(a * b for a, b in zip(w2, y))


# Brute-force checks of the integer scalar layer in ``conequant.univariate``.
# Every result is compared against plain ``Fraction`` arithmetic on the same
# values, including inputs big enough that the keys are far beyond 64 bits.


def random_values(rng, n, span):
    """Rationals with a few exact repeats, so that ties occur at every span."""
    pool = [Fraction(rng.randint(-span, span), rng.randint(1, span)) for _ in range(n)]
    return [rng.choice(pool) if rng.random() < 0.3 else v for v in pool]


def pinball(vals, p, t):
    return sum(p * max(v - t, 0) + (1 - p) * max(t - v, 0) for v in vals)


@pytest.mark.parametrize("span", [9, 10**12])
def test_sort_perm_matches_brute_force(span):
    rng = random.Random(3)
    for _ in range(200):
        vals = random_values(rng, rng.randint(1, 12), span)
        keys, den = ScalarSample(tuple(vals)).keys
        assert [Fraction(x, den) for x in keys] == vals
        expected = sorted(range(len(vals)), key=lambda i: (vals[i], i))
        assert ascending(keys) == expected


@pytest.mark.parametrize("span", [9, 10**12])
def test_kth_count_pinball_match_fractions(span):
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(1, 10)
        vals = random_values(rng, n, span)
        sample = ScalarSample(tuple(vals))
        keys, den = sample.keys
        p = Fraction(rng.randint(1, 7), 8)
        level = QuantileLevel(p, n)
        expect_kth = sorted(vals)[level.ceil_np - 1]
        t, loss = quantile_and_loss(sorted(keys), den, level)
        assert t == expect_kth
        assert loss == pinball(vals, p, expect_kth)
        # thresholds on, between and outside the values
        for t in (vals[rng.randrange(n)] + Fraction(rng.randint(-2, 2), 3),
                  min(vals) - 1, max(vals)):
            assert count_le(keys, den, t) == sum(1 for v in vals if v <= t)
            assert pinball_loss(sample, level, t) == pinball(vals, p, t)


@pytest.mark.parametrize("span", [5, 10**11])
def test_proj_pairs_matches_fraction_dot(span):
    rng = random.Random(5)
    for _ in range(100):
        n, d = rng.randint(1, 8), rng.randint(1, 5)
        points = [
            [Fraction(rng.randint(-span, span), rng.randint(1, 7)) for _ in range(d)]
            for _ in range(n)
        ]
        w = tuple(Fraction(rng.randint(-span, span), rng.randint(1, 7)) for _ in range(d))
        rows, den = DataCloud.from_rows(points).int_form
        keys, kden = project(list(zip(*rows)), den, w)
        expected = [sum(a * b for a, b in zip(row, w)) for row in points]
        assert [Fraction(x, kden) for x in keys] == expected


@pytest.mark.parametrize(
    "p, u, v, y",
    [
        # the two lowest values tie: the v side serves index 0 before index 1
        ("3/8", ("0", "0", "3/8", "3/8"), ("5/8", "1/8", "0", "0"), ("3/4", "1/4")),
        # the two highest values tie: the u side serves index 2 before index 3
        ("5/8", ("0", "0", "5/8", "1/8"), ("3/8", "3/8", "0", "0"), ("3/4", "-1/4")),
    ],
    ids=["p=3/8", "p=5/8"],
)
def test_greedy_serves_lower_index_first_among_ties(p, u, v, y):
    cloud = DataCloud.from_rows([[0, 0], [0, 1], [1, 0], [1, 1]])
    sol = solve_scalarized_lp(cloud, QuantileLevel(Fraction(p), 4), (1, 0))
    assert sol.u == tuple(map(Fraction, u))
    assert sol.v == tuple(map(Fraction, v))
    assert sol.support_point == tuple(map(Fraction, y))
    assert sol.value == Fraction(3, 4)


# every level a/b with b <= 20, integral N p included
SMALL_LEVELS = sorted({Fraction(a, b) for b in range(2, 21) for a in range(1, b)})


@st.composite
def tied_keys_and_rows(draw):
    """1 to 12 keys in -2..2, so that ties are frequent, and integer rows in
    d = 1 to 3 that the masses are summed over."""
    n = draw(st.integers(1, 12))
    keys = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    d = draw(st.integers(1, 3))
    row = st.tuples(*[st.integers(-9, 9)] * d)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    return keys, rows


@settings(max_examples=200)
@given(tied_keys_and_rows())
def test_greedy_cut_matches_the_loop(case):
    """The closed-form greedy cut gives the loop's dense (u, v), support sum,
    quantile key and loss numerator at every level with denominator <= 20."""
    keys, rows = case
    n = len(keys)
    asc = ascending(keys)
    ka = list(map(keys.__getitem__, asc))
    cols = list(zip(*rows))
    for p in SMALL_LEVELS:
        level = QuantileLevel(p, n)
        u, v = greedy_masses(keys, asc, p)
        groups = greedy_cut(ka, asc, p)
        assert dense_masses(groups, n) == (u, v), (keys, p)
        assert support_sum(cols, groups) == dense_support_sum(rows, u, v)
        assert key_quantile_and_loss(ka, level) == loop_quantile_and_loss(keys, asc, level)
