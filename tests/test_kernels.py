"""Brute-force checks of the integer scalar layer in ``conequant.univariate``.

Every result is compared against plain ``Fraction`` arithmetic on the same
values, including inputs big enough that the keys are far beyond 64 bits.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conequant import DataCloud, QuantileLevel, ScalarSample, solve_scalarized_lp
from conequant.univariate import (
    ascending,
    count_le,
    pinball_loss,
    project,
    quantile_and_loss,
)


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
        t, loss = quantile_and_loss(keys, den, ascending(keys), level)
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
        keys, kden = project(rows, den, w)
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
