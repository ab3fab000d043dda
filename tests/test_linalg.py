"""The fraction-free elimination in ``conequant._linalg`` against the Fraction
reference in conftest.py."""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from operator import itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conequant._linalg import echelon, int_rank, kernel, primitive, ratio_sorted
from conftest import frac_nullspace, frac_rank, frac_rref


def _random_matrix(rng: random.Random) -> list[list[int]]:
    """Small integer matrices with zero rows, duplicates, dependent rows and
    entries near 10**12."""
    m, n = rng.randint(0, 6), rng.randint(1, 6)
    big = rng.random() < 0.3

    def entry() -> int:
        if big:
            return rng.choice((1, -1)) * 10**12 + rng.randint(-3, 3)
        return rng.randint(-4, 4)

    rows = [[entry() for _ in range(n)] for _ in range(m)]
    for _ in range(rng.randint(0, 2)):
        if rows:
            a, b = rng.choice(rows), rng.choice(rows)
            x, y = rng.randint(-3, 3), rng.randint(-3, 3)
            rows.append([x * u + y * v for u, v in zip(a, b)])
    if rows and rng.random() < 0.3:
        rows.append(list(rng.choice(rows)))
    if rng.random() < 0.3:
        rows.append([0] * n)
    rng.shuffle(rows)
    return rows


def _cases():
    rng = random.Random(800)
    cases = [([], 3), ([[0, 0, 0]], 3)]
    for _ in range(400):
        rows = _random_matrix(rng)
        cases.append((rows, len(rows[0]) if rows else rng.randint(1, 6)))
    return cases


CASES = _cases()


def test_rows_are_a_positive_multiple_of_the_rref():
    for rows, _ in CASES:
        red, pivots = echelon(rows)
        ref, ref_pivots = frac_rref(rows)
        assert pivots == ref_pivots
        assert int_rank(rows) == frac_rank(rows) == len(red)
        if not red:
            continue
        d = red[0][pivots[0]]
        assert d > 0
        assert all(row[pc] == d for row, pc in zip(red, pivots))
        assert [[Fraction(x, d) for x in row] for row in red] == ref


def test_kernel_matches_the_free_column_basis():
    for rows, n in CASES:
        basis = kernel(*echelon(rows), n)
        assert basis == [primitive(v) for v in frac_nullspace(rows, n)]
        for v in basis:
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)


def test_empty_matrix_has_the_unit_kernel():
    assert echelon([]) == ([], [])
    assert int_rank([]) == 0
    assert kernel([], [], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_identity_block_gives_the_inverse_columns(n):
    rng = random.Random(900 + n)
    checked = 0
    while checked < 40:
        span = 10**12 if checked % 4 == 0 else 5
        b = [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]
        if frac_rank(b) < n:
            continue
        aug = [row + [int(i == k) for k in range(n)] for i, row in enumerate(b)]
        red, pivots = echelon(aug)
        assert pivots == list(range(n))
        ref, _ = frac_rref(aug)
        inverse = [row[n:] for row in ref]
        for i in range(n):
            for k in range(n):
                assert sum(b[i][j] * inverse[j][k] for j in range(n)) == int(i == k)
        for k in range(n):
            column = primitive([row[n + k] for row in red])
            assert column == primitive([row[k] for row in inverse])
        checked += 1


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_ratio_sorted_is_the_fraction_order(dim):
    """``ratio_sorted`` orders vectors (v, s) as ``sorted`` orders the
    Fraction tuples v / s, equal ratios in their given order, on a corpus
    with negative coordinates, equal leading coordinates, equal ratios at
    different scales and common denominators past 2**200."""
    rng = random.Random(950 + dim)
    odd64 = [rng.getrandbits(64) | 1 for _ in range(8)]
    widest = 0
    for case in range(80):
        huge = case % 2 == 0
        vecs = []
        for _ in range(rng.randint(0, 14)):
            s = rng.choice(odd64) if huge else rng.randint(1, 12)
            # the leading coordinate is a small integer, shared by many
            head = rng.randint(-2, 2) * s
            vecs.append((head, *(rng.randint(-3 * s, 3 * s) for _ in range(dim - 1)), s))
        for v in list(vecs[:3]):
            vecs.insert(rng.randint(0, len(vecs)), tuple(2 * x for x in v))
        rng.shuffle(vecs)
        want = sorted(vecs, key=lambda g: tuple(Fraction(x, g[-1]) for x in g[:-1]))
        assert ratio_sorted(vecs) == want
        tagged = [(v, i) for i, v in enumerate(vecs)]
        assert ratio_sorted(tagged, itemgetter(0)) == sorted(
            tagged, key=lambda t: tuple(Fraction(x, t[0][-1]) for x in t[0][:-1])
        )
        if vecs:
            widest = max(widest, lcm(*(v[-1] for v in vecs)))
    assert widest > 2**200


@st.composite
def wide_ratio_vectors(draw):
    """0 to 10 vectors (v, s) in d = 1 to 3 over the pairwise coprime
    denominators m, m + 1 and m + 2 for an odd m of about 200 bits, or a
    small s.  Numerators are near multiples c s of a small signed c, so that
    distinct ratios differ by as little as 1 / (s t), and some vectors are
    repeated at another scale, an equal ratio."""
    dim = draw(st.integers(1, 3))
    m = draw(st.integers(2**199, 2**200)) | 1
    dens = st.sampled_from([m, m + 1, m + 2]) | st.integers(1, 12)
    vecs = []
    for _ in range(draw(st.integers(0, 10))):
        s = draw(dens)
        head = [draw(st.integers(-3, 3)) * s + draw(st.integers(-2, 2)) for _ in range(dim)]
        vecs.append((*head, s))
    for v in draw(st.lists(st.sampled_from(vecs), max_size=3)) if vecs else []:
        c = draw(st.integers(2, 5))
        vecs.insert(draw(st.integers(0, len(vecs))), tuple(c * x for x in v))
    return vecs


@settings(max_examples=300)
@given(wide_ratio_vectors())
@example([])
@example([(-7, 3)])
@example([(2**200 + 1, -(2**200), 2**200 + 2), (1, -1, 1), (2, -2, 2)])
def test_ratio_sorted_floor_keys_match_fractions(vecs):
    """``ratio_sorted``'s floor keys give ``sorted``'s order of the Fraction
    tuples v / s, equal ratios in their given order."""
    def fractions(g):
        return tuple(Fraction(x, g[-1]) for x in g[:-1])

    assert ratio_sorted(vecs) == sorted(vecs, key=fractions)
    tagged = [(v, i) for i, v in enumerate(vecs)]
    assert ratio_sorted(tagged, itemgetter(0)) == sorted(tagged, key=lambda t: fractions(t[0]))
