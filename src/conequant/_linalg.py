"""Exact dense linear algebra over rationals and integers.

Everything here is Gaussian elimination at desk scale; no pivoting heuristics
beyond "first nonzero" are needed because the arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from math import gcd, lcm

Vec = tuple[Fraction, ...]


def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rref rows, pivot column indices)."""
    mat = [list(r) for r in rows]
    m = len(mat)
    n = len(mat[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][col]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(m):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    nonzero = [row for row in mat if any(x != 0 for x in row)]
    return nonzero, pivots


def rank(rows) -> int:
    rows = [list(map(Fraction, r)) for r in rows]
    if not rows:
        return 0
    return len(rref(rows)[0])


def int_rank(rows: list[tuple[int, ...]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination."""
    mat = [list(r) for r in rows if any(r)]
    m = len(mat)
    if m == 0:
        return 0
    n = len(mat[0])
    prev = 1
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][col]
        for i in range(r + 1, m):
            f = mat[i][col]
            row_i = mat[i]
            row_r = mat[r]
            for j in range(col, n):
                row_i[j] = (row_i[j] * pv - f * row_r[j]) // prev
        prev = pv
        r += 1
        if r == m:
            break
    return r


def nullspace(rows, n: int) -> list[Vec]:
    """Basis of {x in Q^n : rows @ x = 0}; empty list when trivial."""
    rows = [list(map(Fraction, r)) for r in rows if any(x != 0 for x in r)]
    if not rows:
        return [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    red, pivots = rref(rows)
    free_cols = [j for j in range(n) if j not in pivots]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            vec[pc] = -row[fc]
        basis.append(tuple(vec))
    return basis


def solve_square(a_rows, b) -> list[Fraction]:
    """Solve A x = b for square nonsingular A."""
    n = len(a_rows)
    aug = [list(map(Fraction, row)) + [Fraction(b[i])] for i, row in enumerate(a_rows)]
    red, pivots = rref(aug)
    if len(pivots) != n or pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [red[i][n] for i in range(n)]


def invert(a_rows) -> list[list[Fraction]]:
    """Inverse of a square nonsingular matrix."""
    n = len(a_rows)
    aug = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(a_rows)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red[:n]]


def common_denominator(values) -> tuple[list[int], int]:
    """Integers n_i and the least positive den with values[i] == n_i / den.

    ``values`` is a sequence of rationals (``Fraction`` or ``int``).
    """
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def primitive(vec) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers, preserving direction.

    An integer vector is divided by its gcd alone; denominators are cleared
    only when some entry is not an ``int``.
    """
    try:
        g = gcd(*vec)
    except TypeError:  # a Fraction entry
        vec, _ = common_denominator(vec)
        g = gcd(*vec)
    if g > 1:
        return tuple(v // g for v in vec)
    return tuple(vec)


def cross(a, b):
    """The planar cross product a[0]*b[1] - a[1]*b[0]."""
    return a[0] * b[1] - a[1] * b[0]


def angle_cmp(a, b) -> int:
    """Order nonzero planar vectors counter-clockwise by angle from the
    positive x axis, in [0, 2*pi); 0 when they point the same way.

    Exact for integers and rationals: the half plane first, then the sign of
    the cross product, which is a total order within one half plane.
    """
    ha = 0 if a[1] > 0 or (a[1] == 0 and a[0] > 0) else 1
    hb = 0 if b[1] > 0 or (b[1] == 0 and b[0] > 0) else 1
    if ha != hb:
        return ha - hb
    cr = cross(a, b)
    return -1 if cr > 0 else (1 if cr < 0 else 0)


angle_key = cmp_to_key(angle_cmp)
