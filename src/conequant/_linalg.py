"""Exact dense linear algebra over integers, and small vector helpers.

All elimination is one fraction-free Gauss-Jordan step, ``bareiss_step``.
``echelon`` runs it column by column: rank, integer kernel bases and
inverses (up to a positive scale) are read off its integer rows.  The
simplex tableau of ``lp`` pivots with it too.  No pivoting heuristic beyond
"first nonzero" is needed because the arithmetic is exact.
"""

from __future__ import annotations

from functools import cmp_to_key
from math import gcd, lcm
from operator import mul


def dot(u, v):
    """u.v: an int for integer vectors, a Fraction for rational ones."""
    return sum(map(mul, u, v))


def bareiss_step(mat, r: int, col: int, prev: int) -> int:
    """One fraction-free Gauss-Jordan step on the pivot mat[r][col], in
    place (Bareiss, Math. Comp. 1968); returns the new pivot, the scale of
    every row afterwards.

    With ``prev`` > 0 the previous pivot, each other row becomes
    (pv*row - f*prow) / prev, f = row[col]: exact, since every entry is a
    minor of the input.  A negative pivot negates its row first, which
    negates the whole result.  A row with f = 0 only scales by pv / prev,
    so it is skipped when pv == prev.  A row shorter than the pivot row is
    updated over its own length.
    """
    prow = mat[r]
    if prow[col] < 0:
        mat[r] = prow = [-a for a in prow]
    pv = prow[col]
    for i, row in enumerate(mat):
        f = row[col]
        if i != r and (f or pv != prev):
            mat[i] = [(pv * a - f * b) // prev for a, b in zip(row, prow)]
    return pv


def echelon(rows) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix, one
    ``bareiss_step`` per pivot; returns the nonzero reduced rows and their
    pivot columns.

    Every pivot entry is the same D > 0 and every other entry of a pivot
    column is 0, so the rows are exactly D times the reduced row echelon
    form.
    """
    mat = [list(r) for r in rows]
    m = len(mat)
    pivots: list[int] = []
    prev = 1
    for col in range(len(mat[0]) if m else 0):
        r = len(pivots)
        if r == m:
            break
        p = next((i for i in range(r, m) if mat[i][col]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        prev = bareiss_step(mat, r, col, prev)
        pivots.append(col)
    return mat[: len(pivots)], pivots


def int_rank(rows) -> int:
    """Rank of an integer matrix."""
    return len(echelon(rows)[1])


def kernel(red: list[list[int]], pivots: list[int], n: int) -> list[tuple[int, ...]]:
    """Primitive integer basis of {x in Q^n : rows.x = 0}, given
    ``echelon(rows)``: one vector per free column, in ascending order.  With
    no rows it is the unit basis."""
    d = red[0][pivots[0]] if red else 1
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        vec = [0] * n
        vec[fc] = d
        for row, pc in zip(red, pivots):
            vec[pc] = -row[fc]
        basis.append(primitive(vec))
    return basis


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


def ratio_sorted(items, key=None) -> list:
    """``items`` in lexicographic order of v / s, where ``key(item)``, or the
    item itself when ``key`` is None, is an integer vector (v, s) with s > 0;
    equal ratios keep their order.

    Each coordinate v_j / s is keyed by the integer floor(v_j 2^K / s), with
    K = 2 bit_length(S) for the largest s = S.  Two distinct ratios a / s and
    b / t differ by at least 1 / (s t) > 2^-K, since s t <= S^2 < 2^K, so the
    larger times 2^K exceeds the smaller times 2^K by more than 1 and its
    floor is the larger; equal ratios have equal floors.  So the key vectors
    compare exactly as the ratio vectors do, and ``sorted`` keeps equal ones
    in their order."""
    items = list(items)
    vecs = items if key is None else list(map(key, items))
    k = 2 * max((g[-1] for g in vecs), default=0).bit_length()
    keys = [[(x << k) // g[-1] for x in g[:-1]] for g in vecs]
    return [items[i] for i in sorted(range(len(items)), key=keys.__getitem__)]


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

# counter-clockwise order of planar vectors that span less than a half turn:
# a before b iff the cross product a x b is positive
half_turn_key = cmp_to_key(lambda a, b: a[1] * b[0] - a[0] * b[1])
