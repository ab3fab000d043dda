"""Shared generators for the randomized suites.

All randomness is seeded `random.Random` instances owned by each test; these
helpers only derive values from the generator they are handed, so every test
stays reproducible in isolation.  Property tests run under a derandomized
hypothesis profile for the same reason.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import settings

from conequant import (
    Cone,
    ConequantError,
    DataCloud,
    DimensionMismatch,
    InternalInvariantError,
    QuantileLevel,
    tukey_region,
    validate_cone,
)
from conequant.core import as_vector

# property tests replay the same examples on every run and write no
# example database, so the suite stays deterministic
settings.register_profile("conequant", derandomize=True, database=None, deadline=None)
settings.load_profile("conequant")


def random_cloud(rng: random.Random, n: int, dim: int, span: int = 50) -> DataCloud:
    return DataCloud.from_rows(
        [[rng.randint(-span, span) for _ in range(dim)] for _ in range(n)]
    )


def depth_by_region_sweep(cloud: DataCloud, z) -> int:
    """Tukey depth by a sweep over regions: the largest k whose depth-k
    region contains z, 0 outside the hull.  Up to N Benson solves; kept as
    the reference that the direct count in ``tukey_depth`` is checked
    against.

    Sweeps levels downward using p = (k - 1/2)/N, which is always a valid
    level with count threshold exactly k.
    """
    z_vec = as_vector(z)
    if len(z_vec) != cloud.dim:
        raise DimensionMismatch("query point dimension does not match the data")
    n = cloud.n
    for k in range(n, 0, -1):
        level = QuantileLevel(Fraction(2 * k - 1, 2 * n), n)
        if level.ceil_np != k:
            raise InternalInvariantError("depth level does not have count threshold k")
        if tukey_region(cloud, level).region.contains(z_vec):
            return k
    return 0


def frac_rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Fractions: (nonzero rows, pivot
    columns).  A textbook reference, independent of the package's integer
    elimination."""
    mat = [[Fraction(x) for x in r] for r in rows]
    m = len(mat)
    pivots: list[int] = []
    for col in range(len(mat[0]) if m else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, m) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        mat[r] = [x / mat[r][col] for x in mat[r]]
        for i in range(m):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
    return mat[: len(pivots)], pivots


def frac_rank(rows) -> int:
    return len(frac_rref(rows)[1])


def frac_nullspace(rows, n: int) -> list[tuple[Fraction, ...]]:
    """Basis of {x : rows.x = 0}, one vector per free column of the RREF
    with a 1 there."""
    red, pivots = frac_rref(rows)
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            vec[pc] = -row[fc]
        basis.append(tuple(vec))
    return basis


def random_valid_level(rng: random.Random, n: int, max_den: int = 1000) -> QuantileLevel:
    while True:
        den = rng.randint(2, max_den)
        num = rng.randint(1, den - 1)
        level = QuantileLevel(Fraction(num, den), n)
        if level.is_valid:
            return level


def random_cone(rng: random.Random, dim: int, span: int = 4) -> Cone:
    """Rejection-sample a validated (full-dimensional, line-free) cone."""
    while True:
        r = rng.randint(dim, dim + 2)
        rows = [[rng.randint(-span, span) for _ in range(dim)] for _ in range(r)]
        try:
            return validate_cone(rows)
        except ConequantError:
            continue


def random_direction(rng: random.Random, dim: int, span: int = 9):
    while True:
        w = tuple(Fraction(rng.randint(-span, span)) for _ in range(dim))
        if any(w):
            return w


def random_hrep_polyhedron(rng: random.Random, dim: int):
    """Random H-rep: half polytopes around the origin, half arbitrary
    (possibly empty, unbounded, or with lineality)."""
    from conequant import Halfspace, Polyhedron

    halfspaces = []
    if rng.random() < 0.5:
        for _ in range(rng.randint(dim + 1, 2 * dim + 4)):
            n = [rng.randint(-4, 4) for _ in range(dim)]
            if not any(n):
                continue
            halfspaces.append(
                Halfspace(tuple(-v for v in n), Fraction(-rng.randint(1, 6)))
            )
    else:
        for _ in range(rng.randint(1, dim + 3)):
            n = [rng.randint(-3, 3) for _ in range(dim)]
            if not any(n):
                continue
            halfspaces.append(Halfspace(tuple(n), Fraction(rng.randint(-5, 5))))
    if not halfspaces:
        halfspaces.append(Halfspace((1,) + (0,) * (dim - 1), 0))
    return Polyhedron.from_hrep(halfspaces, dim=dim)


def random_vrep_polyhedron(rng: random.Random, dim: int):
    from conequant import Polyhedron

    nv = rng.randint(1, dim + 3)
    verts = [
        tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(dim))
        for _ in range(nv)
    ]
    rays = []
    for _ in range(rng.randint(0, dim)):
        r = tuple(rng.randint(-3, 3) for _ in range(dim))
        if any(r):
            rays.append(r)
    return Polyhedron.from_vrep(verts, rays, dim=dim)


@pytest.fixture
def value_below_vertex(monkeypatch):
    """Make the Benson loop's integer oracle report a loss one unit below the
    true one, so the outer vertices it checks lie above the dual image it
    reports."""
    import conequant.vlp as vlp

    real = vlp.key_quantile_and_loss

    def below(*args):
        t, g = real(*args)
        return t, g - 1

    monkeypatch.setattr(vlp, "key_quantile_and_loss", below)
