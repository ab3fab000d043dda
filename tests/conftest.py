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
    QuantileLevel,
    project_data,
    tukey_region,
    validate_cone,
)
from conequant._linalg import common_denominator
from conequant.univariate import Projector, greedy_cut

# property tests replay the same examples on every run and write no
# example database, so the suite stays deterministic
settings.register_profile("conequant", derandomize=True, database=None, deadline=None)
settings.load_profile("conequant")


def random_cloud(rng: random.Random, n: int, dim: int, span: int = 50) -> DataCloud:
    return DataCloud.from_rows(
        [[rng.randint(-span, span) for _ in range(dim)] for _ in range(n)]
    )


def scalar_cloud(values) -> DataCloud:
    """The one-column cloud of rational values: a scalar sample."""
    return DataCloud.from_rows([[v] for v in values])


def depth_level(k: int, n: int) -> QuantileLevel:
    """p = (k - 1/2)/N: always a valid level whose count threshold is k."""
    return QuantileLevel(Fraction(2 * k - 1, 2 * n), n)


def assert_depth_brackets(cloud: DataCloud, z, depth: int, region=tukey_region) -> None:
    """Tukey depth checked against regions: z lies in the depth region at
    k = depth when depth >= 1 and outside the one at k + 1 when depth < N.
    ``region(cloud, level)`` returns a result with a ``.region`` polyhedron."""
    n = cloud.n
    if depth >= 1:
        assert region(cloud, depth_level(depth, n)).region.contains(z), (cloud, z, depth)
    if depth < n:
        assert not region(cloud, depth_level(depth + 1, n)).region.contains(z), (cloud, z, depth)


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


def greedy_uv(cloud: DataCloud, level: QuantileLevel, w) -> tuple[list, list]:
    """``greedy_cut`` for direction w as dense masses (u, v) over Fractions."""
    rows, den = cloud.int_form
    projector = Projector(rows)
    slots, _ = projector.keys(common_denominator(w)[0])
    rest, groups = greedy_cut(sorted(slots), projector.tau, level.p)
    grouped = [i for idx, _ in groups for i in idx]
    assert len(grouped) == len(set(grouped)), "an index is in two groups"
    diff = [rest] * cloud.n
    for idx, mass in groups:
        for i in idx:
            diff[i] += mass
    pd = level.p.denominator
    return [Fraction(max(m, 0), pd) for m in diff], [Fraction(max(-m, 0), pd) for m in diff]


# The greedy transport loop that ``univariate.greedy_cut`` replaced, kept
# verbatim with the loss and support sums it was used with, as the reference
# the closed form is checked against.


def greedy_masses(
    keys: list[int], asc: list[int], p: Fraction
) -> tuple[list[int], list[int]]:
    """The greedy optimum (u, v) of the scalarized transport program, in
    integer units of 1/p.denominator.

    Feed u-mass (capacity p per point) to the largest keys and v-mass
    (capacity 1-p per point) to the smallest, growing the common budget while
    the marginal gain is positive and splitting at the stop.  Among equal keys
    the lower index is served first on both sides, which makes the solution
    reproducible.  ``asc`` is the index order of the keys, equal keys lower
    index first.
    """
    n = len(keys)
    # reverse=True keeps equal keys in index order
    desc = sorted(range(n), key=keys.__getitem__, reverse=True)
    cap_u = p.numerator
    cap_v = p.denominator - p.numerator
    u = [0] * n
    v = [0] * n
    hi = 0  # next u receiver, walking the descending order
    lo = 0  # next v receiver, walking the ascending order
    room_u = cap_u
    room_v = cap_v
    while hi < n and lo < n:
        iu = desc[hi]
        iv = asc[lo]
        if keys[iu] <= keys[iv]:
            break
        step = min(room_u, room_v)
        u[iu] += step
        v[iv] += step
        room_u -= step
        room_v -= step
        if room_u == 0:
            hi += 1
            room_u = cap_u
        if room_v == 0:
            lo += 1
            room_v = cap_v
    return u, v


def dense_support_sum(rows, u: list[int], v: list[int]) -> tuple[int, ...]:
    """sum_i rows[i] (u_i - v_i) over dense masses."""
    active = [(row, a - b) for row, a, b in zip(rows, u, v) if a != b]
    return tuple(sum(row[j] * m for row, m in active) for j in range(len(rows[0])))


def loop_quantile_and_loss(
    keys: list[int], asc: list[int], level: QuantileLevel
) -> tuple[int, int]:
    """The ceil(N p)-th smallest key and the pinball loss there, in units of
    1/p.denominator of a key, by one pass over the unsorted keys."""
    p = level.p
    t = keys[asc[level.ceil_np - 1]]
    above = sum(x - t for x in keys if x > t)
    below = sum(t - x for x in keys if x < t)
    return t, p.numerator * above + (p.denominator - p.numerator) * below


# The linear programs that ``validate_cone``, ``make_dual_basis`` and
# ``remove_redundant`` solved before double description replaced them, kept
# as the reference the engine is checked against, and the primal transport
# program whose simplex optimum the greedy cut's value is checked against.


def build_lp(cloud: DataCloud, level: QuantileLevel, w):
    """The scalarized transport program over (u, v) for direction w.

    One balance row e.u = e.v; box bounds 0 <= u <= p and 0 <= v <= 1-p.
    """
    from conequant.lp import LinearProgram

    z = project_data(cloud, w)
    n = cloud.n
    if level.n != n:
        raise DimensionMismatch(f"level is for N={level.n} but the cloud has {n}")
    one = Fraction(1)
    return LinearProgram(
        sense="max",
        objective=z + tuple(-zi for zi in z),
        rows=((one,) * n + (-one,) * n,),
        relations=("=",),
        rhs=(Fraction(0),),
        bounds=tuple((Fraction(0), level.p) for _ in range(n))
        + tuple((Fraction(0), 1 - level.p) for _ in range(n)),
    )


def lp_validate_cone(generators) -> Cone:
    """``validate_cone`` by one feasibility LP per nonzero generator g:
    the cone contains a line iff some -g is a nonnegative combination of
    the rows."""
    from conequant import ContainsLine, DimensionMismatch, NotFullDimensional
    from conequant._linalg import int_rank, primitive
    from conequant.core import as_vector, format_rational
    from conequant.lp import OPTIMAL, LinearProgram, simplex_solve

    rows = tuple(as_vector(g) for g in generators)
    if not rows:
        raise DimensionMismatch("a cone needs at least one generator row")
    d = len(rows[0])
    if d < 1 or any(len(g) != d for g in rows):
        raise DimensionMismatch("generator rows must share one dimension >= 1")
    rank = int_rank([primitive(g) for g in rows])
    if rank < d:
        raise NotFullDimensional(
            f"generators span a {rank}-dimensional subspace of "
            f"R^{d}; the cone has empty interior"
        )
    for g in rows:
        if all(x == 0 for x in g):
            continue
        # feasibility of { y >= 0 : sum_i y_i * row_i = -g }
        lp = LinearProgram(
            sense="min",
            objective=tuple(Fraction(0) for _ in rows),
            rows=tuple(tuple(row[j] for row in rows) for j in range(d)),
            relations=("=",) * d,
            rhs=tuple(-x for x in g),
            bounds=tuple((Fraction(0), None) for _ in rows),
        )
        if simplex_solve(lp).status == OPTIMAL:
            raise ContainsLine(
                f"the cone is not free of lines: -({', '.join(map(format_rational, g))}) "
                "is also in the cone"
            )
    return Cone(rows)


def lp_certify_interior(cone: Cone, c) -> None:
    """``core._certify_interior`` by minimizing c.w over the base of the dual
    cone where Yw >= 0 sums to 1, insisting on a positive optimum."""
    from conequant import NotInterior
    from conequant.core import format_rational
    from conequant.lp import OPTIMAL, LinearProgram, simplex_solve

    d = cone.dim
    col_sums = tuple(sum((g[j] for g in cone.generators), Fraction(0)) for j in range(d))
    lp = LinearProgram(
        sense="min",
        objective=c,
        rows=tuple(cone.generators) + (col_sums,),
        relations=(">=",) * cone.r + ("=",),
        rhs=tuple(Fraction(0) for _ in range(cone.r)) + (Fraction(1),),
        bounds=tuple((None, None) for _ in range(d)),
    )
    outcome = simplex_solve(lp)
    if outcome.status != OPTIMAL or outcome.value <= 0:
        raise NotInterior(
            f"({', '.join(map(format_rational, c))}) is not an interior point of the cone"
        )


def lp_remove_redundant(p):
    """``polyhedra.remove_redundant`` by one LP per halfspace: h is kept iff
    minimizing its left-hand side over the kept and later rows falls strictly
    below its offset or is unbounded below."""
    from conequant import Halfspace, InternalInvariantError, Polyhedron
    from conequant.lp import INFEASIBLE, OPTIMAL, LinearProgram, simplex_solve

    if p.is_empty:
        return Polyhedron.empty(p.dim)
    seen = set()
    ordered = []
    for h in sorted((h.canonical() for h in p.halfspaces), key=Halfspace.key):
        if h.key() not in seen:
            seen.add(h.key())
            ordered.append(h)
    kept = []
    for i, h in enumerate(ordered):
        others = kept + ordered[i + 1 :]
        lp = LinearProgram(
            sense="min",
            objective=h.normal,
            rows=tuple(o.normal for o in others),
            relations=(">=",) * len(others),
            rhs=tuple(o.offset for o in others),
            bounds=tuple((None, None) for _ in range(p.dim)),
        )
        outcome = simplex_solve(lp)
        if outcome.status == INFEASIBLE:
            raise InternalInvariantError("nonempty polyhedron lost feasibility")
        if outcome.status != OPTIMAL or outcome.value < h.offset:
            kept.append(h)
    return Polyhedron.from_hrep(kept, dim=p.dim)


def solution_entries(sol):
    """A dual solution's entries as (w, t) pairs of rationals, read from its
    integer rows in entry order."""
    from conequant.vlp import entry_pairs, entry_records

    return entry_pairs(entry_records(sol.rows, sol.basis.c))


def solution_cuts(sol):
    """The Benson cuts of a dual solution as halfspaces
    value' >= w(coords').y with value coefficient 1, in the order they were
    made: each cut row (r..., scale, r0) over (coords, value, 1) divided by
    its value coefficient."""
    from conequant import Halfspace

    return [
        Halfspace(tuple(Fraction(x, r[-2]) for x in r[:-2]) + (1,), Fraction(-r[-1], r[-2]))
        for r in sol.cut_rows
    ]
