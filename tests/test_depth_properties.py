"""Property tests of the direct Tukey and cone depths over small integer
clouds, including the degenerate ones: duplicate points, collinear and
coplanar clouds, N = 1 and d = 1, and matches against brute-force counts
in the plane and an LP count in d = 3 and 4.  The examples are fixed by
the derandomized hypothesis profile in conftest.py."""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conequant import DataCloud, tukey_depth, validate_cone
from conequant.core import homogeneous_point
from conequant.lp import OPTIMAL, LinearProgram, simplex_solve
from conequant.quantile import _depth
from conftest import assert_depth_brackets, frac_rank

F = Fraction
EXAMPLES = settings(max_examples=30)


@st.composite
def cloud_and_query(draw, max_dim=3):
    """Up to 7 points in d <= max_dim with coordinates in [-4, 4], and a
    query that is a data point or a rational point around the cloud."""
    dim = draw(st.integers(1, max_dim))
    point = st.tuples(*[st.integers(-4, 4)] * dim)
    points = draw(st.lists(point, min_size=1, max_size=7))
    query = draw(
        st.one_of(
            st.sampled_from(points),
            st.tuples(*[st.fractions(-5, 5, max_denominator=3)] * dim),
        )
    )
    return points, tuple(map(F, query))


@st.composite
def nested_cones(draw, dim):
    """Cones C inside C': C' is simplicial, and each generator of C is a
    nonnegative integer combination of the generators of C'."""
    row = st.tuples(*[st.integers(-3, 3)] * dim)
    outer = draw(st.lists(row, min_size=dim, max_size=dim))
    assume(frac_rank(outer) == dim)
    weights = st.tuples(*[st.integers(0, 3)] * dim)
    inner = [
        tuple(sum(a * g[j] for a, g in zip(ws, outer)) for j in range(dim))
        for ws in draw(st.lists(weights, min_size=dim, max_size=dim + 2))
    ]
    assume(frac_rank(inner) == dim)
    return validate_cone(inner), validate_cone(outer)


def depth(points, z) -> int:
    return tukey_depth(DataCloud.from_rows(points), z)


def cone_depth(points, cone, z) -> int:
    cloud = DataCloud.from_rows(points)
    return _depth(cloud, homogeneous_point(z, cloud.dim), cone.generators)


@EXAMPLES
@given(cloud_and_query(), st.data())
def test_translation_invariant(case, data):
    points, z = case
    shift = data.draw(st.tuples(*[st.integers(-9, 9)] * len(z)))
    moved = [tuple(a + s for a, s in zip(p, shift)) for p in points]
    assert depth(moved, tuple(a + s for a, s in zip(z, shift))) == depth(points, z)


@EXAMPLES
@given(cloud_and_query(), st.fractions(F(1, 5), 7, max_denominator=5))
def test_positive_scaling_invariant(case, alpha):
    points, z = case
    scaled = [tuple(alpha * a for a in p) for p in points]
    assert depth(scaled, tuple(alpha * a for a in z)) == depth(points, z)


@EXAMPLES
@given(cloud_and_query(), st.data())
def test_coordinate_permutation_invariant(case, data):
    points, z = case
    perm = data.draw(st.permutations(range(len(z))))
    permuted = [tuple(p[j] for j in perm) for p in points]
    assert depth(permuted, tuple(z[j] for j in perm)) == depth(points, z)


@EXAMPLES
@given(cloud_and_query(), st.data())
def test_point_order_invariant(case, data):
    points, z = case
    assert depth(data.draw(st.permutations(points)), z) == depth(points, z)


@EXAMPLES
@given(cloud_and_query())
def test_doubled_cloud_doubles_depth(case):
    points, z = case
    assert depth(points + points, z) == 2 * depth(points, z)


@EXAMPLES
@given(cloud_and_query())
def test_data_points_have_depth_at_least_one(case):
    points, _ = case
    for p in points:
        assert depth(points, p) >= 1


@EXAMPLES
@given(cloud_and_query(), st.data())
def test_outside_bounding_box_has_depth_zero(case, data):
    points, z = case
    j = data.draw(st.integers(0, len(z) - 1))
    past = data.draw(st.fractions(F(1, 7), 3, max_denominator=7))
    edge = data.draw(st.sampled_from([min, max]))
    bound = edge(p[j] for p in points)
    out = list(z)
    out[j] = bound + past if edge is max else bound - past
    assert depth(points, tuple(out)) == 0


@EXAMPLES
@given(cloud_and_query(max_dim=2))
def test_matches_region_sweep_up_to_the_plane(case):
    points, z = case
    cloud = DataCloud.from_rows(points)
    assert_depth_brackets(cloud, z, tukey_depth(cloud, z))


def brute_planar_depth(points, z) -> int:
    """Planar Tukey depth by brute force, with no angular sort: the least
    #{i : w.y_i <= 0}, y_i = x_i - z scaled to integers, over a direction w
    strictly inside every open arc between consecutive normals of the y_i.

    The normals rot90(y) and rot270(y) come in opposite pairs, so no arc
    is longer than a half turn.  n + m lies strictly inside the arc from n to
    a next normal m when that arc is shorter, and rot90(n) when it is a half
    turn; (1, 0) covers a cloud with no normal.  Every candidate's count is
    that of a real closed halfplane through z, so none undercuts the depth.
    """
    den = lcm(*(F(c).denominator for c in (*z, *(c for p in points for c in p))))
    ys = [tuple(int((F(a) - F(b)) * den) for a, b in zip(p, z)) for p in points]
    normals = {n for a, b in ys if (a, b) != (0, 0) for n in ((-b, a), (b, -a))}
    dirs = {(1, 0)} | {(-b, a) for a, b in normals}
    dirs |= {(n[0] + m[0], n[1] + m[1]) for n in normals for m in normals}
    dirs.discard((0, 0))
    return min(sum(1 for y in ys if w[0] * y[0] + w[1] * y[1] <= 0) for w in dirs)


@st.composite
def planar_cloud_and_query(draw):
    """Up to 9 planar points with coordinates in [-3, 3], or on one line,
    so that duplicate points, collinear clouds and sweep events on the axes
    (points level with the query or straight above it) are common; the
    query is a data point, a lattice point or a rational point."""
    coord = st.integers(-3, 3)
    if draw(st.booleans()):
        points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=9))
    else:
        (a, b), (u, v) = draw(st.tuples(coord, coord)), draw(st.tuples(coord, coord))
        ts = draw(st.lists(coord, min_size=1, max_size=9))
        points = [(a + t * u, b + t * v) for t in ts]
    query = draw(
        st.one_of(
            st.sampled_from(points),
            st.tuples(coord, coord),
            st.tuples(*[st.fractions(-4, 4, max_denominator=3)] * 2),
        )
    )
    return points, tuple(map(F, query))


@settings(max_examples=300)
@given(planar_cloud_and_query())
@example(([(0, 0), (0, 1), (0, -1), (1, 0)], (F(0), F(0))))
@example(([(1, 1), (1, -2), (-1, 0), (3, 0)], (F(1), F(0))))
def test_planar_sweep_matches_brute_force(case):
    points, z = case
    assert depth(points, z) == brute_planar_depth(points, z)


@EXAMPLES
@given(cloud_and_query(), st.data())
def test_cone_depth_monotone_in_the_cone(case, data):
    points, z = case
    inner, outer = data.draw(nested_cones(len(z)))
    assert cone_depth(points, inner, z) <= cone_depth(points, outer, z)


@EXAMPLES
@given(cloud_and_query(), st.data())
def test_tukey_depth_at_most_cone_depth(case, data):
    points, z = case
    cone, _ = data.draw(nested_cones(len(z)))
    assert depth(points, z) <= cone_depth(points, cone, z)


@EXAMPLES
@given(cloud_and_query(), st.data())
def test_cone_depth_translation_invariant(case, data):
    points, z = case
    cone, _ = data.draw(nested_cones(len(z)))
    shift = data.draw(st.tuples(*[st.integers(-9, 9)] * len(z)))
    moved = [tuple(a + s for a, s in zip(p, shift)) for p in points]
    moved_z = tuple(a + s for a, s in zip(z, shift))
    assert cone_depth(moved, cone, moved_z) == cone_depth(points, cone, z)


@EXAMPLES
@given(cloud_and_query(), st.fractions(F(1, 5), 7, max_denominator=5), st.data())
def test_cone_depth_positive_scaling_invariant(case, alpha, data):
    points, z = case
    cone, _ = data.draw(nested_cones(len(z)))
    scaled = [tuple(alpha * a for a in p) for p in points]
    scaled_z = tuple(alpha * a for a in z)
    assert cone_depth(scaled, cone, scaled_z) == cone_depth(points, cone, z)


def lp_depth(points, z, generators) -> int:
    """Depth by sign vectors, with no sweep and no projection: the points
    equal to z, plus the least #{i : s_i = -1} over the sign vectors s of
    the nonzero y_i = x_i - z for which some w has s_i y_i.w >= 1 for every
    i and g.w >= 1 for every nonzero generator g, decided by the simplex.

    Such a w lies in an open cell of the arrangement {w.y_i = 0} inside the
    dual cone, where #{i : w.y_i <= 0} is the number of -1 signs, and by
    scaling every open cell inside the dual cone has one."""
    ys = [tuple(a - b for a, b in zip(p, z)) for p in points]
    nonzero = [y for y in ys if any(y)]
    gens = [g for g in generators if any(g)]
    dim = len(z)
    for signs in sorted(product((1, -1), repeat=len(nonzero)), key=lambda s: s.count(-1)):
        rows = [tuple(s * a for a in y) for s, y in zip(signs, nonzero)] + gens
        lp = LinearProgram(
            sense="min",
            objective=(0,) * dim,
            rows=tuple(rows),
            relations=(">=",) * len(rows),
            rhs=(1,) * len(rows),
            bounds=((None, None),) * dim,
        )
        if not rows or simplex_solve(lp).status == OPTIMAL:
            return len(ys) - len(nonzero) + signs.count(-1)
    raise AssertionError("no open cell inside the dual cone")


@st.composite
def spatial_case(draw):
    """2 to 6 points in d = 3 or 4 with coordinates in [-3, 3], in general
    position or on an affine flat of dimension 1 or 2, often repeated; a
    query that is a data point, the midpoint of two, which lies on their
    flat, or any rational point; and no cone, or a validated cone, sometimes
    with a zero generator."""
    dim = draw(st.integers(3, 4))
    flat = draw(st.sampled_from([dim, 1, 2, dim]))
    if flat == dim:
        points = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim), min_size=2, max_size=6))
    else:
        unit = st.tuples(*[st.integers(-1, 1)] * dim)
        base, dirs = draw(unit), draw(st.lists(unit, min_size=flat, max_size=flat))
        coefs = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * flat), min_size=2, max_size=6))
        points = [
            tuple(b + sum(t * u[j] for t, u in zip(ts, dirs)) for j, b in enumerate(base))
            for ts in coefs
        ]
    points += points[: draw(st.integers(0, 6 - len(points)))]
    point = st.sampled_from(points)
    query = draw(
        st.one_of(
            point.map(lambda p: tuple(map(F, p))),
            st.tuples(point, point).map(lambda pq: tuple(F(a + b, 2) for a, b in zip(*pq))),
            st.tuples(*[st.fractions(-3, 3, max_denominator=3)] * dim),
        )
    )
    generators = ()
    if draw(st.booleans()):
        generators = draw(nested_cones(dim))[0].generators
        if draw(st.booleans()):
            generators += ((0,) * dim,)
    return points, query, generators


SIMPLEX4 = [(3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3), (-3, -3, -3, -3), (1, -1, 2, 0)]
ORTHANT4 = validate_cone([*(tuple(int(i == j) for j in range(4)) for i in range(4)), (0,) * 4])
CLOUD3 = [(1, 2, -3), (-2, 1, 0), (3, -1, 1), (0, 0, 3), (-1, -2, -2), (2, 2, 2)]
CONE3 = validate_cone([(1, 1, 0), (0, 1, 1), (1, 0, 1)])


@settings(max_examples=120)
@given(spatial_case())
@example((SIMPLEX4, (F(1, 2), F(1, 3), F(1, 2), F(0)), ORTHANT4.generators))
@example((SIMPLEX4, tuple(map(F, SIMPLEX4[5])), ()))
@example((CLOUD3, (F(1, 3), F(1, 3), F(1, 2)), CONE3.generators))
def test_depth_matches_lp_count_in_3d_and_4d(case):
    points, z, generators = case
    cloud = DataCloud.from_rows(points)
    count = _depth(cloud, homogeneous_point(z, cloud.dim), generators)
    assert count == lp_depth(points, z, generators)
