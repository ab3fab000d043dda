"""Property tests of the direct Tukey depth over small integer clouds,
including the degenerate ones: duplicate points, collinear and coplanar
clouds, N = 1 and d = 1.  The examples are fixed by the derandomized
hypothesis profile in conftest.py."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conequant import DataCloud, tukey_depth
from conftest import assert_depth_brackets

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


def depth(points, z) -> int:
    return tukey_depth(DataCloud.from_rows(points), z)


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
