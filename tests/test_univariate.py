from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conequant import (
    DataCloud,
    DimensionMismatch,
    IntegralNp,
    OPTIMAL,
    QuantileLevel,
    build_lp_dual,
    minimize_pinball_loss,
    pinball_loss,
    project_data,
    quantile_direct,
    quantile_region,
    simplex_solve,
    tukey_region,
    validate_cone,
)
import conequant.univariate as univariate
from conequant._linalg import common_denominator
from conequant.univariate import (
    Projector,
    greedy_cut,
    key_quantile_and_loss,
    support_summer,
)
from conftest import (
    build_lp,
    dense_support_sum,
    greedy_masses,
    greedy_uv,
    loop_quantile_and_loss,
    random_cloud,
    random_direction,
    random_valid_level,
    scalar_cloud,
)


def sample(*values) -> DataCloud:
    return scalar_cloud(values)


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
            s = scalar_cloud(values)
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
            s = scalar_cloud(values)
            lvl = random_valid_level(rng, s.n)
            t = Fraction(rng.randint(-25, 25), rng.randint(1, 4))
            assert pinball_loss(s, lvl, t) >= 0

    def test_convex_in_t(self):
        rng = random.Random(23)
        for _ in range(200):
            values = [rng.randint(-20, 20) for _ in range(rng.randint(1, 10))]
            s = scalar_cloud(values)
            lvl = random_valid_level(rng, s.n)
            t1 = Fraction(rng.randint(-25, 25), rng.randint(1, 4))
            t2 = Fraction(rng.randint(-25, 25), rng.randint(1, 4))
            lam = Fraction(rng.randint(1, 9), 10)
            mid = lam * t1 + (1 - lam) * t2
            assert pinball_loss(s, lvl, mid) <= lam * pinball_loss(
                s, lvl, t1
            ) + (1 - lam) * pinball_loss(s, lvl, t2)


def right_slope(s: DataCloud, lvl: QuantileLevel, t) -> Fraction:
    """The pinball loss's slope just right of t, over a step of 1/2: its
    right derivative #{x <= t} - N p for integer data and integer t."""
    h = Fraction(1, 2)
    return (pinball_loss(s, lvl, t + h) - pinball_loss(s, lvl, t)) / h


class TestRightDerivative:
    def test_spot_values(self):
        assert right_slope(sample(1, 2, 3), level("1/2", 3), 2) == Fraction(1, 2)
        assert right_slope(sample(1, 2, 3), level("1/2", 3), 0) == Fraction(-3, 2)
        assert right_slope(sample(0, 1), level("1/4", 2), 0) == Fraction(1, 2)

    def test_sign_pattern_identifies_minimizer(self):
        rng = random.Random(24)
        for _ in range(200):
            values = [rng.randint(-15, 15) for _ in range(rng.randint(1, 10))]
            s = scalar_cloud(values)
            lvl = random_valid_level(rng, s.n)
            t_star, _ = minimize_pinball_loss(s, lvl)
            assert right_slope(s, lvl, t_star) > 0
            for v in values:
                if v < t_star:
                    assert right_slope(s, lvl, v) < 0


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
            s = scalar_cloud(values)
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


# each univariate function with its other arguments fixed
UNIVARIATE = {
    "quantile_direct": quantile_direct,
    "pinball_loss": lambda cloud, lvl: pinball_loss(cloud, lvl, 0),
    "minimize_pinball_loss": minimize_pinball_loss,
}


@pytest.mark.parametrize("call", UNIVARIATE.values(), ids=UNIVARIATE)
class TestSampleChecks:
    def test_level_for_another_n(self, call):
        # N is checked before N*p: 4 * 1/2 is integral
        with pytest.raises(DimensionMismatch, match="level is for N=4 but the cloud has 3"):
            call(sample(1, 2, 3), level("1/2", 4))

    def test_two_columns(self, call):
        cloud = DataCloud.from_rows([[1, 2], [3, 4]])
        with pytest.raises(DimensionMismatch, match="one column, the cloud has 2"):
            call(cloud, level("1/3", 2))
        # the column count is checked before N
        with pytest.raises(DimensionMismatch, match="one column, the cloud has 2"):
            call(cloud, level("1/2", 4))

    def test_empty_sample(self, call):
        with pytest.raises(DimensionMismatch, match="at least one point"):
            call(sample(), level("1/3", 1))


def greedy_value(cloud, w, u, v) -> Fraction:
    """sum_i (w.x_i)(u_i - v_i)."""
    return sum(z * (a - b) for z, a, b in zip(project_data(cloud, w), u, v))


class TestGreedyScalarization:
    def test_two_point_example(self):
        cloud = DataCloud.from_rows([[0], [1]])
        u, v = greedy_uv(cloud, level("1/4", 2), (1,))
        assert u == [0, Fraction(1, 4)]
        assert v == [Fraction(1, 4), 0]
        assert greedy_value(cloud, (1,), u, v) == Fraction(1, 4)
        assert dense_support_sum(cloud.points, u, v) == (Fraction(1, 4),)

    def test_zero_direction(self):
        cloud = DataCloud.from_rows([[3, 1], [2, 2]])
        u, v = greedy_uv(cloud, level("1/3", 2), (0, 0))
        assert greedy_value(cloud, (0, 0), u, v) == 0

    def test_diagonal_example(self):
        cloud = DataCloud.from_rows([[0, 0], [1, 1]])
        w = (Fraction(1, 2), Fraction(1, 2))
        u, v = greedy_uv(cloud, level("3/4", 2), w)
        s = scalar_cloud([0, 1])
        assert greedy_value(cloud, w, u, v) == minimize_pinball_loss(s, level("3/4", 2))[1]

    def test_feasibility_invariants(self):
        rng = random.Random(26)
        for _ in range(100):
            cloud = random_cloud(rng, rng.randint(1, 12), rng.randint(1, 3), span=20)
            lvl = random_valid_level(rng, cloud.n, max_den=30)
            w = random_direction(rng, cloud.dim)
            u, v = greedy_uv(cloud, lvl, w)
            assert all(0 <= ui <= lvl.p for ui in u)
            assert all(0 <= vi <= 1 - lvl.p for vi in v)
            assert sum(u) == sum(v)
            # the support point pairs with w to the value
            y = dense_support_sum(cloud.points, u, v)
            assert greedy_value(cloud, w, u, v) == sum(a * b for a, b in zip(w, y))


class TestStrongDuality:
    def test_greedy_equals_simplex_equals_minimum(self):
        rng = random.Random(27)
        for _ in range(60):
            cloud = random_cloud(rng, rng.randint(1, 10), rng.randint(1, 3), span=15)
            lvl = random_valid_level(rng, cloud.n, max_den=20)
            w = random_direction(rng, cloud.dim)
            greedy = greedy_value(cloud, w, *greedy_uv(cloud, lvl, w))
            s = scalar_cloud(project_data(cloud, w))
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
            y = dense_support_sum(cloud.points, *greedy_uv(cloud, lvl, w))
            for _ in range(10):
                w2 = random_direction(rng, cloud.dim)
                s2 = scalar_cloud(project_data(cloud, w2))
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
        rows, den = scalar_cloud(vals).int_form
        keys = [x for (x,) in rows]
        assert [Fraction(x, den) for x in keys] == vals
        expected = sorted(range(len(vals)), key=lambda i: (vals[i], i))
        projector = Projector([(x,) for x in keys])
        slots, shift = projector.keys((1,))
        ka = sorted(slots)
        tau = projector.tau
        assert [v & ((1 << tau) - 1) for v in ka] == expected
        assert [(v >> tau) - shift for v in ka] == sorted(keys)


@pytest.mark.parametrize("span", [9, 10**12])
def test_kth_count_pinball_match_fractions(span):
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(1, 10)
        vals = random_values(rng, n, span)
        sample = scalar_cloud(vals)
        rows, den = sample.int_form
        keys = [x for (x,) in rows]
        p = Fraction(rng.randint(1, 7), 8)
        level = QuantileLevel(p, n)
        expect_kth = sorted(vals)[level.ceil_np - 1]
        t, loss = key_quantile_and_loss(sorted(keys), 0, level, sum(keys))
        assert Fraction(t, den) == expect_kth
        assert Fraction(loss, den * p.denominator) == pinball(vals, p, expect_kth)
        # thresholds on, between and outside the values
        for t in (vals[rng.randrange(n)] + Fraction(rng.randint(-2, 2), 3),
                  min(vals) - 1, max(vals)):
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
        wn, wden = common_denominator(w)
        projector = Projector(rows)
        slots, shift = projector.keys(wn)
        kden = wden * den
        expected = [sum(a * b for a, b in zip(row, w)) for row in points]
        assert [Fraction((x >> projector.tau) - shift, kden) for x in slots] == expected


# The packed projection's slot is a 64-bit word holding (W.x_i + B) 2^tau + i,
# tau = bit_length(N(N-1)/2): B = 2^(63 - tau) - 1 is the widest packed
# bound, whose largest slot is 2^64 - 2^(tau+1) + N - 1, and B = 2^(63 - tau)
# the narrowest direct one.
EDGES = ("packed", "direct")


def edge_bound(n: int, edge: str) -> int:
    tau = (n * (n - 1) // 2).bit_length()
    return 2 ** (63 - tau) - (edge == "packed")


@st.composite
def projector_case(draw):
    """An integer cloud of N = 1 to 8 rows in d = 1 to 4, drawn from a pool of
    rows so that duplicates occur, and a weight with some zero components,
    with every entry within a span of 9 or 10^11 and often at one of its
    ends.  With ``edge`` drawn, the weight is at most 10^6 in magnitude, and
    a column of units (max |x| = 1) is added with its weight set so that the
    bound B = sum_j |W_j| max_i |x_ij| is exactly the widest packed or the
    narrowest direct bound for N rows."""

    def entry(span):
        return st.integers(-span, span) | st.sampled_from([-span, span])

    span = draw(st.sampled_from([9, 10**11]))
    d = draw(st.integers(1, 4))
    row = st.tuples(*[entry(span)] * d)
    pool = draw(st.lists(row, min_size=1, max_size=4))
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    edge = draw(st.sampled_from((None,) + EDGES))
    w_span = span if edge is None else min(span, 10**6)
    weight = draw(st.lists(entry(w_span) | st.just(0), min_size=d, max_size=d))
    if edge is not None:
        units = draw(st.lists(st.integers(-1, 1), min_size=len(rows), max_size=len(rows)))
        units[draw(st.integers(0, len(rows) - 1))] = draw(st.sampled_from([-1, 1]))
        rows = [(*r, u) for r, u in zip(rows, units)]
        rest = sum(abs(w) * max(abs(r[j]) for r in rows) for j, w in enumerate(weight))
        weight.append(draw(st.sampled_from([-1, 1])) * (edge_bound(len(rows), edge) - rest))
    return rows, tuple(weight)


def test_projector_keys_are_the_dot_products():
    """The tagged slots hold the integer dot products plus the shift in
    their high bits and their index in the low tau bits, below 2^64 on the
    packed branch; sorted, they hold ``sorted(keys)`` above and the stable
    index order below, and the sum of any subset, shifted down by tau, is
    its key sum.  The shift is the bound B on the packed branch and 0 on the
    direct one, and both branches are reached, at the edge bounds too."""
    reached = set()

    @settings(max_examples=300)
    @given(projector_case(), st.randoms(use_true_random=False))
    @example(([(1,), (-1,), (0,)], (edge_bound(3, "packed"),)), random.Random(0))
    @example(([(1,), (-1,), (0,)], (-edge_bound(3, "direct"),)), random.Random(0))
    @example(([(5, -7)], (0, 0)), random.Random(0))
    def check(case, rng):
        rows, weight = case
        n = len(rows)
        bound = sum(abs(w) * max(abs(r[j]) for r in rows) for j, w in enumerate(weight))
        keys = [sum(a * b for a, b in zip(r, weight)) for r in rows]
        projector = Projector(rows)
        tau = projector.tau
        assert tau == (n * (n - 1) // 2).bit_length()
        slots, shift = projector.keys(weight)
        packed = bound < 2 ** (63 - tau)
        assert shift == (bound if packed else 0)
        if packed:
            assert all(0 <= v < 2**64 for v in slots)
        assert slots == [((k + shift) << tau) + i for i, k in enumerate(keys)]
        ka = sorted(slots)
        assert [(v >> tau) - shift for v in ka] == sorted(keys)
        assert [v & ((1 << tau) - 1) for v in ka] == sorted(range(n), key=keys.__getitem__)
        for _ in range(4):
            subset = rng.sample(ka, rng.randint(0, n))
            assert sum(subset) >> tau == sum(v >> tau for v in subset)
        edge = next((e for e in EDGES if bound == edge_bound(n, e)), None)
        reached.add((packed, edge))

    check()
    assert {(True, "packed"), (False, "direct"), (True, None), (False, None)} <= reached


def _refuse_direct(*args):
    raise AssertionError("the projection fell back to the direct products")


# (N, d, k, cone generators or None for a Tukey region)
PACKED_SOLVES = {
    "planar-tukey": (150, 2, 30, None),
    "planar-cone": (150, 2, 40, [[2, 1], [-1, 3]]),
    "tukey-d4": (12, 4, 2, None),
}


@pytest.mark.parametrize("case", PACKED_SOLVES)
def test_benchmark_sized_solves_project_packed(monkeypatch, case):
    """Every vertex of a planar N = 150 solve and of a d = 4 Tukey solve over
    coordinates in [-20, 20] projects through the packed branch, into
    64-bit slots tagged with their indices."""
    rng = random.Random(0)
    n, d, k, cone = PACKED_SOLVES[case]
    cloud = DataCloud.from_rows([[rng.randint(-20, 20) for _ in range(d)] for _ in range(n)])
    lvl = QuantileLevel(Fraction(2 * k - 1, 2 * n), n)
    monkeypatch.setattr(univariate, "_direct_keys", _refuse_direct)
    real = Projector.keys
    projected = []

    def checked(self, weight):
        slots, shift = real(self, weight)
        assert self.tau > 0
        assert [v & ((1 << self.tau) - 1) for v in slots] == list(range(n))
        assert max(slots) < 2**64
        projected.append(shift)
        return slots, shift

    monkeypatch.setattr(Projector, "keys", checked)
    if cone is None:
        result = tukey_region(cloud, lvl)
    else:
        result = quantile_region(cloud, lvl, validate_cone(cone))
    assert result.stats.scalarizations > 0
    assert projected


def test_one_sort_per_scalarized_vertex(monkeypatch):
    """A planar N = 150 solve sorts once per scalarized vertex: the Benson
    loop and the scalar layer together call ``sorted`` as often as
    ``key_quantile_and_loss``, also at the vertices that need a cut."""
    import conequant.vlp as vlp

    calls = {"sorted": 0, "loss": 0, "cut": 0}

    def counting(name, real):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapped

    for module in (vlp, univariate):
        monkeypatch.setattr(module, "sorted", counting("sorted", sorted), raising=False)
    monkeypatch.setattr(vlp, "key_quantile_and_loss", counting("loss", vlp.key_quantile_and_loss))
    monkeypatch.setattr(vlp, "greedy_cut", counting("cut", vlp.greedy_cut))
    rng = random.Random(0)
    n = 150
    cloud = DataCloud.from_rows([[rng.randint(-20, 20) for _ in range(2)] for _ in range(n)])
    result = tukey_region(cloud, QuantileLevel(Fraction(59, 2 * n), n))
    assert calls["cut"] > 0
    assert calls["sorted"] == calls["loss"]
    assert calls["loss"] + calls["cut"] == result.stats.scalarizations


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
    gu, gv = greedy_uv(cloud, QuantileLevel(Fraction(p), 4), (1, 0))
    assert gu == list(map(Fraction, u))
    assert gv == list(map(Fraction, v))
    assert dense_support_sum(cloud.points, gu, gv) == tuple(map(Fraction, y))
    assert greedy_value(cloud, (1, 0), gu, gv) == Fraction(3, 4)


# every level a/b with b <= 20, integral N p included
SMALL_LEVELS = sorted({Fraction(a, b) for b in range(2, 21) for a in range(1, b)})


@st.composite
def tied_keys_and_rows(draw):
    """1 to 40 keys in -s..s for s drawn from 0 to 3, so that ties are
    frequent and tie runs long, and integer rows in d = 1 to 3 that the
    masses are summed over."""
    n = draw(st.integers(1, 40))
    spread = draw(st.integers(0, 3))
    keys = draw(st.lists(st.integers(-spread, spread), min_size=n, max_size=n))
    d = draw(st.integers(1, 3))
    row = st.tuples(*[st.integers(-9, 9)] * d)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    return keys, rows


def test_greedy_cut_matches_the_loop():
    """The closed-form greedy cut gives the loop's dense (u, v) and support
    sum, and ``key_quantile_and_loss`` the loop's quantile key and loss
    numerator, at every level with denominator <= 20, on the packed slots
    and on the direct ones of a wide weight.  The cut lists only the
    shorter of its u and v sides, the untransferred middle and the longer
    side's remainder receiver.  The drawn cases reach every branch: a tie
    across the gap at M0 - 1, the least mass at which the two receivers'
    positions meet, either side shorter, a nonempty middle, N = 1, and the
    loss's shorter slice below and above its split on both projector
    branches."""
    reached = set()

    @settings(max_examples=150)
    @given(tied_keys_and_rows())
    @example(([4], [(1, -2)]))
    def check(case):
        keys, rows = case
        n = len(keys)
        asc = sorted(range(n), key=lambda i: (keys[i], i))
        line = DataCloud.from_rows([[k] for k in keys])
        # a unit column: weight (1, 0) packs the keys, and (1, 2^63) takes
        # the direct products, with every key offset by 2^63
        projector = Projector([(k, 1) for k in keys])
        tau = projector.tau
        forms = []
        for branch, weight in (("packed", (1, 0)), ("direct", (1, 2**63))):
            slots, shift = projector.keys(weight)
            assert shift == (max(map(abs, keys)) if branch == "packed" else 0)
            offset = shift + weight[1]
            forms.append((branch, sorted(slots), offset, projector.key_total(weight, shift)))
        if n == 1:
            reached.add("N = 1")
        summers = {pd: support_summer(rows, pd) for pd in range(2, 21)}
        for p in SMALL_LEVELS:
            level = QuantileLevel(p, n)
            u, v = greedy_masses(keys, asc, p)
            pd = p.denominator
            assert greedy_uv(line, level, (1,)) == (
                [Fraction(a, pd) for a in u], [Fraction(b, pd) for b in v]
            ), (keys, p)
            mass, nu, nv = sum(u), sum(map(bool, u)), sum(map(bool, v))
            cu, cv = p.numerator, pd - p.numerator
            m0 = next(m for m in range(n * pd + 1) if m // cu + m // cv >= n - 1)
            if mass < m0:
                reached.add("tie at M0 - 1")
            if mass:
                reached.add("u side shorter" if nu <= nv else "v side shorter")
                if nu + nv < n:
                    reached.add("nonempty middle")
            expect_y = dense_support_sum(rows, u, v)
            expect_t, expect_loss = loop_quantile_and_loss(keys, asc, level)
            below = sum(1 for k in keys if k < expect_t)
            for branch, ka, offset, total in forms:
                rest, groups = greedy_cut(ka, tau, p)
                # the shorter side, the middle and the longer side's remainder
                longer_rem = (mass % cv if nu <= nv else mass % cu) > 0
                listed = sum(len(idx) for idx, _ in groups)
                assert listed == (min(nu, nv) + n - nu - nv + longer_rem if mass else 0)
                assert summers[pd]((rest, groups)) == expect_y
                t, loss = key_quantile_and_loss(ka, tau, level, total)
                assert (t - offset, loss) == (expect_t, expect_loss)
                reached.add((branch, "below" if 2 * below <= n else "above"))

    check()
    assert reached == {
        "tie at M0 - 1", "u side shorter", "v side shorter", "nonempty middle", "N = 1",
        ("packed", "below"), ("packed", "above"), ("direct", "below"), ("direct", "above"),
    }
