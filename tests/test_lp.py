from __future__ import annotations

import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from conequant import (
    DataCloud,
    INFEASIBLE,
    LinearProgram,
    MalformedProgram,
    OPTIMAL,
    QuantileLevel,
    UNBOUNDED,
    build_lp_dual,
    quantile_direct,
    simplex_solve,
)
from conftest import build_lp, random_cloud, random_valid_level

F = Fraction

# sha256 of the outcome reprs over TestPinnedPivots' corpus, as the dense
# Fraction tableau solved it
PINNED_OUTCOMES_SHA = "6f17ed3e662008f2ea3f50a4fb88d5371204d0aedd7d9c207724113ef1776f8b"


def box_lp(sense, c, bounds):
    return LinearProgram(sense, c, (), (), (), bounds)


def random_program(rng):
    """A program of up to 6 variables and 5 rows, every relation, with boxed,
    one-sided, free and fixed bounds; every number's denominator is 1, 2, 3
    or 7."""

    def q(span):
        return F(rng.randint(-span, span), rng.choice((1, 2, 3, 7)))

    def bound():
        lo, hi = sorted((q(5), q(5)))
        return rng.choice(((lo, hi), (lo, None), (None, hi), (None, None), (lo, lo)))

    n = rng.randint(1, 6)
    m = rng.randint(0, 5)
    return LinearProgram(
        sense=rng.choice(("min", "max")),
        objective=tuple(q(6) for _ in range(n)),
        rows=tuple(tuple(q(4) for _ in range(n)) for _ in range(m)),
        relations=tuple(rng.choice(("<=", "=", ">=")) for _ in range(m)),
        rhs=tuple(q(8) for _ in range(m)),
        bounds=tuple(bound() for _ in range(n)),
    )


class TestSimplexBasics:
    def test_bounded_maximum(self):
        out = simplex_solve(box_lp("max", (F(1),), ((F(0), F(1)),)))
        assert out.status == OPTIMAL
        assert out.value == 1
        assert out.x == (F(1),)

    def test_unbounded(self):
        out = simplex_solve(box_lp("max", (F(1),), ((F(0), None),)))
        assert out.status == UNBOUNDED
        assert out.value is None

    def test_infeasible_with_farkas(self):
        lp = LinearProgram(
            "min", (F(0),), ((F(1),), (F(1),)), (">=", "<="), (F(1), F(0)),
            ((None, None),),
        )
        out = simplex_solve(lp)
        assert out.status == INFEASIBLE
        y = out.y
        # Farkas: the combination y.rows vanishes while y.rhs stays positive
        combo = sum(yi * lp.rows[i][0] for i, yi in enumerate(y))
        assert combo == 0
        assert y[0] * lp.rhs[0] + y[1] * lp.rhs[1] > 0
        assert y[0] >= 0 and y[1] <= 0  # signs match the row senses

    def test_malformed_rejected(self):
        with pytest.raises(MalformedProgram):
            LinearProgram("max", (F(1),), ((F(1), F(2)),), ("<=",), (F(1),), ((F(0), None),))
        with pytest.raises(MalformedProgram):
            box_lp("max", (F(1),), ((F(2), F(1)),))
        with pytest.raises(MalformedProgram):
            box_lp("best", (F(1),), ((F(0), F(1)),))

    def test_equality_and_free_variables(self):
        lp = LinearProgram(
            "min",
            (F(1), F(1)),
            ((F(1), F(1)),),
            ("=",),
            (F(2),),
            ((None, None), (F(0), None)),
        )
        out = simplex_solve(lp)
        assert out.status == OPTIMAL
        assert out.value == 2


class TestCertificates:
    @staticmethod
    def check_certificates(lp, out):
        m, n = lp.nrows, lp.nvars
        # primal feasibility
        for i in range(m):
            lhs = sum(lp.rows[i][j] * out.x[j] for j in range(n))
            if lp.relations[i] == "<=":
                assert lhs <= lp.rhs[i]
            elif lp.relations[i] == ">=":
                assert lhs >= lp.rhs[i]
            else:
                assert lhs == lp.rhs[i]
        for j, (lo, hi) in enumerate(lp.bounds):
            if lo is not None:
                assert out.x[j] >= lo
            if hi is not None:
                assert out.x[j] <= hi
        # complementary slackness on rows
        for i in range(m):
            lhs = sum(lp.rows[i][j] * out.x[j] for j in range(n))
            if lp.relations[i] != "=" and lhs != lp.rhs[i]:
                assert out.y[i] == 0
        # value identity: y.b plus reduced costs against the active bounds
        dual_value = sum(yi * bi for yi, bi in zip(out.y, lp.rhs))
        for j, (lo, hi) in enumerate(lp.bounds):
            rc = out.reduced_costs[j]
            if rc == 0:
                continue
            xj = out.x[j]
            assert xj == lo or xj == hi  # nonzero reduced cost only at a bound
            dual_value += rc * xj
        assert dual_value == out.value
        # dual feasibility signs (internalized for both senses)
        flip = 1 if lp.sense == "min" else -1
        for j, (lo, hi) in enumerate(lp.bounds):
            rc = flip * out.reduced_costs[j]
            if lo is not None and hi is not None and lo == hi:
                continue
            if out.x[j] == lo and (hi is None or out.x[j] != hi):
                assert rc >= 0
            elif out.x[j] == hi and (lo is None or out.x[j] != lo):
                assert rc <= 0
            elif lo is None and hi is None:
                assert rc == 0

    @pytest.mark.parametrize("dens", [(1,), (1, 2, 3, 7)], ids=["integer", "rational"])
    def test_random_programs(self, dens):
        rng = random.Random(31)

        def q(lo, hi):
            return F(rng.randint(lo, hi), rng.choice(dens))

        solved = 0
        while solved < 120:
            n = rng.randint(1, 5)
            m = rng.randint(0, 4)
            lp = LinearProgram(
                sense=rng.choice(("min", "max")),
                objective=tuple(q(-6, 6) for _ in range(n)),
                rows=tuple(tuple(q(-4, 4) for _ in range(n)) for _ in range(m)),
                relations=tuple(rng.choice(("<=", "=", ">=")) for _ in range(m)),
                rhs=tuple(q(-8, 8) for _ in range(m)),
                bounds=tuple(
                    rng.choice(((q(-5, 0), q(0, 5)), (F(0), None), (None, None)))
                    for _ in range(n)
                ),
            )
            out = simplex_solve(lp)
            if out.status != OPTIMAL:
                continue
            self.check_certificates(lp, out)
            solved += 1

    def test_deterministic(self):
        rng = random.Random(32)
        cloud = random_cloud(rng, 9, 1, span=30)
        lvl = random_valid_level(rng, 9)
        lp = build_lp_dual(cloud, lvl, (F(1),))
        first = simplex_solve(lp)
        for _ in range(3):
            again = simplex_solve(lp)
            assert again == first


class TestPinnedPivots:
    """Bland's rule fixes every pivot, so the outcomes, certificates
    included, are pinned by one digest over a seeded corpus: rational random
    programs with some infeasible and some unbounded, and both quantile
    programs on rational one-column clouds."""

    def test_corpus_digest(self):
        rng = random.Random(29)
        lps = [random_program(rng) for _ in range(1000)]
        for _ in range(60):
            n = rng.randint(1, 12)
            cloud = DataCloud.from_rows(
                [[F(rng.randint(-50, 50), rng.randint(1, 9))] for _ in range(n)]
            )
            level = random_valid_level(rng, n, max_den=20)
            lps += [build_lp_dual(cloud, level, (F(1),)), build_lp(cloud, level, (F(1),))]
        outcomes = [simplex_solve(lp) for lp in lps]
        statuses = Counter(out.status for out in outcomes)
        assert min(statuses[s] for s in (OPTIMAL, INFEASIBLE, UNBOUNDED)) >= 20, statuses
        digest = hashlib.sha256("\n".join(map(repr, outcomes)).encode()).hexdigest()
        assert digest == PINNED_OUTCOMES_SHA


class TestBuilders:
    def test_two_point_values_match(self):
        cloud = DataCloud.from_rows([[0], [1]])
        lvl = QuantileLevel(F(1, 4), 2)
        primal = simplex_solve(build_lp(cloud, lvl, (F(1),)))
        dual = simplex_solve(build_lp_dual(cloud, lvl, (F(1),)))
        assert primal.value == F(1, 4)
        assert dual.value == F(1, 4)
        assert dual.x[0] == 0  # the t component is the quantile

    def test_single_point_zero_value(self):
        cloud = DataCloud.from_rows([[5]])
        lvl = QuantileLevel(F(1, 3), 1)
        assert simplex_solve(build_lp(cloud, lvl, (F(1),))).value == 0
        assert simplex_solve(build_lp_dual(cloud, lvl, (F(1),))).value == 0

    def test_dual_t_is_quantile_when_level_valid(self):
        rng = random.Random(33)
        for _ in range(40):
            cloud = random_cloud(rng, rng.randint(1, 12), 1, span=25)
            lvl = random_valid_level(rng, cloud.n, max_den=50)
            out = simplex_solve(build_lp_dual(cloud, lvl, (F(1),)))
            assert out.x[0] == quantile_direct(cloud, lvl)

    def test_integral_np_optimal_set_contains_quantile(self):
        # when N*p is integral the minimizer set is an interval; the direct
        # quantile must still be optimal for the dual program
        rng = random.Random(34)
        checked = 0
        while checked < 25:
            n = rng.randint(2, 10)
            den = rng.randint(2, 6)
            num = rng.randint(1, den - 1)
            p = F(num, den)
            if (n * p).denominator != 1:
                continue
            cloud = random_cloud(rng, n, 1, span=20)
            lvl = QuantileLevel(p, n)
            out = simplex_solve(build_lp_dual(cloud, lvl, (F(1),)))
            q = quantile_direct(cloud, lvl)
            # evaluate the dual objective at t = q: must equal the optimum
            loss_at_q = sum(
                p * max(v - q, 0) + (1 - p) * max(q - v, 0) for (v,) in cloud.points
            )
            assert loss_at_q == out.value
            checked += 1
