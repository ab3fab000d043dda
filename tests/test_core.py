from __future__ import annotations

import ast
import importlib
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import conequant
from conequant import (
    ConequantError,
    ContainsLine,
    DataCloud,
    DimensionMismatch,
    IntegralNp,
    NotFullDimensional,
    NotInterior,
    Polyhedron,
    QuantileLevel,
    format_rational,
    make_dual_basis,
    parse_rational,
    project_data,
    validate_cone,
)
from conequant.core import Cone, _certify_interior, _ratio
from conftest import lp_certify_interior, lp_validate_cone, random_cloud, random_direction

F = Fraction
NEEDS_INT_LIMIT = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no integer string limit"
)


class TestRational:
    def test_text_forms(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-7") == Fraction(-7)
        assert parse_rational("2.25") == Fraction(9, 4)

    def test_round_trip_is_identity(self):
        rng = random.Random(11)
        for _ in range(300):
            q = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            assert parse_rational(format_rational(q)) == q

    def test_format_rational_is_the_ratio_formatter(self):
        """``format_rational(n / s)`` writes what ``_ratio(n, s)`` writes,
        for integers, negative values and n / s not in lowest terms."""
        rng = random.Random(12)
        pairs = [(0, 1), (0, 7), (6, 3), (-6, 3), (6, 4), (-6, 4), (10**30, 10**10)]
        pairs += [(rng.randint(-60, 60), rng.randint(1, 24)) for _ in range(300)]
        for n, s in pairs:
            assert format_rational(Fraction(n, s)) == _ratio(n, s)
        assert format_rational(-7) == _ratio(-7, 1) == "-7"
        assert _ratio(-6, 4) == "-3/2" and _ratio(6, 3) == "2"

    def test_always_lowest_terms(self):
        q = parse_rational("6/4")
        assert (q.numerator, q.denominator) == (3, 2)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_rational("1/0")
        with pytest.raises(ValueError):
            parse_rational("abc")

    def test_grammar_is_fractions(self):
        """parse_rational reads exactly what Fraction reads from the stripped
        text, integer tokens included, except an exponent beyond the integer
        string limit, and refuses the rest with ValueError."""
        corpus = [
            "12", " 12 ", "+12", "-0", "007", "1_000", "1__0", "_1", "1_", "١٢",
            "\t3", "1e3", "1.", ".5", "-3/4", "1/0", "0x10", "inf", "nan", "", "-",
            "1" * 5000,
        ]
        rng = random.Random(12)
        corpus += ["".join(rng.choices("0189_+-./eE ١\t", k=rng.randint(1, 6))) for _ in range(3000)]
        limit = getattr(sys, "get_int_max_str_digits", int)()
        for text in corpus:
            try:
                want = Fraction(text.strip())
                _, e, exponent = text.lower().rpartition("e")
                if e and limit and abs(int(exponent)) > limit:
                    raise ValueError(text)
            except (ValueError, ZeroDivisionError):
                with pytest.raises(ValueError):
                    parse_rational(text)
            else:
                got = parse_rational(text)
                assert (type(got), got) == (Fraction, want), text

    @NEEDS_INT_LIMIT
    def test_exponent_beyond_the_integer_string_limit_rejected(self):
        """Building 10**20000000 would stall for minutes; such an exponent is
        refused at once, while one within the limit still parses exactly."""
        for text in ("1e20000000", "1e-20000000", "-2.5E+20000000"):
            with pytest.raises(ValueError, match="cannot parse rational"):
                parse_rational(text)
        assert parse_rational("1e4000") == 10**4000
        assert parse_rational("1e-4000") == Fraction(1, 10**4000)

    @NEEDS_INT_LIMIT
    def test_no_integer_string_limit_means_no_exponent_bound(self):
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            assert parse_rational("1e5000") == 10**5000
        finally:
            sys.set_int_max_str_digits(limit)


class TestDataCloud:
    def test_counts_and_dimension(self):
        cloud = DataCloud.from_rows([[1, 2], [3, 4], [1, 2]])
        assert cloud.n == 3
        assert cloud.dim == 2
        assert cloud.points[0] == cloud.points[2]  # duplicates kept

    def test_empty_and_ragged_rejected(self):
        with pytest.raises(DimensionMismatch):
            DataCloud.from_rows([])
        with pytest.raises(DimensionMismatch):
            DataCloud.from_rows([[1, 2], [3]])

    def test_int_form_reproduces_points(self):
        cloud = DataCloud.from_rows([["1/2", "2/3"], ["-5", "0.2"]])
        rows, den = cloud.int_form
        assert den == 30  # lcm of the denominators 2, 3, 1 and 5
        for row, point in zip(rows, cloud.points):
            assert tuple(Fraction(a, den) for a in row) == point


    def test_integer_rows_are_the_stored_form(self):
        cloud = DataCloud.from_int_form([(2, 4), (6, -3)], 6)
        assert (cloud.n, cloud.dim) == (2, 2)
        assert "points" not in vars(cloud)  # n and dim read the integer rows
        assert cloud.points == ((F(1, 3), F(2, 3)), (F(1), F(-1, 2)))
        scaled = DataCloud.from_int_form([(4, 8), (12, -6)], 12)
        assert scaled.int_form == ([(2, 4), (6, -3)], 6)  # least denominator
        rebuilt = DataCloud(cloud.points)
        assert scaled == cloud == rebuilt
        assert len({scaled, cloud, rebuilt}) == 1
        assert cloud != DataCloud.from_int_form([(2, 4), (6, -3)], 7)
        with pytest.raises(AttributeError):
            cloud.points = ()

    def test_entries_are_read_as_rationals(self):
        """Float, int and string entries are read exactly, as ``from_rows``
        reads them, and the points are Fractions whatever was passed in."""
        clouds = [
            DataCloud(((0.5, 1.0), (0, -2))),
            DataCloud(((F(1, 2), 1), (0, -2))),
            DataCloud((("1/2", "1"), ("0", "-2.0"))),
            DataCloud.from_rows([[0.5, 1], [0, -2]]),
        ]
        assert all(c == clouds[0] for c in clouds) and len(set(clouds)) == 1
        for cloud in clouds + [DataCloud(((0, 0), (1, 1)))]:
            assert all(type(c) is Fraction for p in cloud.points for c in p)

class TestQuantileLevel:
    def test_ceiling_threshold(self):
        level = QuantileLevel(Fraction(1, 2), 5)
        assert level.ceil_np == 3
        assert level.is_valid

    def test_integral_np_detected(self):
        level = QuantileLevel(Fraction(1, 2), 4)
        assert not level.is_valid
        with pytest.raises(IntegralNp):
            level.require_valid()

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            QuantileLevel(Fraction(0), 3)
        with pytest.raises(ValueError):
            QuantileLevel(Fraction(3, 2), 3)

    def test_threshold_range(self):
        rng = random.Random(12)
        for _ in range(200):
            n = rng.randint(1, 30)
            level = QuantileLevel(Fraction(rng.randint(1, 99), 100), n)
            assert 1 <= level.ceil_np <= n


class TestValidateCone:
    def test_orthant_is_valid(self):
        cone = validate_cone([[1, 0], [0, 1]])
        assert cone.r == 2 and cone.dim == 2

    def test_rank_deficient_rejected(self):
        with pytest.raises(NotFullDimensional):
            validate_cone([[1, 0]])
        with pytest.raises(NotFullDimensional, match="a 1-dimensional subspace"):
            validate_cone([["1/2", "1/3"], [3, 2], [0, 0]])
        with pytest.raises(NotFullDimensional, match="a 0-dimensional subspace of R"):
            validate_cone([[0, 0, 0]])
        with pytest.raises(NotFullDimensional, match="a 2-dimensional subspace of R"):
            validate_cone([[1, 0, 0], [-1, 0, 0], [0, 1, 1], [0, 2, 2], [1, 1, 1]])

    def test_line_detected(self):
        with pytest.raises(ContainsLine):
            validate_cone([[1, 0], [-1, 0], [0, 1]])

    def test_narrow_cone_valid(self):
        cone = validate_cone([[1, 1], [1, -1]])
        assert cone.dual_contains((Fraction(1), Fraction(0)))

    def test_dual_contains_rejects_a_wrong_length(self):
        # a shorter or longer direction is not read against a prefix
        cone = validate_cone([[1, 0], [0, 1]])
        with pytest.raises(DimensionMismatch, match="direction has dimension 3, cone has 2"):
            cone.dual_contains((1, 1, 7))
        with pytest.raises(DimensionMismatch, match="direction has dimension 1, cone has 2"):
            cone.dual_contains((-1,))


class TestMakeDualBasis:
    def test_orthant_explicit_interior(self):
        basis = make_dual_basis(validate_cone([[1, 0], [0, 1]]), (1, 1))
        assert basis.c == (Fraction(1), Fraction(1))
        assert not basis.is_permuted

    def test_default_interior_point(self):
        basis = make_dual_basis(validate_cone([[1, 0], [0, 1]]))
        assert basis.c == (Fraction(1), Fraction(1))

    def test_boundary_point_rejected(self):
        with pytest.raises(NotInterior):
            make_dual_basis(validate_cone([[1, 0], [0, 1]]), (1, 0))
        with pytest.raises(NotInterior):
            make_dual_basis(validate_cone([[1, 0], [0, 1]]), (-1, -1))

    def test_zero_last_component_permuted(self):
        basis = make_dual_basis(validate_cone([[1, 1], [1, -1]]))
        assert basis.c == (Fraction(2), Fraction(0))
        assert basis.is_permuted
        assert basis.solver_c[-1] != 0
        vec = (Fraction(5), Fraction(7))
        assert basis.unpermute(basis.permute(vec)) == vec


def _outcome(fn, *args):
    """The exception type and message fn raises, or the value it returns."""
    try:
        return fn(*args)
    except ConequantError as exc:
        return type(exc), str(exc)


def _generator_corpus(rng: random.Random, dim: int):
    """Generator rows of every kind: random, with an explicit line, rank
    deficient, with zero rows, rational, permuted."""
    kind = rng.randrange(5)
    rows = [
        [rng.randint(-3, 3) for _ in range(dim)] for _ in range(rng.randint(dim, dim + 3))
    ]
    if kind == 1:
        g = rng.choice(rows)
        rows.insert(rng.randrange(len(rows) + 1), [-x for x in g])
    elif kind == 2:
        rows = rows[: rng.randint(1, dim)]
        rows.append([sum(col) for col in zip(*rows)])
    elif kind == 3:
        rows.insert(rng.randrange(len(rows) + 1), [0] * dim)
    elif kind == 4:
        rows = [[F(x, rng.randint(1, 4)) for x in row] for row in rows]
    rng.shuffle(rows)
    return rows


def _interior_candidates(rng: random.Random, rows):
    """Points to certify: the row sum and its negation, zero, a generator
    (on the boundary), a random point, and the row sum with its last
    coordinate zeroed, which gives a permuted basis when it is interior."""
    dim = len(rows[0])
    total = [sum(F(g[j]) for g in rows) for j in range(dim)]
    return [
        tuple(total),
        tuple(-x for x in total),
        (F(0),) * dim,
        tuple(map(F, rng.choice(rows))),
        tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)),
        tuple(total[:-1]) + (F(0),),
    ]


class TestConeChecksAgainstLP:
    """validate_cone and the interior certificate read the dual cone's
    extreme rays; the linear programs they replaced are the reference, down
    to the exception type and message."""

    def test_validate_cone_matches_lp(self):
        rng = random.Random(71)
        seen = {}
        for _ in range(300):
            rows = _generator_corpus(rng, rng.randint(1, 4))
            got = _outcome(validate_cone, rows)
            want = _outcome(lp_validate_cone, rows)
            assert got == want, rows
            kind = got[0] if isinstance(got, tuple) else Cone
            seen[kind] = seen.get(kind, 0) + 1
        assert min(seen.get(k, 0) for k in (Cone, ContainsLine, NotFullDimensional)) >= 30

    def test_interior_certificate_matches_lp(self):
        rng = random.Random(72)
        seen = {None: 0, NotInterior: 0}
        validated = 0
        for _ in range(150):
            rows = _generator_corpus(rng, rng.randint(1, 4))
            # unvalidated cones too: with lines and rank deficient
            cone = Cone(tuple(tuple(map(F, g)) for g in rows))
            if not isinstance(_outcome(validate_cone, rows), tuple):
                validated += 1
            for c in _interior_candidates(rng, rows):
                got = _outcome(_certify_interior, cone, c)
                assert got == _outcome(lp_certify_interior, cone, c), (rows, c)
                seen[got if got is None else got[0]] += 1
        assert validated >= 30 and min(seen.values()) >= 100

    def test_make_dual_basis_matches_lp(self):
        rng = random.Random(73)
        permuted = 0
        for _ in range(60):
            rows = _generator_corpus(rng, rng.randint(2, 4))
            if isinstance(_outcome(validate_cone, rows), tuple):
                continue
            cone = validate_cone(rows)
            for c in _interior_candidates(rng, rows):
                got = _outcome(make_dual_basis, cone, c)
                want = _outcome(lp_certify_interior, cone, c)
                if want is None:
                    assert got.c == c
                    permuted += got.is_permuted
                else:
                    assert got == want
        assert permuted >= 1


class TestOrthantSelfDuality:
    def test_dual_cone_of_orthant_is_orthant(self):
        from conequant import Halfspace, Polyhedron

        for d in (1, 2, 3, 4):
            rows = [[int(i == j) for j in range(d)] for i in range(d)]
            validate_cone(rows)
            dual = Polyhedron.from_hrep(
                [Halfspace(tuple(row), 0) for row in rows], dim=d
            )
            # extreme rays of {w : w >= 0} are exactly the generator rows
            assert set(dual.rays) == {
                tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d)
            }
            assert dual.vertices == (tuple(Fraction(0) for _ in range(d)),)


class TestProjectData:
    def test_examples(self):
        cloud = DataCloud.from_rows([[0, 0], [1, 1]])
        assert project_data(cloud, (1, 0)) == (Fraction(0), Fraction(1))
        single = DataCloud.from_rows([[1, 2]])
        assert project_data(single, (0, 0)) == (Fraction(0),)
        two = DataCloud.from_rows([[1, 2], [3, 4]])
        assert project_data(two, (1, -1)) == (Fraction(-1), Fraction(-1))

    def test_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            project_data(DataCloud.from_rows([[1, 2]]), (1,))

    def test_homogeneous_in_direction(self):
        rng = random.Random(13)
        for _ in range(100):
            cloud = random_cloud(rng, rng.randint(1, 8), rng.randint(1, 4))
            w = random_direction(rng, cloud.dim)
            alpha = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
            scaled = tuple(alpha * wi for wi in w)
            assert project_data(cloud, scaled) == tuple(
                alpha * z for z in project_data(cloud, w)
            )


def test_package_source_has_no_assert():
    """Invariants raise InternalInvariantError, which survives python -O; an
    assert statement would vanish there."""
    offenders = []
    for path in sorted(Path(conequant.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert offenders == []


# the package's public names: what the paper's regions and depth, the CLI,
# the oracles and the benchmark use
PUBLIC = [
    "BensonStats", "Cone", "ConequantError", "ContainsLine", "DataCloud",
    "DimensionMismatch", "DimensionNot2", "DualConeBasis",
    "DualSolution", "EmptyBasis", "Halfspace", "INFEASIBLE",
    "IntegralNp", "InternalInvariantError", "LinearProgram", "LpOutcome",
    "MalformedProgram", "NotFullDimensional", "NotInterior", "OPTIMAL",
    "Polyhedron", "QuantileLevel", "QuantileRegion", "Rational",
    "UNBOUNDED", "basis_vertices", "benson_dual_solve", "build_lp_dual",
    "critical_directions", "format_rational", "lift_dataset",
    "make_dual_basis", "membership_sample", "minimize_pinball_loss",
    "oracle_region_2d", "parse_rational", "pinball_loss", "poly_contains",
    "poly_equal", "project_data", "quantile_direct", "quantile_region",
    "region_membership", "remove_redundant", "simplex_solve", "tukey_depth",
    "tukey_region", "validate_cone",
]


@pytest.mark.parametrize(
    "caller",
    ["contains", "membership_sample", "tukey_depth", "region_membership", "holds", "holds_ray"],
)
def test_point_dimension_has_one_text(caller):
    """Every conversion of a rational point to integers checks its dimension
    with the same message."""
    cloud = DataCloud.from_rows([[0, 0], [1, 0], [0, 1]])
    level = QuantileLevel(Fraction(1, 6), 3)
    calls = {
        "contains": lambda z: Polyhedron.empty(2).contains(z),
        "membership_sample": lambda z: conequant.membership_sample(cloud, level, None, z),
        "tukey_depth": lambda z: conequant.tukey_depth(cloud, z),
        "region_membership": lambda z: conequant.region_membership(cloud, level, None, z),
        "holds": lambda z: conequant.Halfspace((1, -1), 0).holds(z),
        "holds_ray": lambda z: conequant.Halfspace((1, -1), 0).holds_ray(z),
    }
    with pytest.raises(DimensionMismatch, match=r"^point has dimension 3, expected 2$"):
        calls[caller]((0, 0, 0))
    # a shorter point is not read against a prefix of the normal either
    with pytest.raises(DimensionMismatch, match=r"^point has dimension 1, expected 2$"):
        calls[caller]((3,))


def test_public_surface_is_pinned():
    names = conequant.__all__
    assert len(set(names)) == len(names)
    assert sorted(names) == PUBLIC
    for name in names:
        assert getattr(conequant, name) is not None


# the layer entry points perfbench/tracer.py wraps by name: a rename makes
# the benchmark's per-layer metric read 0 instead of failing
TRACED = [
    ("conequant.cli", "main"),
    ("conequant.cli", "tukey_region"),
    ("conequant.cli", "quantile_region"),
    ("conequant.cli", "tukey_depth"),
    ("conequant.quantile", "tukey_region"),
    ("conequant.quantile", "benson_dual_solve"),
    ("conequant.polyhedra", "_PointedCone.add_row"),
    ("conequant.polyhedra", "_PointedCone._adjacent"),
    ("conequant.polyhedra", "Polyhedron._ensure_vrep"),
    ("conequant._linalg", "int_rank"),
]


@pytest.mark.parametrize("module, path", TRACED)
def test_traced_entry_points_exist(module, path):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
