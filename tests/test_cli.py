from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conequant import (
    DataCloud,
    Halfspace,
    Polyhedron,
    QuantileLevel,
    QuantileRegion,
    parse_rational,
    poly_equal,
    quantile_region,
    tukey_region,
    validate_cone,
)
from conequant.cli import CliInputError, _build_parser, document_bytes, load_points, main

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parents[1] / "README.md"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(module, args, *, flags=(), timeout=None):
    """``python flags -m module args`` in a new interpreter that imports the
    package under test, also when it is imported from a checkout; it is
    killed, failing the test, after ``timeout`` seconds."""
    import conequant

    src = str(Path(conequant.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-m", module, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=timeout,
    )


def corners(tmp_path, dim) -> str:
    """The 2**dim corners of the unit cube, one per row."""
    f = tmp_path / f"corners{dim}.csv"
    f.write_text("".join(",".join(map(str, c)) + "\n" for c in product((0, 1), repeat=dim)))
    return str(f)


def orthant(tmp_path, dim, interior=None) -> str:
    """A cone file for the nonnegative orthant, with an optional interior: line."""
    f = tmp_path / f"orthant{dim}.txt"
    rows = [",".join(str(int(i == j)) for j in range(dim)) for i in range(dim)]
    if interior:
        rows.append(f"interior: {interior}")
    f.write_text("".join(row + "\n" for row in rows))
    return str(f)


@pytest.fixture
def square(tmp_path):
    f = tmp_path / "square.csv"
    f.write_text("0,0\n1,0\n0,1\n1,1\n")
    return str(f)


@pytest.fixture
def cube(tmp_path):
    return corners(tmp_path, 3)


@pytest.fixture
def uni(tmp_path):
    f = tmp_path / "uni.csv"
    f.write_text("# univariate sample\n1\n2\n3\n4\n5\n")
    return str(f)


@pytest.fixture
def orthant_file(tmp_path):
    return orthant(tmp_path, 2)


class TestUniquantile:
    def test_prints_quantile(self, uni, capsys):
        code, out, _ = run_cli(["uniquantile", uni, "--p", "1/2"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "q=3"

    def test_check_flag(self, uni, capsys):
        code, out, _ = run_cli(["uniquantile", uni, "--p", "1/2", "--check"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "q=3 (LP verified)"

    def test_integral_np_exits_2(self, uni, capsys):
        code, _, err = run_cli(["uniquantile", uni, "--p", "2/5"], capsys)
        assert code == 2
        assert "non-integral" in err

    def test_multicolumn_rejected(self, square, capsys):
        code, _, err = run_cli(["uniquantile", square, "--p", "1/3"], capsys)
        assert code == 1

    def test_exponent_parsed_and_inf_rejected(self, tmp_path, capsys):
        data = tmp_path / "exp.csv"
        data.write_text("1e3\n2\n1.5e-2\n")
        for p, q in [("5/6", "q=1000"), ("1/6", "q=3/200")]:
            code, out, _ = run_cli(["uniquantile", str(data), "--p", p], capsys)
            assert code == 0
            assert out.splitlines()[0] == q
        data.write_text("1\ninf\n")
        code, _, err = run_cli(["uniquantile", str(data), "--p", "1/3"], capsys)
        assert code == 1
        assert "cannot parse rational from 'inf'" in err


class TestLoadPoints:
    """``load_points`` reads a CSV cloud straight into integer rows; it reads
    exactly what parsing every entry with ``parse_rational`` reads."""

    GRAMMAR = [
        "12", " 12 ", "+12", "-0", "007", "1_000", "1__0", "_1", "1_", "١٢",
        "\t3", "1e3", "1.", ".5", "-3/4", "1/0", "0x10", "inf", "nan", "", "-",
        "1" * 5000, "2.50", "-1.5e-2", "6/4", "١.٥",
    ]

    @staticmethod
    def fraction_load(path: str, text: str):
        """The cloud, or the error message, from parsing each entry into a
        Fraction and building the cloud from those rows."""
        rows = []
        for ln, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append([parse_rational(tok) for tok in line.split(",")])
            except ValueError as exc:
                return f"{path}:{ln}: {exc}"
        if not rows:
            return f"{path}: no data rows"
        if any(len(r) != len(rows[0]) for r in rows):
            return f"{path}: rows have inconsistent column counts"
        return DataCloud.from_rows(rows)

    def test_matches_fraction_parsing(self, tmp_path):
        rng = random.Random(13)
        tokens = self.GRAMMAR + [
            "".join(rng.choices("0189_+-./eE ١\t", k=rng.randint(1, 6))) for _ in range(1500)
        ]
        path = tmp_path / "cloud.csv"
        outcomes = {DataCloud: 0, str: 0}
        for i, tok in enumerate(tokens):
            layouts = [
                f"# comment\n\n{tok}\n",
                f"1,2\n\n  # {tok}\n-3, 0.25\n{tok},7/3\n",
                f"5,{tok}\n1.5e1,-2\n",
                f"{tok},{tok}\n3\n",
            ]
            text = layouts[i % len(layouts)]
            path.write_text(text)
            want = self.fraction_load(str(path), text)
            outcomes[type(want)] += 1
            try:
                got = load_points(str(path))
            except CliInputError as exc:
                assert str(exc) == want, repr(text)
                continue
            assert isinstance(want, DataCloud), repr(text)
            assert (got.points, got.int_form) == (want.points, want.int_form), repr(text)
            rebuilt = DataCloud(want.points)
            assert rebuilt == got and hash(rebuilt) == hash(got), repr(text)
        assert min(outcomes.values()) > 100, outcomes  # both branches are exercised

    def test_error_line_reaches_stderr(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("# header\n1,2\n\n3,0x10\n")
        code, out, err = run_cli(["depth", str(data), "0,0"], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {data}:4: cannot parse rational from '0x10'\n"

    def test_commands_build_no_fraction_cloud(self, monkeypatch, capsys):
        """depth, tukey, region, verify and uniquantile, --check included,
        work on the integer rows alone."""

        def refuse(cloud):
            raise AssertionError("built the rational points of a cloud")

        monkeypatch.setattr(DataCloud, "points", property(refuse))
        square = str(GOLDEN / "square.csv")
        for point, want in [("1/2,1/2", "2\n"), ("5,5", "0\n"), ("0,0", "1\n")]:
            assert run_cli(["depth", square, point], capsys) == (0, want, "")
        code, out, _ = run_cli(["tukey", square, "--p", "3/10"], capsys)
        assert (code, out) == (0, (GOLDEN / "square_tukey_p3_10.json").read_text())
        code, out, _ = run_cli(
            ["region", str(GOLDEN / "twopoint.csv"), "--p", "3/4",
             "--cone", str(GOLDEN / "orthant2.txt")],
            capsys,
        )
        assert (code, out) == (0, (GOLDEN / "twopoint_orthant_p3_4.json").read_text())
        code, out, _ = run_cli(["verify", square, "--p", "3/10"], capsys)
        assert (code, out) == (
            0, "exact depth check: 1 vertices at tukey_depth >= 2, 8 halfspaces at their quantiles\n"
        )
        code, out, _ = run_cli(
            ["verify", str(GOLDEN / "twopoint.csv"), "--p", "3/4",
             "--cone", str(GOLDEN / "orthant2.txt")],
            capsys,
        )
        assert (code, out) == (
            0, "exact depth check: 1 vertices at cone depth >= 2, 2 halfspaces at their quantiles\n"
        )
        uni = ["uniquantile", str(GOLDEN / "univariate.csv"), "--p", "1/2"]
        assert run_cli(uni, capsys) == (0, "q=3\nmin_loss=3\n", "")
        assert run_cli([*uni, "--check"], capsys) == (0, "q=3 (LP verified)\nmin_loss=3\n", "")


class TestRegionDocuments:
    def test_square_tukey_matches_golden_bytes(self, capsys):
        code, out, _ = run_cli(
            ["tukey", str(GOLDEN / "square.csv"), "--p", "3/10"], capsys
        )
        assert code == 0
        assert out == (GOLDEN / "square_tukey_p3_10.json").read_text()

    def test_triangle_empty_matches_golden_bytes(self, capsys):
        code, out, _ = run_cli(
            ["tukey", str(GOLDEN / "triangle.csv"), "--p", "2/5"], capsys
        )
        assert code == 0
        assert out == (GOLDEN / "triangle_tukey_p2_5.json").read_text()

    @pytest.mark.parametrize(
        "p,golden",
        [("3/4", "twopoint_orthant_p3_4.json"), ("1/4", "twopoint_orthant_p1_4.json")],
    )
    def test_twopoint_orthant_matches_golden_bytes(self, p, golden, capsys):
        code, out, _ = run_cli(
            [
                "region",
                str(GOLDEN / "twopoint.csv"),
                "--p",
                p,
                "--cone",
                str(GOLDEN / "orthant2.txt"),
            ],
            capsys,
        )
        assert code == 0
        assert out == (GOLDEN / golden).read_text()

    def test_byte_order_mark_is_read_past(self, tmp_path, capsys):
        # files saved as "UTF-8 with BOM" give the same documents
        bom = b"\xef\xbb\xbf"
        cloud, cone = tmp_path / "square.csv", tmp_path / "orthant2.txt"
        cloud.write_bytes(bom + (GOLDEN / "square.csv").read_bytes())
        cone.write_bytes(bom + (GOLDEN / "orthant2.txt").read_bytes())
        code, out, _ = run_cli(["tukey", str(cloud), "--p", "3/10"], capsys)
        assert code == 0
        assert out == (GOLDEN / "square_tukey_p3_10.json").read_text()
        args = ["region", str(GOLDEN / "twopoint.csv"), "--p", "3/4", "--cone", str(cone)]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert out == (GOLDEN / "twopoint_orthant_p3_4.json").read_text()

    def test_univariate_matches_golden_bytes(self, capsys):
        code, out, _ = run_cli(
            [
                "region",
                str(GOLDEN / "univariate.csv"),
                "--p",
                "1/2",
                "--cone",
                str(GOLDEN / "ray1.txt"),
            ],
            capsys,
        )
        assert code == 0
        assert out == (GOLDEN / "univariate_p1_2.json").read_text()

    def test_document_round_trip(self, capsys):
        code, out, _ = run_cli(
            ["tukey", str(GOLDEN / "square.csv"), "--p", "3/10"], capsys
        )
        doc = json.loads(out)
        dim = doc["input"]["dim"]
        halfspaces = [
            Halfspace(
                tuple(parse_rational(c) for c in h["w"]), parse_rational(h["t"])
            )
            for h in doc["halfspaces"]
        ]
        from_h = Polyhedron.from_hrep(halfspaces, dim=dim)
        verts = [tuple(parse_rational(c) for c in v) for v in doc["vertices"]]
        rays = [tuple(parse_rational(c) for c in r) for r in doc["rays"]]
        from_v = Polyhedron.from_vrep(verts, rays, dim=dim) if verts else Polyhedron.empty(dim)
        assert poly_equal(from_h, from_v)
        assert doc["empty"] == from_h.is_empty

    def test_nudge_records_requested_level(self, square, capsys):
        code, out, _ = run_cli(["tukey", square, "--p", "1/2", "--nudge"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["input"]["p_requested"] == "1/2"
        assert doc["input"]["p"] == "7/16"
        assert doc["input"]["ceil_np"] == 2

    def test_integral_np_without_nudge_exits_2(self, square, capsys):
        code, _, err = run_cli(["tukey", square, "--p", "1/2"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "command, hint",
        [("uniquantile", False), ("verify", False), ("tukey", True), ("region", True)],
    )
    def test_nudge_hint_only_where_nudge_exists(
        self, command, hint, tmp_path, orthant_file, capsys
    ):
        data = tmp_path / "three.csv"
        data.write_text("0\n1\n2\n" if command == "uniquantile" else "0,0\n1,0\n0,1\n")
        args = [command, str(data), "--p", "1/3"]
        if command == "region":
            args += ["--cone", orthant_file]
        code, _, err = run_cli(args, capsys)
        assert code == 2
        assert err.startswith("error: ")
        assert ("--nudge" in err) == hint

    def test_out_file(self, square, tmp_path, capsys):
        out_path = tmp_path / "doc.json"
        code, out, _ = run_cli(
            ["tukey", square, "--p", "3/10", "--out", str(out_path)], capsys
        )
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["empty"] is False

    @pytest.mark.parametrize("option", ["--out", "--plot"])
    def test_unwritable_output_exits_1(self, option, square, tmp_path, capsys):
        target = tmp_path / "no_such_dir" / "file"
        code, _, err = run_cli(
            ["tukey", square, "--p", "3/10", option, str(target)], capsys
        )
        assert code == 1
        assert err.startswith(f"error: cannot write {target}")
        # a directory is not writable as a file either
        code, _, err = run_cli(
            ["tukey", square, "--p", "3/10", option, str(tmp_path)], capsys
        )
        assert code == 1
        assert err.startswith("error: cannot write")

    def test_plot_cycle(self, tmp_path, capsys):
        data = tmp_path / "diamond.csv"
        data.write_text("1,0\n0,1\n-1,0\n0,-1\n2,2\n")
        plot = tmp_path / "cycle.csv"
        code, _, _ = run_cli(
            ["tukey", str(data), "--p", "3/10", "--plot", str(plot)], capsys
        )
        assert code == 0
        lines = plot.read_text().strip().splitlines()
        assert len(lines) >= 3
        pts = [tuple(float(t) for t in line.split(",")) for line in lines]
        # convexity of the emitted cycle: all turns in one direction
        n = len(pts)
        for i in range(n):
            ax, ay = pts[i]
            bx, by = pts[(i + 1) % n]
            cx, cy = pts[(i + 2) % n]
            cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            assert cross >= 0


    @pytest.mark.parametrize(
        "args,reason",
        [
            (
                ["region", str(GOLDEN / "twopoint.csv"), "--p", "3/4",
                 "--cone", str(GOLDEN / "orthant2.txt")],
                "the region is unbounded",
            ),
            (["tukey", str(GOLDEN / "triangle.csv"), "--p", "2/5"], "the region is empty"),
            (["tukey", "CUBE", "--p", "3/16"], "the region is 3-dimensional, not 2-D"),
            (["tukey", "HUGE", "--p", "1/6"], "a vertex coordinate is beyond the float range"),
        ],
        ids=["unbounded", "empty", "3-D", "beyond-float"],
    )
    def test_plot_skip_is_noted(self, args, reason, tmp_path, capsys):
        cube = tmp_path / "cube.csv"
        corners = product((0, 1), repeat=3)
        cube.write_text("".join(",".join(map(str, c)) + "\n" for c in corners))
        huge = tmp_path / "huge.csv"
        huge.write_text("0,0\n1e400,0\n0,1\n1,1\n")
        files = {"CUBE": str(cube), "HUGE": str(huge)}
        args = [files.get(a, a) for a in args]
        _, before, _ = run_cli(args, capsys)
        plot = tmp_path / "cycle.csv"
        code, out, err = run_cli(args + ["--plot", str(plot)], capsys)
        assert code == 0
        assert out == before
        assert not plot.exists()
        assert err == f"note: plot {plot} not written: {reason}\n"

    @pytest.mark.parametrize("cone", [None, [[1, 0], [0, 1]]])
    def test_region_conversion_builds_no_halfspace(self, cone, square, monkeypatch, capsys):
        """A region and its document are made from integer rows; Halfspace
        objects are built only when a caller reads ``region.halfspaces``."""
        made = []
        real = Halfspace.__post_init__

        def counted(h):
            made.append(h)
            real(h)

        monkeypatch.setattr(Halfspace, "__post_init__", counted)
        args = ["tukey", square, "--p", "3/10"]
        if cone is not None:  # the orthant of orthant2.txt
            args = ["region", square, "--p", "3/10", "--cone", str(GOLDEN / "orthant2.txt")]
        code, out, _ = run_cli(args, capsys)
        assert code == 0 and json.loads(out)["vertices"]
        assert made == []
        cloud = DataCloud.from_rows([[0, 0], [1, 0], [0, 1], [1, 1]])
        level = QuantileLevel(Fraction(3, 10), 4)
        if cone is None:
            reg = tukey_region(cloud, level)
        else:
            reg = quantile_region(cloud, level, validate_cone(cone))
        reg.region.vertices, reg.region.rays, reg.region.is_empty
        assert made == []
        hs = reg.region.halfspaces
        assert len(hs) == len(reg.defining_entries) and len(made) >= len(hs)

    @pytest.mark.parametrize("cone", [None, 2, 3])
    def test_documents_read_no_entry_pairs(self, cone, tmp_path, monkeypatch, capsys):
        """``tukey`` and ``region`` format each entry straight from its
        integer record; the Fraction pairs of ``defining_entries`` are never
        built for a document."""
        reads = []
        real = QuantileRegion.__dict__["defining_entries"]

        def counted(reg):
            reads.append(reg)
            return real.func(reg)

        monkeypatch.setattr(QuantileRegion, "defining_entries", property(counted))
        dim = cone or 3
        args = ["tukey", corners(tmp_path, dim), "--p", "3/16"]
        if cone is not None:
            args = ["region", *args[1:], "--cone", orthant(tmp_path, dim)]
        code, out, _ = run_cli(args, capsys)
        assert code == 0 and json.loads(out)["halfspaces"]
        assert reads == []
        cloud = DataCloud.from_rows([[0, 0], [1, 0], [0, 1], [1, 1]])
        reg = tukey_region(cloud, QuantileLevel(Fraction(3, 10), 4))
        assert reg.defining_entries and len(reads) == 1

    @pytest.mark.parametrize("cone", [None, 2, 3])
    def test_commands_read_no_fraction_generators(self, cone, tmp_path, monkeypatch, capsys):
        """``tukey``, ``region`` and ``verify`` read a region's vertices and
        rays as its integer generators: with the Fraction views ``vertices``
        and ``rays`` made to raise, every document, verdict and refutation
        is the same."""
        import conequant.cli as cli

        dim = cone or 3
        args = [corners(tmp_path, dim), "--p", "3/16"]
        if cone is not None:
            args += ["--cone", orthant(tmp_path, dim)]
        solve = cli.tukey_region if cone is None else cli.quantile_region

        def moved_out(cloud, level, *rest):
            # every halfspace moved out, so verify refutes a vertex
            reg = solve(cloud, level, *rest)
            entries = tuple((w, t - Fraction(1, 10**6)) for w, t in reg.defining_entries)
            region = Polyhedron.from_hrep([Halfspace(w, t) for w, t in entries], dim=dim)
            return QuantileRegion.from_pairs(region, entries, reg.level, reg.provenance)

        def outputs():
            runs = [run_cli(["tukey" if cone is None else "region", *args], capsys)]
            runs.append(run_cli(["verify", *args], capsys))
            with monkeypatch.context() as m:
                m.setattr(cli, solve.__name__, moved_out)
                runs.append(run_cli(["verify", *args], capsys))
            return runs

        before = outputs()
        (code, doc, _), verified, refuted = before
        assert code == 0 and json.loads(doc)["vertices"]
        assert verified[0] == 0 and refuted[0] == 3
        assert refuted[2].startswith("exact depth check: vertex (")

        def refuse(self):
            raise AssertionError("a Fraction view of the generators was read")

        monkeypatch.setattr(Polyhedron, "vertices", property(refuse))
        monkeypatch.setattr(Polyhedron, "rays", property(refuse))
        assert outputs() == before


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.text(alphabet=st.characters(codec="utf-8"), max_size=8),
    st.sampled_from(['"', "\\", '\\"', "\n\t\r\x00\x1f\x7f", "é\u2028🙂", ""]),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)


class TestDocumentBytes:
    """``document_bytes`` writes indent-2 JSON itself, byte for byte as
    ``json.dumps(doc, indent=2)`` does, plus a final newline."""

    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(st.text(max_size=6), _VALUES, max_size=5) | _VALUES)
    def test_matches_json_dumps(self, doc):
        assert document_bytes(doc) == json.dumps(doc, indent=2) + "\n"

    def test_empty_containers_and_escapes(self):
        doc = {
            "": [],
            "a": {},
            "b": [[], {}, [[]], [{}]],
            '"\\\n': ["\x00", "\x1f", "é", "\u2028", "🙂", True, False, None, -0, 10**40],
        }
        assert document_bytes(doc) == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("bad", [1.5, (1, 2), {"x": [0.5]}, {"x": ("a",)}, {1: "a"}])
    def test_other_types_raise(self, bad):
        with pytest.raises(TypeError):
            document_bytes(bad)


class TestInternalInvariant:
    def test_broken_invariant_exits_4(self, square, value_below_vertex, capsys):
        code, out, err = run_cli(["tukey", square, "--p", "3/10"], capsys)
        assert code == 4
        assert out == ""
        assert err.startswith("error: internal invariant failed: ")


class TestConeErrors:
    def test_cone_with_line_exits_2(self, square, tmp_path, capsys):
        cone = tmp_path / "bad.txt"
        cone.write_text("1,0\n-1,0\n0,1\n")
        code, _, err = run_cli(
            ["region", square, "--p", "3/10", "--cone", str(cone)], capsys
        )
        assert code == 2
        assert "free of lines" in err

    def test_flat_cone_exits_2(self, square, tmp_path, capsys):
        cone = tmp_path / "flat.txt"
        cone.write_text("1,0\n")
        code, _, err = run_cli(
            ["region", square, "--p", "3/10", "--cone", str(cone)], capsys
        )
        assert code == 2
        assert "empty interior" in err

    def test_interior_line_honored(self, square, tmp_path, capsys):
        cone = tmp_path / "cone.txt"
        cone.write_text("1,0\n0,1\ninterior: 2,3\n")
        code, out, _ = run_cli(
            ["region", square, "--p", "3/10", "--cone", str(cone)], capsys
        )
        assert code == 0
        assert json.loads(out)["input"]["cone"]["interior"] == ["2", "3"]

    def test_second_interior_line_exits_1(self, square, tmp_path, capsys):
        cone = tmp_path / "cone.txt"
        cone.write_text("1,0\n0,1\ninterior: 1,1\n\ninterior: 5,1\n")
        code, out, err = run_cli(
            ["region", square, "--p", "3/10", "--cone", str(cone)], capsys
        )
        assert (code, out) == (1, "")
        assert err == f"error: {cone}:5: a second interior: line\n"


class TestDepthAndVerify:
    def test_depth_values(self, square, capsys):
        for point, want in [("1/2,1/2", "2"), ("5,5", "0"), ("0,0", "1")]:
            code, out, _ = run_cli(["depth", square, point], capsys)
            assert code == 0
            assert out.strip() == want

    @pytest.mark.parametrize("point, want", [("-1,0", "0"), ("-1/2,0", "0"), ("-0,0", "1")])
    def test_depth_point_with_leading_minus(self, point, want, square, capsys):
        # argparse reads a leading '-' as an option unless '--' comes first
        code, out, err = run_cli(["depth", square, point], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: the following arguments are required: point; ")
        assert "put -- before a point that starts with '-'" in err
        assert run_cli(["depth", square, "--", point], capsys) == (0, want + "\n", "")

    def test_depth_dimension_mismatch(self, square, capsys):
        code, out, err = run_cli(["depth", square, "1,2,3"], capsys)
        assert (code, out, err) == (1, "", "error: point has dimension 3, expected 2\n")

    def test_verify_2d(self, square, capsys):
        code, out, _ = run_cli(["verify", square, "--p", "3/10"], capsys)
        assert code == 0
        assert out == (
            "exact depth check: 1 vertices at tukey_depth >= 2, "
            "8 halfspaces at their quantiles\n"
        )

    @pytest.mark.parametrize("p, vertices, halfspaces", [("3/16", 6, 17), ("15/16", 0, 10)])
    def test_verify_tukey_3d_exact(self, cube, p, vertices, halfspaces, capsys):
        code, out, err = run_cli(["verify", cube, "--p", p], capsys)
        assert code == 0, err
        k = math.ceil(8 * Fraction(p))
        assert out == (
            f"exact depth check: {vertices} vertices at tukey_depth >= {k}, "
            f"{halfspaces} halfspaces at their quantiles\n"
        )

    @pytest.mark.parametrize("shift, refuted", [("1/1000000", "halfspace"), ("-1/1000000", "vertex")])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_verify_tukey_refuted_exits_3(
        self, dim, shift, refuted, tmp_path, monkeypatch, capsys
    ):
        """Moving every halfspace in is caught by an offset that is not a
        quantile; moving it out, by a vertex."""
        import conequant.cli as cli

        real = cli.tukey_region

        def moved(cloud, level):
            reg = real(cloud, level)
            entries = tuple((w, t + Fraction(shift)) for w, t in reg.defining_entries)
            region = Polyhedron.from_hrep([Halfspace(w, t) for w, t in entries], dim=dim)
            return QuantileRegion.from_pairs(region, entries, reg.level, reg.provenance)

        monkeypatch.setattr(cli, "tukey_region", moved)
        code, out, err = run_cli(["verify", corners(tmp_path, dim), "--p", "3/16"], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith(f"exact depth check: {refuted} (")

    def test_verify_tukey_3d_unbounded_region_exits_3(self, cube, monkeypatch, capsys):
        """A ray is refuted even when every vertex is right: a Tukey region
        is bounded."""
        import conequant.cli as cli

        real = cli.tukey_region

        def with_ray(cloud, level):
            reg = real(cloud, level)
            region = Polyhedron.from_vrep(reg.region.vertices, [(1, 0, 0)], dim=3)
            return QuantileRegion(region, reg.entry_records, reg.level, reg.provenance)

        monkeypatch.setattr(cli, "tukey_region", with_ray)
        code, out, err = run_cli(["verify", cube, "--p", "3/16"], capsys)
        assert code == 3
        assert out == ""
        assert err == "exact depth check: ray (1,0,0) leaves the recession cone of the region\n"

    def test_verify_tukey_3d_empty_region_exits_3(self, cube, monkeypatch, capsys):
        """An empty region has no vertex to refute, but its halfspaces must
        be quantile halfspaces: x >= 1 is not, since q((1,0,0)) = 0."""
        import conequant.cli as cli

        real = cli.tukey_region

        def emptied(cloud, level):
            reg = real(cloud, level)
            return QuantileRegion(
                Polyhedron.empty(3), reg.entry_records, reg.level, reg.provenance
            )

        monkeypatch.setattr(cli, "tukey_region", emptied)
        code, out, err = run_cli(["verify", cube, "--p", "3/16"], capsys)
        assert code == 3
        assert out == ""
        assert err == "exact depth check: halfspace (1,0,0).z >= 1 is not at its quantile 0\n"

    @pytest.mark.parametrize("p, vertices, halfspaces", [("3/16", 3, 4), ("15/16", 1, 3)])
    def test_verify_cone_3d_exact(
        self, cube, p, vertices, halfspaces, tmp_path, monkeypatch, capsys
    ):
        """A cone region is checked by the exact depth count and its
        quantiles, with no sampled direction."""
        import conequant.oracle as oracle

        def refuse(*args, **kwargs):
            raise AssertionError("verify sampled directions")

        monkeypatch.setattr(oracle, "membership_sample", refuse)
        code, out, err = run_cli(["verify", cube, "--p", p, "--cone", orthant(tmp_path, 3)], capsys)
        assert code == 0, err
        k = math.ceil(8 * Fraction(p))
        assert out == (
            f"exact depth check: {vertices} vertices at cone depth >= {k}, "
            f"{halfspaces} halfspaces at their quantiles\n"
        )

    @pytest.mark.parametrize("shift, refuted", [("1/1000000", "halfspace"), ("-1/1000000", "vertex")])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_verify_cone_refuted_exits_3(
        self, dim, shift, refuted, tmp_path, monkeypatch, capsys
    ):
        """Moving every halfspace in is caught by an offset that is not a
        quantile; moving it out, by a vertex."""
        import conequant.cli as cli

        real = cli.quantile_region

        def moved(cloud, level, cone, c=None):
            reg = real(cloud, level, cone, c)
            entries = tuple((w, t + Fraction(shift)) for w, t in reg.defining_entries)
            region = Polyhedron.from_hrep([Halfspace(w, t) for w, t in entries], dim=dim)
            return QuantileRegion.from_pairs(region, entries, reg.level, reg.provenance)

        monkeypatch.setattr(cli, "quantile_region", moved)
        args = [corners(tmp_path, dim), "--p", "3/16", "--cone", orthant(tmp_path, dim)]
        code, out, err = run_cli(["verify", *args], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith(f"exact depth check: {refuted} (")

    @pytest.mark.parametrize("interior", ["-1,-1", "1,0,1"])
    def test_verify_cone_honours_the_interior_point(self, interior, tmp_path, capsys):
        """An interior: line that is not interior fails verify as it fails
        region: exit 2, with the same message."""
        dim = len(interior.split(","))
        args = [corners(tmp_path, dim), "--p", "3/16", "--cone", orthant(tmp_path, dim, interior)]
        region = run_cli(["region", *args], capsys)
        verify = run_cli(["verify", *args], capsys)
        assert region[0] == verify[0] == 2
        assert verify[1] == ""
        assert verify[2] == region[2]
        assert "is not an interior point of the cone" in verify[2]

    @pytest.mark.parametrize("trials", ["0", "-3", "many"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_verify_rejects_trials_below_one(self, trials, dim, tmp_path, capsys):
        # verify samples no directions, so any --trials is an unknown option
        data = tmp_path / "cube.csv"
        corners = product((0, 1), repeat=dim)
        data.write_text("".join(",".join(map(str, c)) + "\n" for c in corners))
        code, out, err = run_cli(
            ["verify", str(data), "--p", "3/10", "--trials", trials], capsys
        )
        assert code == 1
        assert "error:" in err and "--trials" in err
        assert out == ""

    def test_huge_exponent_fails_fast(self):
        # 10**20000000 alone would take minutes to build
        proc = run_fresh(
            "conequant", ["depth", str(GOLDEN / "square.csv"), "1e20000000,0"], timeout=60
        )
        assert proc.returncode == 1
        (line,) = proc.stderr.splitlines()
        assert line == "error: cannot parse rational from '1e20000000'"

    @pytest.mark.parametrize(
        "command,data,p,before,after",
        [
            ("tukey", "0,0\n1e4300,0\n0,1\n1,1\n", "1/6", '"', '"'),
            ("uniquantile", "1e4300\n2\n3\n", "5/6", "q=", "\n"),
        ],
        ids=["tukey", "uniquantile"],
    )
    def test_result_past_the_digit_limit(self, command, data, p, before, after, tmp_path):
        """A result integer of 10**4300, one digit longer than Python's
        default integer string limit, is an input error with one line on
        stderr, nothing on stdout and no --out file; with the limit lifted
        the output holds it."""
        big = before + "1" + "0" * 4300 + after
        path = tmp_path / "big.csv"
        path.write_text(data)
        args = [command, str(path), "--p", p]
        out = tmp_path / "doc.json"
        extra = ["--out", str(out)] if command == "tukey" else []
        proc = run_fresh("conequant", args + extra)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: ") and "PYTHONINTMAXSTRDIGITS=0" in line
        assert proc.stdout == "" and not out.exists()
        proc = run_fresh("conequant", args, flags=["-X", "int_max_str_digits=0"])
        assert proc.returncode == 0, proc.stderr
        assert big in proc.stdout

    @pytest.mark.parametrize("command", ["region", "verify"])
    @pytest.mark.parametrize(
        "cone,message",
        [
            (
                "1e4300,0\n-1e4300,0\n0,1\n",
                "the cone is not free of lines: the negation of generator row 1 "
                "is also in the cone",
            ),
            (
                "1,0\n0,1\ninterior: -1e4300,1\n",
                "the given interior point is not an interior point of the cone",
            ),
        ],
        ids=["line", "interior"],
    )
    def test_cone_error_past_the_digit_limit(self, command, cone, message, tmp_path):
        """An invalid cone whose number has more digits than Python's integer
        string limit is named, not printed: exit 2 with one error line."""
        path = tmp_path / "big.txt"
        path.write_text(cone)
        args = [command, str(GOLDEN / "square.csv"), "--p", "1/3", "--cone", str(path)]
        proc = run_fresh("conequant", args)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"error: {message}"]
        assert proc.stdout == ""

    def test_missing_file_exits_1(self, capsys):
        code, _, _ = run_cli(["depth", "nope.csv", "0,0"], capsys)
        assert code == 1

    def test_usage_error_exits_1(self, capsys):
        code, _, _ = run_cli(["tukey"], capsys)
        assert code == 1

    @pytest.mark.parametrize("command", ["depth", "region"])
    def test_undecodable_file_exits_1(self, command, square, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\n")
        if command == "depth":
            args = ["depth", str(bad), "0,0"]
        else:
            args = ["region", square, "--p", "1/3", "--cone", str(bad)]
        proc = run_fresh("conequant", args)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        (line,) = proc.stderr.splitlines()
        assert line.startswith(f"error: cannot read {bad}: ")


class TestDeterminism:
    def test_documents_byte_identical_across_runs(self, capsys):
        args = ["tukey", str(GOLDEN / "square.csv"), "--p", "3/10"]
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(args, capsys)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_console_entry_point(self):
        # one end-to-end subprocess run through the entry point
        proc = run_fresh("conequant.cli", ["depth", str(GOLDEN / "square.csv"), "1/2,1/2"])
        assert proc.returncode == 0
        assert proc.stdout.strip() == "2"

    def test_package_main(self):
        # python -m conequant runs the same interface as conequant.cli
        proc = run_fresh("conequant", ["tukey", str(GOLDEN / "square.csv"), "--p", "3/10"])
        assert proc.returncode == 0
        assert proc.stdout == (GOLDEN / "square_tukey_p3_10.json").read_text()

    def test_golden_document_under_optimize_flag(self):
        # python -O strips assert statements; the solve must not depend on any
        args = ["region", str(GOLDEN / "twopoint.csv"), "--p", "3/4"]
        proc = run_fresh("conequant", [*args, "--cone", str(GOLDEN / "orthant2.txt")], flags=["-O"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN / "twopoint_orthant_p3_4.json").read_text()


class TestRepeatedCalls:
    """main() builds one parser per process and carries no state from one
    call to the next."""

    def test_parser_built_once(self, square, capsys):
        _build_parser.cache_clear()
        for point in ("1/2,1/2", "5,5"):
            assert run_cli(["depth", square, point], capsys)[0] == 0
        info = _build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_nudge_does_not_stick(self, square, capsys):
        assert run_cli(["tukey", square, "--p", "1/2", "--nudge"], capsys)[0] == 0
        code, out, err = run_cli(["tukey", square, "--p", "1/2"], capsys)
        assert (code, out) == (2, "")
        assert "(pass --nudge to adjust the level)" in err

    def test_failed_call_leaves_no_trace(self, capsys):
        square = str(GOLDEN / "square.csv")
        assert run_cli(["tukey"], capsys)[0] == 1
        assert run_cli(["tukey", square, "--p", "2"], capsys)[0] == 1
        args = ["tukey", square, "--p", "3/10"]
        code, out, err = run_cli(args, capsys)
        fresh = run_fresh("conequant", args)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert code == 0


def test_readme_synopsis_lists_every_option():
    """The README's command-line synopsis names exactly the options that the
    parser defines, subcommand by subcommand."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    documented = {}
    for line in block.splitlines():
        words = line.split()
        if words[:1] == ["conequant"]:
            documented[words[1]] = set(re.findall(r"--[a-z][a-z-]*", line))
    parser = _build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    defined = {
        name: {o for a in sub._actions for o in a.option_strings if o.startswith("--")} - {"--help"}
        for name, sub in commands.choices.items()
    }
    assert documented == defined


def test_every_argument_has_help():
    """``conequant COMMAND --help`` describes every argument of every
    subcommand."""
    parser = _build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    undocumented = [
        f"{name} {a.option_strings[0] if a.option_strings else a.dest}"
        for name, sub in commands.choices.items()
        for a in sub._actions
        if not a.help
    ]
    assert undocumented == []
