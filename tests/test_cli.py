from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from conequant import Halfspace, Polyhedron, QuantileRegion, parse_rational, poly_equal
from conequant.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def square(tmp_path):
    f = tmp_path / "square.csv"
    f.write_text("0,0\n1,0\n0,1\n1,1\n")
    return str(f)


@pytest.fixture
def cube(tmp_path):
    f = tmp_path / "cube.csv"
    f.write_text("".join(",".join(map(str, c)) + "\n" for c in product((0, 1), repeat=3)))
    return str(f)


@pytest.fixture
def uni(tmp_path):
    f = tmp_path / "uni.csv"
    f.write_text("# univariate sample\n1\n2\n3\n4\n5\n")
    return str(f)


@pytest.fixture
def orthant_file(tmp_path):
    f = tmp_path / "orthant.txt"
    f.write_text("1,0\n0,1\n")
    return str(f)


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
        ],
        ids=["unbounded", "empty", "3-D"],
    )
    def test_plot_skip_is_noted(self, args, reason, tmp_path, capsys):
        cube = tmp_path / "cube.csv"
        corners = product((0, 1), repeat=3)
        cube.write_text("".join(",".join(map(str, c)) + "\n" for c in corners))
        args = [str(cube) if a == "CUBE" else a for a in args]
        _, before, _ = run_cli(args, capsys)
        plot = tmp_path / "cycle.csv"
        code, out, err = run_cli(args + ["--plot", str(plot)], capsys)
        assert code == 0
        assert out == before
        assert not plot.exists()
        assert err == f"note: plot {plot} not written: {reason}\n"


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


class TestDepthAndVerify:
    def test_depth_values(self, square, capsys):
        for point, want in [("1/2,1/2", "2"), ("5,5", "0"), ("0,0", "1")]:
            code, out, _ = run_cli(["depth", square, point], capsys)
            assert code == 0
            assert out.strip() == want

    def test_depth_dimension_mismatch(self, square, capsys):
        code, _, _ = run_cli(["depth", square, "1,2,3"], capsys)
        assert code == 1

    def test_verify_2d(self, square, capsys):
        code, out, _ = run_cli(["verify", square, "--p", "3/10"], capsys)
        assert code == 0
        assert "2-D exact oracle: regions equal" in out

    def test_verify_3d_sampling(self, cube, tmp_path, capsys):
        # cone regions outside d = 2 are still checked by sampling
        cone = tmp_path / "orthant3.txt"
        cone.write_text("1,0,0\n0,1,0\n0,0,1\n")
        code, out, _ = run_cli(
            [
                "verify", cube, "--p", "3/16", "--cone", str(cone),
                "--trials", "200", "--seed", "4",
            ],
            capsys,
        )
        assert code == 0
        assert "membership sampling" in out

    @pytest.mark.parametrize("p, vertices, facets", [("3/16", 6, 8), ("15/16", 0, 0)])
    def test_verify_tukey_3d_exact(self, cube, p, vertices, facets, capsys):
        code, out, err = run_cli(["verify", cube, "--p", p], capsys)
        assert code == 0, err
        assert out == (
            f"exact depth check: {vertices} vertices and {facets} facets "
            "agree with tukey_depth\n"
        )

    @pytest.mark.parametrize("shift, refuted", [("1/1000000", "point"), ("-1/1000000", "vertex")])
    def test_verify_tukey_3d_refuted_exits_3(self, cube, shift, refuted, monkeypatch, capsys):
        """Moving every facet in is caught by a point pushed past a facet;
        moving it out, by a vertex."""
        import conequant.cli as cli

        real = cli.tukey_region

        def moved(cloud, level):
            reg = real(cloud, level)
            entries = tuple((w, t + Fraction(shift)) for w, t in reg.defining_entries)
            region = Polyhedron.from_hrep([Halfspace(w, t) for w, t in entries], dim=3)
            return QuantileRegion(region, entries, reg.level, reg.provenance)

        monkeypatch.setattr(cli, "tukey_region", moved)
        code, out, err = run_cli(["verify", cube, "--p", "3/16"], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith(f"exact depth check: {refuted} (")

    @pytest.mark.parametrize("trials", ["0", "-3", "many"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_verify_rejects_trials_below_one(self, trials, dim, tmp_path, capsys):
        data = tmp_path / "cube.csv"
        corners = product((0, 1), repeat=dim)
        data.write_text("".join(",".join(map(str, c)) + "\n" for c in corners))
        code, out, err = run_cli(
            ["verify", str(data), "--p", "3/10", "--trials", trials], capsys
        )
        assert code == 1
        assert "error:" in err and "--trials" in err
        assert out == ""

    def test_missing_file_exits_1(self, capsys):
        code, _, _ = run_cli(["depth", "nope.csv", "0,0"], capsys)
        assert code == 1

    def test_usage_error_exits_1(self, capsys):
        code, _, _ = run_cli(["tukey"], capsys)
        assert code == 1


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
        # one end-to-end subprocess run through the entry point of the
        # package under test, also when it is imported from a checkout
        import conequant

        src = str(Path(conequant.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "conequant.cli", "depth", str(GOLDEN / "square.csv"), "1/2,1/2"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "2"

    def test_package_main(self):
        # python -m conequant runs the same interface as conequant.cli
        import conequant

        src = str(Path(conequant.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "conequant", "tukey", str(GOLDEN / "square.csv"), "--p", "3/10"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert proc.stdout == (GOLDEN / "square_tukey_p3_10.json").read_text()
