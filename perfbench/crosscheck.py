"""Compute the default-seed digests and cross-check each output against the
independent oracles before writing ``expected.json``.

Usage (from the repository root; takes a few minutes):

    python3 perfbench/crosscheck.py            # check, then write expected.json
    python3 perfbench/crosscheck.py --check    # check the committed digests only

Every workload is regenerated and cross-checked on each call, so the file
never mixes digests of different code.

* d=2 regions must equal ``oracle_region_2d`` as sets (``poly_equal``).
* A d=2 depth k must lie in the oracle region at level k and outside the
  one at k+1, and must equal the benchmark's own planar depth count.
* d>=3 region vertices must not be refuted by ``membership_sample``.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import conequant as cq  # noqa: E402
from conequant import cli  # noqa: E402

import workloads  # noqa: E402
from checks import check_output, digest, planar_depth  # noqa: E402


def _level(k: int, n: int):
    return cq.QuantileLevel(Fraction(2 * k - 1, 2 * n), n)


def _region_from_doc(doc: dict, dim: int):
    halfspaces = [
        cq.Halfspace(tuple(Fraction(c) for c in h["w"]), Fraction(h["t"]))
        for h in doc["halfspaces"]
    ]
    return cq.Polyhedron.from_hrep(halfspaces, dim=dim)


def oracle_problem(case: workloads.Case, data: bytes) -> str | None:
    cloud = cq.DataCloud.from_rows(case.points)
    cone = cq.validate_cone(case.cone) if case.cone else None
    if case.kind == "depth":
        depth = int(data.decode())
        z = tuple(Fraction(c) for c in case.query)
        if depth != planar_depth(case.points, case.query):
            return "depth differs from the planar depth count"
        if depth > 0 and not cq.oracle_region_2d(cloud, _level(depth, case.n), None).region.contains(z):
            return f"point lies outside the oracle region at k={depth}"
        if depth < case.n and cq.oracle_region_2d(cloud, _level(depth + 1, case.n), None).region.contains(z):
            return f"point lies inside the oracle region at k={depth + 1}"
        return None
    doc = json.loads(data)
    level = _level(case.k, case.n)
    if case.dim == 2:
        reference = cq.oracle_region_2d(cloud, level, cone).region
        if not cq.poly_equal(_region_from_doc(doc, 2), reference):
            return "region differs from the planar oracle"
        return None
    for v in doc["vertices"]:
        vertex = tuple(Fraction(c) for c in v)
        if not cq.membership_sample(cloud, level, cone, vertex, trials=2000, seed=1):
            return f"membership sampling refutes vertex {v}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="do not rewrite expected.json")
    args = parser.parse_args(argv)
    path = HERE / "expected.json"
    committed = json.loads(path.read_text())["digests"] if path.exists() else {}
    seed = workloads.DEFAULT_SEED
    digests: dict[str, dict[str, str]] = {}
    problems = 0
    workdir = HERE / "_work" / "crosscheck"
    try:
        for workload in workloads.WORKLOADS:
            cases = workloads.write_inputs(workload, seed, workdir)
            digests[workload] = {}
            for case in cases:
                out = case.output_path(workdir)
                stdout = io.StringIO()
                with redirect_stdout(stdout):
                    code = cli.main(case.argv(workdir))
                data = out.read_bytes() if out is not None else stdout.getvalue().encode()
                problem = f"exit code {code}" if code != 0 else (
                    check_output(case, data) or oracle_problem(case, data)
                )
                got = digest(data)
                want = committed.get(workload, {}).get(case.name)
                if problem is None and args.check and got != want:
                    problem = f"digest {got} is not the committed {want}"
                status = "ok" if problem is None else f"PROBLEM: {problem}"
                print(f"{workload} {case.name} {got} {status}", flush=True)
                problems += problem is not None
                digests[workload][case.name] = got
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if problems:
        return 1
    if not args.check:
        path.write_text(json.dumps({"seed": seed, "digests": digests}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
