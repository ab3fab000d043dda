"""Tiny-size self-test of the benchmark itself.

Checks that every metric named in BENCHMARK.json is printed by name with
its declared unit, that a corrupted expected digest is counted as a failed
operation instead of passing silently, that a missing trace target is
reported as absent without stopping the run, and that time outside the
layer spans lowers ``trace.coverage``.

Usage (from the repository root; takes a few seconds):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import io
import json
import os
import re
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import Case  # noqa: E402

CLOUD = ((0, 0), (4, 1), (1, 5), (-3, 2), (2, -4), (-2, -3), (5, 4), (-4, 4))
CASES = [
    Case("tiny-tukey", "tukey", "tukey", CLOUD, k=2),
    Case("tiny-region", "region", "region", CLOUD, k=3, cone=((2, 1), (-1, 3))),
    Case("tiny-depth", "depth", "depth", CLOUD, query=(0, 1)),
]


def printed(metrics: dict[str, float]) -> dict[str, str]:
    """name -> unit as ``run.report`` prints them."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        run.report(metrics)
    lines = (re.fullmatch(r"(\S+)\s+(\S+)\s+(\S+)", ln) for ln in buf.getvalue().splitlines())
    return {m[1]: m[3] for m in lines if m}


def main() -> int:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workdir = HERE / "_work" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    problems = []
    try:
        for case in CASES:
            case.write(workdir)

        clean = run.Loop(workdir, None)
        run.run_untraced(clean, CASES, 0)
        if clean.failed:
            problems.append(f"{clean.failed} tiny operations failed")
        expected = dict(clean.reference)

        corrupted = dict(expected, **{CASES[0].name: "0" * 64})
        loop = run.Loop(workdir, corrupted)
        with redirect_stderr(io.StringIO()):  # the expected FAIL line
            run.run_untraced(loop, CASES, 0)
        e2e = run.end_to_end(loop, [0.1])
        e2e["fail_ratio"] = loop.failed / loop.attempted
        if not e2e["fail_ratio"] > 0:
            problems.append("a corrupted expected digest did not count as a failure")

        tracer.SPANS.append(("ghost.fn", "conequant.no_such_module", "fn"))
        tracer.COUNTERS.append(("kernels.gone", "conequant.kernels", "no_such_kernel"))
        with redirect_stdout(io.StringIO()) as notes:
            layers = run.run_traced(run.Loop(workdir, expected), CASES, 0)
        if "ghost" not in notes.getvalue() or "no_such_kernel" not in notes.getvalue():
            problems.append("missing trace targets were not reported as absent")
        for name in ("kernels.calls", "vlp.rounds", "polyhedra.dd_rows", "quantile.region_solves"):
            if not layers.get(name, 0) > 0:
                problems.append(f"traced run measured no {name}")

        # with only the CLI wrapped, no operation time is inside a layer span
        tracer.SPANS[:] = [t for t in tracer.SPANS if t[0] == "cli.main"]
        with redirect_stdout(io.StringIO()):
            bare = run.run_traced(run.Loop(workdir, expected), CASES, 0)
        if not bare["trace.coverage"] < 0.5 < layers["trace.coverage"]:
            problems.append("trace.coverage does not show time outside layer spans")

        shown = printed(e2e) | printed(layers)
        for metric in declared["end_to_end"] + declared["per_layer"]:
            if shown.get(metric["name"]) != metric["unit"]:
                problems.append(f"{metric['name']} not printed with unit {metric['unit']}")
        # printed beside the declared metrics, in seconds as the box ran them
        for name, unit in run.E2E_UNITS.items():
            if shown.get(name) != unit:
                problems.append(f"{name} not printed with unit {unit}")
        if shown.get("fail_ratio") != "ratio":
            problems.append("fail_ratio not printed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
