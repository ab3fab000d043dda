"""End-to-end benchmark of conequant's ``tukey``, ``region`` and ``depth``
commands, with an optional per-layer traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload planar --seed 0 --seconds 20 --trace 0

One client, a closed loop, no threads: each operation calls
``conequant.cli.main`` in-process on seeded input files, exactly as
``conequant tukey ...`` would, so argument and CSV parsing, the solve, the
V-representation and document serialization are all timed.  Operations
run in whole passes over the workload's cases until ``--seconds`` have
passed, so every case runs equally often.  Every output is checked (see
``checks.py``); a failed operation is one that raises, exits non-zero or
gives other bytes.

A calibration pass of fixed pure-Python work runs before and after every
operation.  The declared throughput and median are in reference seconds
(``ref_s``): each operation's time divided by the box slowdown those two
passes measured, so that a core shared with other tenants, whose speed
drifts by up to 2x over minutes, moves them far less than it moves the plain
seconds.  The plain seconds are printed too.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every case
untraced and traced in turn, whole cycles only so counts repeat exactly, and
reports the per-layer metrics of the traced operations plus the tracing
overhead.  The last line of standard output is the JSON result; the lines
before it give the environment, the digests and every metric with its unit.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter, perf_counter_ns

import workloads
from checks import check_output, digest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 7
# nominal time of one calibration pass: a reference second (ref_s) is a
# second on a box that runs the pass in this time
CALIBRATION_S = 0.05
E2E_UNITS = {
    "ops_per_ref_s": "1/ref_s",
    "op_ref_s.p50": "ref_s",
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "box_slowdown": "ratio",
}


def calibrate() -> float:
    """Seconds taken by a fixed pass of pure-Python work of the solver's
    kinds: exact rational arithmetic, integer arithmetic and sorting.

    On a shared box the speed of one core drifts by up to 2x over minutes,
    for this pass much as for the solver, so an operation timed between two
    passes is converted to reference seconds by their mean.
    """
    start = perf_counter_ns()
    acc = Fraction(0)
    for i in range(1, 4200):
        acc += Fraction(i % 17 - 8, i % 13 + 1) * Fraction(3, i % 7 + 1)
    sorted((i * 7919 + acc.numerator) % 10007 for i in range(70000))
    return (perf_counter_ns() - start) * 1e-9


class Loop:
    """Runs operations, checks each output and keeps their times."""

    def __init__(self, workdir: Path, expected: dict[str, str] | None) -> None:
        import conequant.cli

        self.cli = conequant.cli
        self.workdir = workdir
        self.expected = expected
        self.reference: dict[str, str] = {}  # case name -> first output's digest
        self.times: dict[str, list[int]] = {}  # template -> operation times (ns)
        self.ref_times: list[float] = []  # operation times in reference seconds
        self.slowdowns: list[float] = []  # box slowdown measured around each operation
        self._calibration = None  # the last calibration pass, in seconds
        self.attempted = 0
        self.failed = 0

    def run(self, case: workloads.Case) -> int:
        """Run one operation; returns its time in ns."""
        out = case.output_path(self.workdir)
        if out is not None and out.exists():
            out.unlink()
        stdout, stderr = io.StringIO(), io.StringIO()
        argv = case.argv(self.workdir)
        before = self._calibration or calibrate()
        start = perf_counter_ns()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = self.cli.main(argv)
        except Exception:  # an operation that raises is a failure, not the end of the run
            code = traceback.format_exc()
        elapsed = perf_counter_ns() - start
        self._calibration = calibrate()
        slowdown = (before + self._calibration) / 2 / CALIBRATION_S
        self.attempted += 1
        self.times.setdefault(case.template, []).append(elapsed)
        self.ref_times.append(elapsed * 1e-9 / slowdown)
        self.slowdowns.append(slowdown)
        reason = self._verify(case, code, out, stdout.getvalue(), stderr.getvalue())
        if reason is not None:
            self.failed += 1
            print(f"FAIL {case.name}: {reason}", file=sys.stderr)
        return elapsed

    def _verify(self, case, code, out, stdout, stderr) -> str | None:
        if code != 0:
            return f"exit {code!r}: {stderr.strip()[-500:]}"
        data = out.read_bytes() if out is not None else stdout.encode()
        got = digest(data)
        ref = self.reference.get(case.name)
        if ref is None:
            reason = check_output(case, data)
            if reason is not None:
                return reason
            if self.expected is not None and got != self.expected.get(case.name):
                return f"digest {got} differs from the committed one"
            self.reference[case.name] = got
        elif got != ref:
            return f"digest {got} differs from this run's first output {ref}"
        return None


def measure_setup(workload: str, seed: int, workdir: Path) -> list[float]:
    """Wall time of fresh set-up processes; the last one's files are used."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(workdir)],
            check=True,
        )
        times.append(perf_counter() - start)
    return times


def end_to_end(loop: Loop, setup: list[float]) -> dict[str, float]:
    """Throughput is correct operations per second of operation time.  The
    ``ref_s`` forms are in reference seconds (see ``calibrate``); the plain
    forms are in seconds as this box ran them."""
    all_times = [t for ts in loop.times.values() for t in ts]
    ok = loop.attempted - loop.failed
    return {
        "ops_per_ref_s": ok / sum(loop.ref_times),
        "op_ref_s.p50": statistics.median(loop.ref_times),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_per_s": ok / (sum(all_times) * 1e-9),
        "op_s.p50": statistics.median(all_times) * 1e-9,
        "box_slowdown": statistics.median(loop.slowdowns),
    }


def run_untraced(loop: Loop, cases, seconds: float) -> None:
    """Run whole passes over all cases until the time is up.  Stopping only
    between passes times every case equally often, so a faster program is
    measured on the same inputs as a slower one."""
    deadline = perf_counter() + seconds
    while True:
        for case in cases:
            loop.run(case)
        if perf_counter() >= deadline:
            return


def run_traced(loop: Loop, cases, seconds: float) -> dict[str, float]:
    """Run the first copy of every template untraced and traced in turn,
    whole sets only, so that the traced counts repeat exactly."""
    from tracer import Tracer, layer_metrics

    templates = {}
    for case in cases:
        templates.setdefault(case.template, case)
    tracer = Tracer()
    plain_ns = traced_ns = traced_ops = 0
    deadline = perf_counter() + seconds
    cycle = 0
    while True:
        for case in templates.values():
            # alternate which of the pair goes first, so warm-up favours neither
            for traced in ((False, True) if cycle % 2 == 0 else (True, False)):
                if traced:
                    with tracer.installed(loop.attempted):
                        traced_ns += loop.run(case)
                    traced_ops += 1
                else:
                    plain_ns += loop.run(case)
        cycle += 1
        if perf_counter() >= deadline:
            break
    metrics = layer_metrics(tracer, traced_ops, traced_ns)
    metrics["trace.overhead_ratio"] = traced_ns / plain_ns - 1
    if tracer.absent:
        print("absent trace targets: " + ", ".join(tracer.absent))
    print("absent layers: " + (", ".join(tracer.absent_layers()) or "none"))
    return metrics


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio") or name == "trace.coverage":
        return "ratio"
    return "count"


def report(metrics: dict[str, float]) -> dict[str, dict]:
    """Print every metric by name with its unit; return the JSON form."""
    out = {}
    for name, value in metrics.items():
        unit = unit_of(name)
        print(f"{name:32s} {value:.6g} {unit}")
        out[name] = {"value": value, "unit": unit}
    return out


def environment(seed: int) -> dict:
    import conequant

    kernels = sys.modules.get("conequant.kernels")
    return {
        "python": sys.version.split()[0],
        "kernels_backend": getattr(kernels, "BACKEND", "absent"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "conequant": str(Path(conequant.__file__).parent),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "conequant" / "__init__.py").is_file():
        print(f"error: no conequant sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup = measure_setup(args.workload, args.seed, workdir)
        cases = workloads.cases_for(args.workload, args.seed)
        expected = None
        if args.seed == workloads.DEFAULT_SEED:
            expected = json.loads((HERE / "expected.json").read_text())["digests"][args.workload]
        loop = Loop(workdir, expected)
        print("env: " + json.dumps(environment(args.seed)))
        if args.trace:
            metrics = run_traced(loop, cases, args.seconds)
        else:
            run_untraced(loop, cases, args.seconds)
            metrics = end_to_end(loop, setup)
            metrics["fail_ratio"] = loop.failed / loop.attempted
            print(f"op_s.p50 samples: {loop.attempted}")
            for template, times in loop.times.items():
                print(f"template {template}: {len(times)} ops, mean {statistics.fmean(times) * 1e-9:.4f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ran = [c.name for c in cases if c.name in loop.reference]
    for name in ran:
        print(f"digest {name}: {loop.reference[name]}")
    combined = digest("".join(loop.reference[name] for name in ran).encode())
    print(f"digest {args.workload} seed {args.seed}: {combined}")
    shown = report(metrics)
    # the result carries only the metrics BENCHMARK.json declares for this
    # mode; fail_ratio is carried by "failed" and "attempted", and the plain
    # times drift with the box
    for name in ("fail_ratio", "ops_per_s", "op_s.p50", "box_slowdown"):
        shown.pop(name, None)
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": shown,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
