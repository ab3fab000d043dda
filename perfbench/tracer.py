"""Per-layer tracing from outside the program.

The tracer replaces layer entry points at the names their callers look them
up by (a module global such as ``conequant.vlp.solve_scalarized_lp``, a
module attribute such as ``conequant.kernels.proj_pairs`` or a class
attribute such as ``conequant.polyhedra._PointedCone.add_row``) and restores
the originals afterwards.  A target that no longer exists is reported as
absent and skipped, so renaming an internal never breaks a run; the time it
used to account for then shows up as its caller's self time.

Spans are ``[name, start_ns, end_ns, parent, op]`` lists kept in memory and
reduced only when the run ends.  Hot entry points that are too cheap to time
(``_adjacent`` runs millions of times per d=4 solve) get counters instead.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

# (span name, module, attribute path); the span name's prefix is its layer
SPANS = [
    ("cli.main", "conequant.cli", "main"),
    ("quantile.tukey_region", "conequant.cli", "tukey_region"),
    ("quantile.quantile_region", "conequant.cli", "quantile_region"),
    ("quantile.tukey_depth", "conequant.cli", "tukey_depth"),
    # the depth sweep calls tukey_region through its own module global
    ("quantile.tukey_region", "conequant.quantile", "tukey_region"),
    ("vlp.benson_dual_solve", "conequant.quantile", "benson_dual_solve"),
    ("univariate.solve_scalarized_lp", "conequant.vlp", "solve_scalarized_lp"),
    ("kernels.proj_pairs", "conequant.kernels", "proj_pairs"),
    ("kernels.sort_perm", "conequant.kernels", "sort_perm"),
    ("kernels.scalar_summary", "conequant.kernels", "scalar_summary"),
    ("polyhedra.add_row", "conequant.polyhedra", "_PointedCone.add_row"),
    ("polyhedra.ensure_vrep", "conequant.polyhedra", "Polyhedron._ensure_vrep"),
]
COUNTERS = [
    ("polyhedra.adjacent", "conequant.polyhedra", "_PointedCone._adjacent"),
    ("linalg.int_rank", "conequant._linalg", "int_rank"),
    ("vlp.engine_vertices", "conequant.vlp", "_engine_vertices"),
]
BENSON = "vlp.benson_dual_solve"
VREP = "polyhedra.ensure_vrep"


def _resolve(module: str, path: str):
    """(owner, attribute, current value), or None when any part is missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # look in the owner's own namespace so a class attribute is restored to
    # the class that defined it, not shadowed on a subclass
    value = vars(owner).get(attr)
    if not callable(value):
        return None
    return owner, attr, value


class Tracer:
    """Wraps layer entry points while installed; collects spans and counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.solve_stats: list = []  # BensonStats returned by each solve
        # vertex counts of each engine enumeration, keyed by the calling span
        self.enumerations: dict[int, list[int]] = defaultdict(list)
        self.live_rays_max = 0
        self.op = 0
        self._stack = [-1]
        self.absent: list[str] = []
        self._targets = []
        for name, module, path in SPANS + COUNTERS:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(f"{module}.{path}")
            else:
                self._targets.append((name, *found))

    def absent_layers(self) -> list[str]:
        layers = {name.split(".")[0] for name, _, _ in SPANS + COUNTERS}
        present = {name.split(".")[0] for name, *_ in self._targets}
        return sorted(layers - present)

    @contextmanager
    def installed(self, op: int):
        self.op = op
        for name, owner, attr, fn in self._targets:
            setattr(owner, attr, self._wrap(name, fn))
        try:
            yield self
        finally:
            for name, owner, attr, fn in self._targets:
                setattr(owner, attr, fn)

    def _wrap(self, name: str, fn):
        counts, stack = self.counts, self._stack
        if name == "polyhedra.adjacent":
            def adjacent(*args):
                result = fn(*args)
                counts[name] += 1
                if result:
                    counts[name + ".true"] += 1
                return result
            return adjacent
        if name == "linalg.int_rank":
            def int_rank(*args):
                counts[name] += 1
                return fn(*args)
            return int_rank
        if name == "vlp.engine_vertices":
            def engine_vertices(*args):
                result = fn(*args)
                self.enumerations[stack[-1]].append(len(result))
                return result
            return engine_vertices

        timed = self._span(name, fn)
        if name == BENSON:
            def benson(*args, **kwargs):
                result = timed(*args, **kwargs)
                self.solve_stats.append(getattr(result, "stats", None))
                return result
            return benson
        if name == "polyhedra.add_row":
            def add_row(engine, *args):
                result = timed(engine, *args)
                self.live_rays_max = max(self.live_rays_max, len(getattr(engine, "rays", ())))
                return result
            return add_row
        if name == VREP:
            def ensure_vrep(poly, *args):
                has_vrep = getattr(poly, "has_vrep", None)
                if has_vrep is not None and has_vrep():
                    return fn(poly, *args)  # cached: no conversion happens
                return timed(poly, *args)
            return ensure_vrep
        return timed

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def span(*args, **kwargs):
            sid = len(spans)
            rec = [name, 0, 0, stack[-1], self.op]
            spans.append(rec)
            stack.append(sid)
            rec[1] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()

        return span


def layer_metrics(tracer: Tracer, ops: int, op_ns: int) -> dict[str, float]:
    """Reduce the spans of ``ops`` traced operations (``op_ns`` in total) to
    per-operation layer metrics.  Times are seconds per operation."""
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start

    def nearest(sid: int, names: tuple[str, ...]) -> str | None:
        parent = spans[sid][3]
        while parent >= 0:
            if spans[parent][0] in names:
                return spans[parent][0]
            parent = spans[parent][3]
        return None

    self_ns: Counter = Counter()
    calls: Counter = Counter()
    top_ns = 0
    dd_ns = dd_rows = vrep_ns = vrep_calls = oracle_calls = 0
    for sid, (name, start, end, parent, _) in enumerate(spans):
        dur = end - start
        self_ns[name] += dur - child_ns[sid]
        calls[name] += 1
        if parent < 0:
            top_ns += dur
        if name == "polyhedra.add_row" and nearest(sid, (BENSON, VREP)) == BENSON:
            dd_ns += dur
            dd_rows += 1
        elif name == VREP:
            vrep_ns += dur
            vrep_calls += 1
        elif name == "kernels.scalar_summary" and nearest(sid, (BENSON,)):
            oracle_calls += 1

    # the last vertex enumeration of a solve only reads the result off
    checked = sum(sum(sizes[:-1]) for sizes in tracer.enumerations.values())
    stats = [st for st in tracer.solve_stats if st is not None]
    rounds = sum(getattr(st, "rounds", 0) for st in stats)
    cuts = sum(getattr(st, "cuts_added", 0) for st in stats)
    scalarizations = sum(getattr(st, "scalarizations", 0) for st in stats)

    def layer_self(prefix: str) -> int:
        return sum(v for k, v in self_ns.items() if k.startswith(prefix))

    greedy_calls = calls["univariate.solve_scalarized_lp"]
    adjacency = tracer.counts["polyhedra.adjacent"]
    s = 1e-9 / ops
    per_op = 1 / ops
    return {
        "univariate.greedy_s": self_ns["univariate.solve_scalarized_lp"] * s,
        "univariate.greedy_calls": greedy_calls * per_op,
        "kernels.self_s": layer_self("kernels.") * s,
        "kernels.calls": sum(v for k, v in calls.items() if k.startswith("kernels.")) * per_op,
        "vlp.benson_self_s": self_ns[BENSON] * s,
        "vlp.rounds": rounds * per_op,
        "vlp.cuts_added": cuts * per_op,
        "vlp.scalarizations": scalarizations * per_op,
        "vlp.vertices_checked": checked * per_op,
        "vlp.oracle_calls": oracle_calls * per_op,
        "vlp.oracle_hit_ratio": 1 - oracle_calls / checked if checked else 0.0,
        "vlp.new_cut_ratio": cuts / greedy_calls if greedy_calls else 0.0,
        "polyhedra.dd_insert_s": dd_ns * s,
        "polyhedra.dd_rows": dd_rows * per_op,
        "polyhedra.adjacency_tests": adjacency * per_op,
        "polyhedra.adjacent_ratio": (
            tracer.counts["polyhedra.adjacent.true"] / adjacency if adjacency else 0.0
        ),
        "linalg.int_rank_calls": tracer.counts["linalg.int_rank"] * per_op,
        "polyhedra.live_rays_max": float(tracer.live_rays_max),
        "polyhedra.vrep_s": vrep_ns * s,
        "polyhedra.vrep_calls": vrep_calls * per_op,
        "quantile.region_solves": (
            calls["quantile.tukey_region"] + calls["quantile.quantile_region"]
        ) * per_op,
        "quantile.self_s": layer_self("quantile.") * s,
        "cli.self_s": self_ns["cli.main"] * s,
        # share of operation time inside layer spans below the CLI: parsing,
        # serialization, the wrapper itself and a solve whose entry point is
        # no longer wrapped all lower it
        "trace.coverage": (top_ns - self_ns["cli.main"]) / op_ns if op_ns else 0.0,
    }
