"""Seeded inputs and the operation mix of each workload.

Every input is a ``random.Random`` integer cloud with coordinates in
[-20, 20]; levels are ``(2k-1)/(2N)`` so ``N*p`` is never integral and the
count threshold is exactly k.  The solver only sees the files written here;
the seed never reaches it.

Why each workload exists (the layer it makes dominant):

* ``planar``  d=2 Tukey regions at a low, a middle and a high depth plus one
  region over a non-orthant cone.  The greedy cut and the scalar kernels do
  most of the work; the double description engine does little.
* ``spatial`` d=3 and d=4 Tukey regions plus one d=3 cone region.  The
  double description engine (Benson insertion and the final
  V-representation) does most of the work; the greedy cut is minor.
* ``depth``   d=2 depth queries for a deep point, a shallow point and a
  point outside the hull.  The depth sweep runs up to N small solves per
  query and tests membership on the H-representation, so it needs almost no
  V-representation.

One pass runs every template on ``copies`` clouds of its own, so a run
averages over many clouds: one cloud's cost varies by 10-25 % with the seed.
A run is made of whole passes, and ``copies`` is chosen so that one pass
takes a little over the benchmark's 20 s run time on a 2-core x86 box;
parent and change then time the same clouds.  Each copy is laid out so
that as many operations are cheaper than the middle-sized templates as are
dearer, so the median operation time falls in the middle of that size class
rather than on the step between two sizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

COORD = 20
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Case:
    """One operation: a CLI call on generated files.

    ``kind`` is ``tukey``, ``region`` or ``depth``; ``k`` is the count
    threshold of the level and ``query`` the point whose depth is asked.
    """

    name: str
    template: str
    kind: str
    points: tuple[tuple[int, ...], ...]
    k: int = 0
    cone: tuple[tuple[int, ...], ...] = ()
    query: tuple[int, ...] = ()

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return len(self.points[0])

    @property
    def p(self) -> str:
        return f"{2 * self.k - 1}/{2 * self.n}"

    def argv(self, workdir: Path) -> list[str]:
        data = str(workdir / f"{self.name}.csv")
        if self.kind == "depth":
            # "--" keeps a query with a negative first coordinate positional
            return ["depth", data, "--", ",".join(map(str, self.query))]
        out = ["--out", str(self.output_path(workdir))]
        if self.kind == "tukey":
            return ["tukey", data, "--p", self.p, *out]
        return ["region", data, "--p", self.p, "--cone", str(workdir / f"{self.name}.cone"), *out]

    def output_path(self, workdir: Path) -> Path | None:
        return None if self.kind == "depth" else workdir / f"{self.name}.json"

    def write(self, workdir: Path) -> None:
        rows = "\n".join(",".join(map(str, p)) for p in self.points)
        (workdir / f"{self.name}.csv").write_text(rows + "\n")
        if self.kind == "region":
            gens = "\n".join(",".join(map(str, g)) for g in self.cone)
            (workdir / f"{self.name}.cone").write_text(gens + "\n")


def _cloud(rng: random.Random, n: int, d: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(rng.randint(-COORD, COORD) for _ in range(d)) for _ in range(n))


def _median_point(points) -> tuple[int, ...]:
    """Coordinate-wise lower median: a point deep inside the cloud."""
    return tuple(sorted(c)[(len(points) - 1) // 2] for c in zip(*points))


def _query(rng: random.Random, role: str, points) -> tuple[int, ...]:
    if role == "deep":
        return _median_point(points)
    if role == "shallow":
        # next to the point with the largest first coordinate, one unit inward
        top = max(points)
        return (top[0] - 1, top[1])
    return (COORD + 1 + rng.randint(0, 5), rng.randint(-COORD, COORD))


CONE2 = ((2, 1), (-1, 3))
CONE3 = ((1, 0, 0), (1, 2, 0), (0, 1, 3), (1, -1, 1))

# per workload: (copies, templates); a template is (name, kind, N, d, k or
# depth-query role, cone)
WORKLOADS = {
    "planar": (2, [
        ("region-k40", "region", 150, 2, 40, CONE2),
        ("tukey-k10", "tukey", 150, 2, 10, ()),
        ("tukey-k30a", "tukey", 150, 2, 30, ()),
        ("tukey-k30b", "tukey", 150, 2, 30, ()),
        ("tukey-k50a", "tukey", 150, 2, 50, ()),
        ("tukey-k50b", "tukey", 150, 2, 50, ()),
    ]),
    "spatial": (3, [
        ("region3-k8", "region", 30, 3, 8, CONE3),
        ("tukey3-k5a", "tukey", 20, 3, 5, ()),
        ("tukey3-k5b", "tukey", 20, 3, 5, ()),
        ("tukey3-k5c", "tukey", 20, 3, 5, ()),
        ("tukey4-k2", "tukey", 12, 4, 2, ()),
    ]),
    "depth": (2, [
        ("depth-deep", "depth", 30, 2, "deep", ()),
        ("depth-shallow", "depth", 30, 2, "shallow", ()),
        ("depth-outside", "depth", 30, 2, "outside", ()),
        ("depth-outside-b", "depth", 30, 2, "outside", ()),
    ]),
}


def cases_for(workload: str, seed: int) -> list[Case]:
    """One pass of a workload: every template on ``copies`` clouds of its
    own, one copy of each template after the other.  The same
    seed gives the same cases."""
    rng = random.Random(f"{workload}:{seed}")
    copies, templates = WORKLOADS[workload]
    cases = []
    for copy in range(copies):
        for name, kind, n, d, k, cone in templates:
            points = _cloud(rng, n, d)
            if kind == "depth":
                case = Case(f"{name}.{copy}", name, kind, points, query=_query(rng, k, points))
            else:
                case = Case(f"{name}.{copy}", name, kind, points, k=k, cone=cone)
            cases.append(case)
    return cases


def write_inputs(workload: str, seed: int, workdir: Path) -> list[Case]:
    workdir.mkdir(parents=True, exist_ok=True)
    cases = cases_for(workload, seed)
    for case in cases:
        case.write(workdir)
    return cases
