"""Output checks that do not use the program's own code.

Every operation's output is hashed.  For the default seed the hash must
equal the committed one in ``expected.json`` (cross-checked once against the
independent oracles by ``crosscheck.py``).  For any seed, the first output of
a case must pass the checks below, and every later output of that case must
repeat it byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from functools import cmp_to_key
from math import lcm

from workloads import Case


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_output(case: Case, data: bytes) -> str | None:
    """Why the output is wrong, or None when it passes."""
    if case.kind == "depth":
        try:
            got = int(data.decode().strip())
        except ValueError:
            return f"depth output is not an integer: {data[:40]!r}"
        want = planar_depth(case.points, case.query)
        return None if got == want else f"depth {got}, expected {want}"
    try:
        doc = json.loads(data)
        # w.x >= t as integers (w, t), and each vertex as (numerators, denominator)
        halfspaces = [_integral([*h["w"], h["t"]]) for h in doc["halfspaces"]]
        vertices = [_integral(v) for v in doc["vertices"]]
        echo = doc["input"]
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return f"malformed region document: {exc!r}"
    if (echo.get("points"), echo.get("dim"), echo.get("ceil_np")) != (case.n, case.dim, case.k):
        return f"document echoes the wrong input: {echo}"
    if doc.get("empty") or not vertices or not halfspaces:
        return "region is empty"
    for (v, den), raw in zip(vertices, doc["vertices"]):
        for (*w, t), _ in halfspaces:
            if sum(a * b for a, b in zip(w, v)) < t * den:
                return f"vertex {raw} violates a defining halfspace"
    return None


def _integral(values) -> tuple[list[int], int]:
    """Exact rationals as integer numerators over one positive denominator."""
    fracs = [Fraction(c) for c in values]
    den = lcm(*(f.denominator for f in fracs))
    return [int(f * den) for f in fracs], den


def _angle_cmp(a, b) -> int:
    """Counter-clockwise order of nonzero integer directions from angle 0."""
    ha = 0 if a[1] > 0 or (a[1] == 0 and a[0] > 0) else 1
    hb = 0 if b[1] > 0 or (b[1] == 0 and b[0] > 0) else 1
    if ha != hb:
        return ha - hb
    cross = a[0] * b[1] - a[1] * b[0]
    return -1 if cross > 0 else (1 if cross < 0 else 0)


def planar_depth(points, z) -> int:
    """Tukey depth of z in a planar cloud: the least count of points in a
    closed halfplane whose boundary passes through z.

    The count only changes where the boundary turns past a point, so it is
    enough to try one direction inside each arc between consecutive normals
    of the vectors x - z.  Exact integer arithmetic throughout.
    """
    scale = lcm(*(Fraction(c).denominator for c in z))
    zs = [int(Fraction(c) * scale) for c in z]
    vecs = [(x[0] * scale - zs[0], x[1] * scale - zs[1]) for x in points]
    at_z = sum(1 for v in vecs if v == (0, 0))
    normals = set()
    for vx, vy in vecs:
        if (vx, vy) != (0, 0):
            normals.add((-vy, vx))
            normals.add((vy, -vx))
    if not normals:
        return at_z
    ordered = sorted(normals, key=cmp_to_key(_angle_cmp))
    best = len(points)
    for i, a in enumerate(ordered):
        b = ordered[(i + 1) % len(ordered)]
        cross = a[0] * b[1] - a[1] * b[0]
        # a strictly interior direction of the arc from a to b
        mid = (a[0] + b[0], a[1] + b[1]) if cross > 0 else (-a[1], a[0])
        count = sum(1 for vx, vy in vecs if mid[0] * vx + mid[1] * vy <= 0)
        best = min(best, count)
    return best
