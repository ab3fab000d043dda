"""Exact simplex with native variable bounds and Bland's rule.

A dense two-phase tableau solver, and the pinball-loss program that
``uniquantile --check`` solves with it as an independent check of the direct
quantile.  Bland's smallest-index rule (applied to entering and leaving
choices, with an entering variable's own opposite bound competing by its
index) guarantees termination; determinism is total, identical inputs
produce identical pivot sequences.

The tableau holds only integers.  With D > 0 the absolute determinant of
the basis B, it holds T = D B^-1 [A | I], the basic values X = D x_B and the
reduced costs R = D r.  Each pivot is ``_linalg.bareiss_step``, the step
that ``echelon`` takes.  The program is first made integral:

- variable j becomes x'_j = s_j x_j, with s_j the lcm of its bound
  denominators;
- row i is multiplied by r_i, the lcm of the denominators of b_i and of
  every A_ij / s_j, so its slack and its artificial become r_i times theirs;
- artificial i gets the phase-1 cost M / r_i, with M = lcm(r);
- the phase-2 objective c_j / s_j is multiplied by the lcm ``cden`` of its
  denominators.

Every variable is rescaled by a positive factor, and each phase's objective
by one positive factor, so every reduced cost keeps its sign.  For one
entering variable every step, its own range included, is multiplied by the
same factor, so the steps keep their order and their ties.  The phase-1
residuals keep their signs.  So Bland's rule makes the same choices as on
the unscaled program, and the outcome is unscaled at the end:
x_j = x'_j / s_j, y_i = flip r_i y'_i / cden (a Farkas y_i = r_i y'_i / M)
and reduced_j = flip s_j R_j / (D cden), where flip is -1 for a max.
Per-row and per-column scales keep the entries small; one global scale
would be as exact, but it makes every entry and D far larger.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from ._linalg import bareiss_step
from .core import DataCloud, QuantileLevel, _check_fit, as_vector, project_data
from .errors import InternalInvariantError, MalformedProgram

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_BASIC = 0
_AT_LO = 1
_AT_UP = 2
_FREE = 3

Bound = tuple[Fraction | None, Fraction | None]


def _opt_frac(x) -> Fraction | None:
    return None if x is None else Fraction(x)


@dataclass(frozen=True)
class LinearProgram:
    """min or max of objective.x subject to rows, relations, rhs and bounds.

    Bounds are (lower, upper) pairs per variable with None for unbounded
    sides; box constraints are handled natively by the solver, not as rows.
    """

    sense: str
    objective: tuple[Fraction, ...]
    rows: tuple[tuple[Fraction, ...], ...]
    relations: tuple[str, ...]
    rhs: tuple[Fraction, ...]
    bounds: tuple[Bound, ...]

    def __post_init__(self) -> None:
        if self.sense not in ("min", "max"):
            raise MalformedProgram(f"sense must be 'min' or 'max', got {self.sense!r}")
        object.__setattr__(self, "objective", as_vector(self.objective))
        object.__setattr__(self, "rows", tuple(as_vector(r) for r in self.rows))
        object.__setattr__(self, "rhs", as_vector(self.rhs))
        object.__setattr__(
            self, "bounds", tuple((_opt_frac(lo), _opt_frac(hi)) for lo, hi in self.bounds)
        )
        n = len(self.objective)
        m = len(self.rows)
        if len(self.relations) != m or len(self.rhs) != m:
            raise MalformedProgram("row count mismatch between rows, relations and rhs")
        if any(len(r) != n for r in self.rows):
            raise MalformedProgram("constraint row width does not match the objective")
        if any(rel not in ("<=", "=", ">=") for rel in self.relations):
            raise MalformedProgram("relations must be '<=', '=' or '>='")
        if len(self.bounds) != n:
            raise MalformedProgram("bounds count does not match the variable count")
        for lo, hi in self.bounds:
            if lo is not None and hi is not None and lo > hi:
                raise MalformedProgram(f"lower bound {lo} exceeds upper bound {hi}")

    @property
    def nvars(self) -> int:
        return len(self.objective)

    @property
    def nrows(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class LpOutcome:
    """Solver result with exact certificates.

    For an optimal outcome, ``y`` are the row multipliers, read off the
    final tableau's reduced costs of the artificial columns, and
    ``reduced_costs`` the structural reduced costs c - A^T y; the identity
    value = y.b + sum of reduced costs times finite nonbasic bounds holds
    exactly.  For an infeasible outcome ``y`` is a Farkas certificate:
    y.b exceeds the maximum of y.Ax over the variable box.
    """

    status: str
    value: Fraction | None = None
    x: tuple[Fraction, ...] | None = None
    y: tuple[Fraction, ...] | None = None
    reduced_costs: tuple[Fraction, ...] | None = None


def _scaled(v: Fraction | None, k: int) -> int | None:
    """The integer v * k, or None for a missing bound."""
    return None if v is None else v.numerator * k // v.denominator


class _Simplex:
    """The scaled program's tableau: ``tab`` holds the m rows of T, each
    with its X entry appended, then R.  Columns are the structural
    variables, one slack per inequality row and one artificial per row."""

    def __init__(self, lp: LinearProgram) -> None:
        m = self.m = lp.nrows
        s = self.s = [lcm(*(b.denominator for b in bnd if b is not None)) for bnd in lp.bounds]
        self.rs = []
        for row, b in zip(lp.rows, lp.rhs):
            # a / s_j = p / (q s_j) has the denominator q s_j / gcd(p, s_j)
            dens = (a.denominator * sj // gcd(a.numerator, sj) for a, sj in zip(row, s))
            self.rs.append(lcm(b.denominator, *dens))
        self.lo = [_scaled(lo, sj) for (lo, _), sj in zip(lp.bounds, s)]
        self.hi = [_scaled(hi, sj) for (_, hi), sj in zip(lp.bounds, s)]
        rows = [
            [a.numerator * r // (a.denominator * sj) for a, sj in zip(row, s)]
            for row, r in zip(lp.rows, self.rs)
        ]
        for i, rel in enumerate(lp.relations):
            if rel != "=":  # a slack, nonnegative for <= and nonpositive for >=
                for k, row in enumerate(rows):
                    row.append(int(k == i))
                self.lo.append(0 if rel == "<=" else None)
                self.hi.append(None if rel == "<=" else 0)
        self.status = [
            _AT_LO if lo is not None else _AT_UP if hi is not None else _FREE
            for lo, hi in zip(self.lo, self.hi)
        ] + [_BASIC] * m
        self.n_real = len(self.lo)
        self.ncols = self.n_real + m
        self.lo += [0] * m
        self.hi += [None] * m
        self.basis = list(range(self.n_real, self.ncols))
        self.D = 1
        # artificial i has the column sign_i e_i that starts it at the
        # absolute value of row i's residual; R is set per phase
        self.signs, self.tab = [], []
        for i, row in enumerate(rows):
            resid = _scaled(lp.rhs[i], self.rs[i]) - sum(
                a * self.value(j) for j, a in enumerate(row) if a
            )
            sign = 1 if resid >= 0 else -1
            self.signs.append(sign)
            unit = [int(k == i) for k in range(m)]
            self.tab.append([sign * a for a in row] + unit + [abs(resid)])
        self.tab.append([])

    def value(self, j: int) -> int | Fraction:
        """x'_j: X_i / D if j is basic in row i, else the bound its status
        names, 0 for a free variable."""
        st = self.status[j]
        if st == _BASIC:
            return Fraction(self.tab[self.basis.index(j)][-1], self.D)
        return self.lo[j] if st == _AT_LO else self.hi[j] if st == _AT_UP else 0

    def set_objective(self, cost: list[int]) -> None:
        """R = D c - c_B T."""
        self.cost = cost
        tab, D = self.tab, self.D
        R = [D * c for c in cost]
        for i in range(self.m):
            cb = cost[self.basis[i]]
            if cb:
                R = [v - cb * t for v, t in zip(R, tab[i])]
        tab[-1] = R

    def iterate(self) -> str:
        m, ncols, lo, hi, status = self.m, self.ncols, self.lo, self.hi, self.status
        tab = self.tab
        while True:
            R = tab[-1]
            for j in range(ncols):
                st = status[j]
                if st == _BASIC or (lo[j] is not None and lo[j] == hi[j]):
                    continue
                if R[j] < 0 and st != _AT_UP:
                    dirn = 1
                    break
                if R[j] > 0 and st != _AT_LO:
                    dirn = -1
                    break
            else:
                return OPTIMAL
            # ratio test: the step until a basic variable hits a bound is
            # num / eff; Bland takes the least step, then the least index,
            # and the entering variable's own range competes as index j
            leave, best = ncols, None
            if lo[j] is not None and hi[j] is not None:
                leave, best = j, (hi[j] - lo[j], 1)
            D = self.D
            for i in range(m):
                row = tab[i]
                eff = dirn * row[j]
                if not eff:
                    continue
                var = self.basis[i]
                hit, bound = (_AT_LO, lo[var]) if eff > 0 else (_AT_UP, hi[var])
                if bound is None:
                    continue
                num = row[-1] - D * bound
                if eff < 0:
                    num, eff = -num, -eff
                if best is None or (
                    num * best[1] < best[0] * eff
                    or (num * best[1] == best[0] * eff and var < leave)
                ):
                    leave, best, leave_row, leave_hit, leave_bound = var, (num, eff), i, hit, bound
            if best is None:
                return UNBOUNDED
            if leave == j:  # bound flip
                step = dirn * best[0]
                for row in tab[:m]:
                    row[-1] -= step * row[j]
                status[j] = _AT_UP if dirn > 0 else _AT_LO
                continue
            # move x_j's value into the right-hand side, pivot, then move the
            # leaving variable's bound value out of it
            start = self.value(j)
            if start:
                for row in tab[:m]:
                    row[-1] += start * row[j]
            self.D = bareiss_step(tab, leave_row, j, D)
            if leave_bound:
                for row in tab[:m]:
                    row[-1] -= leave_bound * row[leave]
            status[leave] = leave_hit
            status[j] = _BASIC
            self.basis[leave_row] = j

    def duals(self, scale: int) -> tuple[Fraction, ...]:
        """y = B^-T c_B of the unscaled program, whose objective is the
        scaled one divided by ``scale``.  Artificial a of row i has the column
        sign_i e_i and the reduced cost R_a / D = c_a - sign_i y'_i, so
        y'_i = sign_i (c_a - R_a / D) and y_i = r_i y'_i / scale."""
        a, D, R = self.n_real, self.D, self.tab[-1]
        return tuple(
            Fraction(r * sign * (self.cost[a + i] * D - R[a + i]), D * scale)
            for i, (r, sign) in enumerate(zip(self.rs, self.signs))
        )


def simplex_solve(lp: LinearProgram) -> LpOutcome:
    """Solve exactly; statuses are optimal, infeasible or unbounded."""
    sx = _Simplex(lp)
    art = range(sx.n_real, sx.ncols)
    M = lcm(*sx.rs)
    sx.set_objective([0] * sx.n_real + [M // r for r in sx.rs])
    if sx.iterate() != OPTIMAL:
        raise InternalInvariantError(
            "phase 1 is bounded below by zero but did not end optimal"
        )
    if any(sx.value(j) for j in art):
        return LpOutcome(status=INFEASIBLE, y=sx.duals(M))
    # pin artificials to zero and switch to the real objective
    for j in art:
        sx.lo[j] = sx.hi[j] = 0
        if sx.status[j] != _BASIC:
            sx.status[j] = _AT_LO
    flip = -1 if lp.sense == "max" else 1
    cs = [c / s for c, s in zip(lp.objective, sx.s)]
    cden = lcm(*(c.denominator for c in cs))
    sx.set_objective([flip * _scaled(c, cden) for c in cs] + [0] * (sx.ncols - lp.nvars))
    if sx.iterate() == UNBOUNDED:
        return LpOutcome(status=UNBOUNDED)
    x = tuple(Fraction(sx.value(j)) / s for j, s in enumerate(sx.s))
    R = sx.tab[-1]
    return LpOutcome(
        status=OPTIMAL,
        value=sum((cj * xj for cj, xj in zip(lp.objective, x)), Fraction(0)),
        x=x,
        y=sx.duals(flip * cden),
        reduced_costs=tuple(Fraction(flip * s * R[j], sx.D * cden) for j, s in enumerate(sx.s)),
    )


def build_lp_dual(cloud: DataCloud, level: QuantileLevel, w) -> LinearProgram:
    """The dual of the scalarized transport program (maximize
    sum_i (w.x_i)(u_i - v_i) subject to sum u = sum v, 0 <= u <= p and
    0 <= v <= 1-p) as a 2N+1 variable equality-form program.

    Variables (t, a_1..a_N, b_1..b_N): minimize sum p*a_i + (1-p)*b_i subject
    to t + a_i - b_i = w.x_i with a, b >= 0 and t free.  At the optimum a and
    b are the positive and negative parts of w.x_i - t, so the objective is
    the pinball loss and the optimal t is its minimizer.
    """
    z = project_data(cloud, w)
    _check_fit(cloud, level, None)
    n = cloud.n
    zero, one = Fraction(0), Fraction(1)
    rows = []
    for i in range(n):
        row = [zero] * (2 * n + 1)
        row[0] = one
        row[1 + i] = one
        row[1 + n + i] = -one
        rows.append(tuple(row))
    return LinearProgram(
        sense="min",
        objective=(zero,) + (level.p,) * n + (1 - level.p,) * n,
        rows=tuple(rows),
        relations=("=",) * n,
        rhs=z,
        bounds=((None, None),) + ((zero, None),) * (2 * n),
    )
