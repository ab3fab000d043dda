"""Exact rational simplex with native variable bounds and Bland's rule.

A dense two-phase tableau solver over Fractions, and the pinball-loss
program that ``uniquantile --check`` solves with it as an independent check
of the direct quantile.  Bland's smallest-index rule (applied to entering and
leaving choices, with an entering variable's own opposite bound competing by
its index) guarantees termination; determinism is total, identical inputs
produce identical pivot sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


class _Simplex:
    def __init__(self, lp: LinearProgram) -> None:
        self.lp = lp
        n, m = lp.nvars, lp.nrows
        self.m = m
        self.n_struct = n
        lo: list[Fraction | None] = [b[0] for b in lp.bounds]
        hi: list[Fraction | None] = [b[1] for b in lp.bounds]
        cols: list[list[Fraction]] = [list(row) for row in lp.rows]
        for i, rel in enumerate(lp.relations):
            if rel == "=":
                continue
            for k in range(m):
                cols[k].append(Fraction(int(k == i)))
            if rel == "<=":
                lo.append(Fraction(0))
                hi.append(None)
            else:  # ">=": nonpositive slack
                lo.append(None)
                hi.append(Fraction(0))
        self.n_real = len(lo)  # structural + slack
        # one artificial per row
        for i in range(m):
            lo.append(Fraction(0))
            hi.append(None)
        self.lo = lo
        self.hi = hi
        self.ncols = self.n_real + m
        self.A = cols  # artificial columns appended during phase-1 setup
        self.basis: list[int] = []
        self.status: list[int] = []
        self.signs: list[int] = []
        self.T: list[list[Fraction]] = []
        self.xb: list[Fraction] = []
        self.r: list[Fraction] = []

    def _start_value(self, j: int) -> Fraction:
        if self.lo[j] is not None:
            return self.lo[j]
        if self.hi[j] is not None:
            return self.hi[j]
        return Fraction(0)

    def _nonbasic_status(self, j: int) -> int:
        if self.lo[j] is not None:
            return _AT_LO
        if self.hi[j] is not None:
            return _AT_UP
        return _FREE

    def setup_phase1(self) -> None:
        m = self.m
        resid = []
        for i in range(m):
            acc = self.lp.rhs[i]
            row = self.A[i]
            for j in range(self.n_real):
                v = self._start_value(j)
                if v != 0 and row[j] != 0:
                    acc -= row[j] * v
            resid.append(acc)
        self.signs = signs = [1 if rv >= 0 else -1 for rv in resid]
        for i in range(m):
            for k in range(m):
                self.A[k].append(Fraction(int(k == i) * signs[i]))
        self.status = [self._nonbasic_status(j) for j in range(self.n_real)]
        self.status += [_BASIC] * m
        self.basis = [self.n_real + i for i in range(m)]
        self.T = [[signs[i] * v for v in self.A[i]] for i in range(m)]
        self.xb = [abs(rv) for rv in resid]
        c1 = [Fraction(0)] * self.n_real + [Fraction(1)] * m
        self.set_objective(c1)

    def set_objective(self, c: list[Fraction]) -> None:
        r = list(c)
        for i in range(self.m):
            cb = c[self.basis[i]]
            if cb != 0:
                row = self.T[i]
                for j in range(self.ncols):
                    if row[j] != 0:
                        r[j] -= cb * row[j]
        self.r = r

    def value_of(self, j: int) -> Fraction:
        st = self.status[j]
        if st == _BASIC:
            return self.xb[self.basis.index(j)]
        if st == _AT_LO:
            return self.lo[j]
        if st == _AT_UP:
            return self.hi[j]
        return Fraction(0)

    def iterate(self) -> str:
        m, ncols = self.m, self.ncols
        while True:
            enter = -1
            dirn = 0
            for j in range(ncols):
                st = self.status[j]
                if st == _BASIC:
                    continue
                if self.lo[j] is not None and self.lo[j] == self.hi[j]:
                    continue  # fixed
                rc = self.r[j]
                if rc < 0 and st in (_AT_LO, _FREE):
                    enter, dirn = j, 1
                    break
                if rc > 0 and st in (_AT_UP, _FREE):
                    enter, dirn = j, -1
                    break
            if enter < 0:
                return OPTIMAL
            j = enter
            col = [self.T[i][j] for i in range(m)]
            best: Fraction | None = None
            if self.lo[j] is not None and self.hi[j] is not None:
                best = self.hi[j] - self.lo[j]
            blockers: list[tuple[Fraction, int, int, int]] = []  # delta, var, row, hit
            for i in range(m):
                eff = dirn * col[i]
                if eff == 0:
                    continue
                bvar = self.basis[i]
                if eff > 0 and self.lo[bvar] is not None:
                    delta = (self.xb[i] - self.lo[bvar]) / eff
                    blockers.append((delta, bvar, i, _AT_LO))
                elif eff < 0 and self.hi[bvar] is not None:
                    delta = (self.hi[bvar] - self.xb[i]) / (-eff)
                    blockers.append((delta, bvar, i, _AT_UP))
            for delta, _, _, _ in blockers:
                if best is None or delta < best:
                    best = delta
            if best is None:
                return UNBOUNDED
            # Bland: among blockers at the minimum step, smallest variable
            # index wins; the entering variable's own opposite bound competes
            # with index j.
            leave_row = -1
            leave_hit = 0
            leave_var = (
                j
                if (self.lo[j] is not None and self.hi[j] is not None
                    and self.hi[j] - self.lo[j] == best)
                else ncols
            )
            for delta, bvar, i, hit in blockers:
                if delta == best and bvar < leave_var:
                    leave_var = bvar
                    leave_row = i
                    leave_hit = hit
            delta = best
            if delta != 0:
                for i in range(m):
                    if col[i] != 0:
                        self.xb[i] -= dirn * delta * col[i]
            if leave_row < 0:
                # bound flip
                self.status[j] = _AT_UP if dirn > 0 else _AT_LO
                continue
            start = (
                self.lo[j]
                if self.status[j] == _AT_LO
                else self.hi[j] if self.status[j] == _AT_UP else Fraction(0)
            )
            # a column where the pivot row is zero keeps its value in every
            # row and in r, so only the pivot row's nonzeros are updated
            prow = self.T[leave_row]
            pv = prow[j]
            nonzeros = []
            for k, v in enumerate(prow):
                if v != 0:
                    if pv != 1:
                        prow[k] = v = v / pv
                    nonzeros.append((k, v))
            for row in (*self.T[:leave_row], *self.T[leave_row + 1 :], self.r):
                f = row[j]
                if f != 0:
                    for k, v in nonzeros:
                        row[k] -= f * v
            self.xb[leave_row] = start + dirn * delta
            self.status[self.basis[leave_row]] = leave_hit
            self.status[j] = _BASIC
            self.basis[leave_row] = j

    def duals(self, c_ext: list[Fraction]) -> list[Fraction]:
        """y = B^-T c_B, read off the reduced costs c_i - y_i sign_i that the
        tableau keeps for artificial i, whose column is sign_i e_i."""
        art = self.n_real
        return [(c_ext[art + i] - self.r[art + i]) * s for i, s in enumerate(self.signs)]


def simplex_solve(lp: LinearProgram) -> LpOutcome:
    """Solve exactly; statuses are optimal, infeasible or unbounded."""
    sx = _Simplex(lp)
    sx.setup_phase1()
    outcome = sx.iterate()
    if outcome != OPTIMAL:
        raise InternalInvariantError(
            "phase 1 is bounded below by zero but did not end optimal"
        )
    infeas = sum(
        (sx.value_of(j) for j in range(sx.n_real, sx.ncols)), Fraction(0)
    )
    c1 = [Fraction(0)] * sx.n_real + [Fraction(1)] * sx.m
    if infeas > 0:
        y = sx.duals(c1)
        return LpOutcome(status=INFEASIBLE, y=tuple(y))
    # pin artificials to zero and switch to the real objective
    for j in range(sx.n_real, sx.ncols):
        sx.lo[j] = Fraction(0)
        sx.hi[j] = Fraction(0)
        if sx.status[j] != _BASIC:
            sx.status[j] = _AT_LO
    flip = -1 if lp.sense == "max" else 1
    c2 = [flip * c for c in lp.objective]
    c2 += [Fraction(0)] * (sx.ncols - lp.nvars)
    sx.set_objective(c2)
    outcome = sx.iterate()
    if outcome == UNBOUNDED:
        return LpOutcome(status=UNBOUNDED)
    x = tuple(sx.value_of(j) for j in range(lp.nvars))
    value = sum((cj * xj for cj, xj in zip(lp.objective, x)), Fraction(0))
    y_int = sx.duals(c2)
    y = tuple(flip * yi for yi in y_int)
    reduced = []
    for j in range(lp.nvars):
        acc = lp.objective[j]
        for i in range(lp.nrows):
            if y[i] != 0 and lp.rows[i][j] != 0:
                acc -= y[i] * lp.rows[i][j]
        reduced.append(acc)
    return LpOutcome(
        status=OPTIMAL, value=value, x=x, y=y, reduced_costs=tuple(reduced)
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
