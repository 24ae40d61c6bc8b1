"""Exact linear programming over the rationals.

Two-phase primal simplex on a dense Fraction tableau with Bland's pivoting
rule, which guarantees termination without cycling and makes every run
deterministic.  Artificial variables are introduced only for rows whose slack
cannot seed the initial basis.

Solutions, objective values and dual multipliers are exact.  For infeasible
problems the reported multipliers form a Farkas certificate: y is
sign-compatible per row sense (>= rows nonnegative, <= rows nonpositive,
== rows free), pairs nonpositively with every nonnegative-variable column and
to zero with free-variable columns, and satisfies <y, b> > 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .measures import as_fraction

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"
UNBOUNDED = "UNBOUNDED"

_ZERO = Fraction(0)
_ONE = Fraction(1)


class CertificateError(RuntimeError):
    """An exact result failed its own arithmetic recheck: a defect, never bad input."""


@dataclass(frozen=True)
class LPResult:
    """Outcome of an exact solve.

    ``duals`` carries one multiplier per constraint in insertion order: the
    optimal dual solution when status is OPTIMAL, the Farkas certificate when
    INFEASIBLE, None when UNBOUNDED.  Rows deleted as redundant during the
    solve report a zero multiplier.
    """

    status: str
    objective: Fraction | None
    solution: tuple[Fraction, ...] | None
    duals: tuple[Fraction, ...] | None


class ExactLP:
    """Incrementally built LP: min c.x subject to rows with senses.

    Variables are nonnegative unless their index is listed in ``free``.
    """

    def __init__(self, num_vars: int, free: Iterable[int] = ()):
        self.num_vars = num_vars
        self.free = frozenset(free)
        bad = [i for i in self.free if not 0 <= i < num_vars]
        if bad:
            raise ValueError(f"free variable indices out of range: {bad}")
        self.rows: list[tuple[tuple[Fraction, ...], str, Fraction]] = []

    def add(self, coeffs: Sequence, sense: str, rhs) -> None:
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"unknown sense {sense!r}")
        if len(coeffs) != self.num_vars:
            raise ValueError(f"expected {self.num_vars} coefficients, got {len(coeffs)}")
        self.rows.append((tuple(as_fraction(c) for c in coeffs), sense, as_fraction(rhs)))

    def feasibility(self) -> LPResult:
        return self.minimize([0] * self.num_vars)

    def maximize(self, costs: Sequence) -> LPResult:
        res = self.minimize([-as_fraction(c) for c in costs])
        if res.status == OPTIMAL:
            # negated so <y, b> equals the maximize objective
            duals = tuple(-y for y in res.duals)
            return LPResult(OPTIMAL, -res.objective, res.solution, duals)
        return res

    def minimize(self, costs: Sequence) -> LPResult:
        if len(costs) != self.num_vars:
            raise ValueError(f"expected {self.num_vars} costs, got {len(costs)}")
        return _Simplex(self, [as_fraction(c) for c in costs]).run()


class _Simplex:
    """Standard-form tableau machinery behind :class:`ExactLP`."""

    def __init__(self, lp: ExactLP, costs: list[Fraction]):
        self.lp = lp
        self.costs = costs

        # Column layout: one column per nonnegative variable, a (+,-) pair
        # per free variable, then one slack per inequality row, artificials
        # last.  col_of_var maps each LP variable to its signed columns.
        self.col_of_var: list[list[tuple[int, int]]] = []
        ncols = 0
        for i in range(lp.num_vars):
            if i in lp.free:
                self.col_of_var.append([(ncols, 1), (ncols + 1, -1)])
                ncols += 2
            else:
                self.col_of_var.append([(ncols, 1)])
                ncols += 1
        self.structural_cols = ncols

        m = len(lp.rows)
        slack_cols: list[int | None] = [None] * m
        for r, (_, sense, _rhs) in enumerate(lp.rows):
            if sense != "==":
                slack_cols[r] = ncols
                ncols += 1
        self.art_start = ncols

        # Standard form A x = b with b >= 0 (rows flipped as needed).
        self.mat: list[list[Fraction]] = []
        self.rhs: list[Fraction] = []
        self.basis: list[int] = []
        self.mat_row_origin: list[int] = []
        self.row_sign: list[int] = []
        # marker[r] = (column that is +e_r in the standard system, row sign);
        # its final reduced cost recovers the dual multiplier of row r.
        self.marker: list[tuple[int, int]] = []
        art_rows: list[int] = []
        for r, (coeffs, sense, rhs_val) in enumerate(lp.rows):
            sign = 1 if rhs_val >= 0 else -1
            self.row_sign.append(sign)
            row = [_ZERO] * ncols
            for var, cval in enumerate(coeffs):
                if cval == 0:
                    continue
                for col, s in self.col_of_var[var]:
                    row[col] = sign * s * cval
            if slack_cols[r] is not None:
                row[slack_cols[r]] = Fraction(sign * (1 if sense == "<=" else -1))
            self.mat.append(row)
            self.rhs.append(sign * rhs_val)
            self.mat_row_origin.append(r)
            if slack_cols[r] is not None and row[slack_cols[r]] == 1:
                self.basis.append(slack_cols[r])
                self.marker.append((slack_cols[r], sign))
            else:
                self.basis.append(-1)
                self.marker.append((-1, sign))
                art_rows.append(r)

        self.art_col_of_row: list[int | None] = [None] * m
        for r in art_rows:
            col = ncols
            ncols += 1
            for row in self.mat:
                row.append(_ZERO)
            self.mat[r][col] = _ONE
            self.basis[r] = col
            self.marker[r] = (col, self.row_sign[r])
            self.art_col_of_row[r] = col
        self.ncols = ncols
        self.obj_value = _ZERO

    # -- tableau primitives -------------------------------------------------

    def _pivot(self, row_idx: int, col: int, obj: list[Fraction]) -> None:
        mat, rhs = self.mat, self.rhs
        prow = mat[row_idx]
        pval = prow[col]
        if pval != 1:
            inv = 1 / pval
            mat[row_idx] = prow = [x * inv for x in prow]
            rhs[row_idx] *= inv
        for i in range(len(mat)):
            if i == row_idx:
                continue
            f = mat[i][col]
            if f != 0:
                mat[i] = [x - f * y for x, y in zip(mat[i], prow)]
                rhs[i] -= f * rhs[row_idx]
        f = obj[col]
        if f != 0:
            for j in range(self.ncols):
                obj[j] -= f * prow[j]
            self.obj_value += f * rhs[row_idx]
        self.basis[row_idx] = col

    def _bland(self, obj: list[Fraction], allowed: list[bool]) -> str:
        while True:
            enter = -1
            for j in range(self.ncols):
                if allowed[j] and obj[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL
            leave = -1
            best = None
            for i, row in enumerate(self.mat):
                a = row[enter]
                if a > 0:
                    ratio = self.rhs[i] / a
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                return UNBOUNDED
            self._pivot(leave, enter, obj)

    def _reduced_costs(self, costs_by_col: list[Fraction]) -> list[Fraction]:
        obj = list(costs_by_col)
        self.obj_value = _ZERO
        for i, b in enumerate(self.basis):
            cb = costs_by_col[b]
            if cb != 0:
                row = self.mat[i]
                for j in range(self.ncols):
                    obj[j] -= cb * row[j]
                self.obj_value += cb * self.rhs[i]
        return obj

    # -- phases ---------------------------------------------------------------

    def run(self) -> LPResult:
        phase1 = [_ZERO] * self.ncols
        for col in self.art_col_of_row:
            if col is not None:
                phase1[col] = _ONE
        obj = self._reduced_costs(phase1)
        allowed = [True] * self.ncols
        status = self._bland(obj, allowed)
        if status != OPTIMAL:
            raise CertificateError(f"phase 1 ended {status}, but it is bounded below by zero")
        if self.obj_value > 0:
            return LPResult(INFEASIBLE, None, None, self._duals(obj, phase1))

        self._drive_out_artificials()

        phase2 = [_ZERO] * self.ncols
        for var, cval in enumerate(self.costs):
            if cval != 0:
                for col, s in self.col_of_var[var]:
                    phase2[col] += s * cval
        for col in self.art_col_of_row:
            if col is not None:
                allowed[col] = False
        obj = self._reduced_costs(phase2)
        status = self._bland(obj, allowed)
        if status == UNBOUNDED:
            return LPResult(UNBOUNDED, None, None, None)
        return LPResult(OPTIMAL, self.obj_value, self._solution(), self._duals(obj, phase2))

    def _drive_out_artificials(self) -> None:
        # A basic artificial sits at value 0 after a feasible phase 1; pivot
        # it out on any non-artificial column, or delete its row when the row
        # has become implied by the others.
        dummy = [_ZERO] * self.ncols
        dead: list[int] = []
        for i in range(len(self.mat)):
            if self.basis[i] < self.art_start:
                continue
            col = next((j for j in range(self.art_start) if self.mat[i][j] != 0), None)
            if col is None:
                dead.append(i)
            else:
                self._pivot(i, col, dummy)
        for i in reversed(dead):
            del self.mat[i]
            del self.rhs[i]
            del self.basis[i]
            del self.mat_row_origin[i]

    # -- certificate extraction ----------------------------------------------

    def _duals(self, obj: list[Fraction], costs_by_col: list[Fraction]) -> tuple[Fraction, ...]:
        alive = set(self.mat_row_origin)
        duals: list[Fraction] = []
        for r in range(len(self.lp.rows)):
            if r not in alive:
                duals.append(_ZERO)
                continue
            col, sign = self.marker[r]
            # The marker column is +e_r with cost c in the standard system,
            # so its reduced cost is c - y_r; undo the row flip afterwards.
            y_std = costs_by_col[col] - obj[col]
            duals.append(sign * y_std)
        return tuple(duals)

    def _solution(self) -> tuple[Fraction, ...]:
        col_val = [_ZERO] * self.ncols
        for i, b in enumerate(self.basis):
            col_val[b] = self.rhs[i]
        out = []
        for var in range(self.lp.num_vars):
            v = _ZERO
            for col, s in self.col_of_var[var]:
                v += s * col_val[col]
            out.append(v)
        return tuple(out)
