"""Exact linear programming over the rationals.

Two-phase primal simplex with Bland's pivoting rule, which guarantees
termination without cycling and makes every run deterministic.  The tableau
is dense and integer: each row holds integer numerators over one positive
denominator, and Fractions appear only in the returned results.  Artificial
variables are introduced only for rows whose slack cannot seed the initial
basis.

Solutions, objective values and dual multipliers are exact.  For infeasible
problems the reported multipliers form a Farkas certificate: y is
sign-compatible per row sense (>= rows nonnegative, <= rows nonpositive,
== rows free), pairs nonpositively with every nonnegative-variable column and
to zero with free-variable columns, and satisfies <y, b> > 0.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence

from ._linalg import clear_denominators
from .measures import as_fraction

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"
UNBOUNDED = "UNBOUNDED"

_ZERO = Fraction(0)


class CertificateError(RuntimeError):
    """An exact result failed its own arithmetic recheck: a defect, never bad input."""


class LPResult(NamedTuple):
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
        self.rows: list[tuple[tuple[int | Fraction, ...], str, int | Fraction]] = []

    def add(self, coeffs: Sequence, sense: str, rhs) -> None:
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"unknown sense {sense!r}")
        if len(coeffs) != self.num_vars:
            raise ValueError(f"expected {self.num_vars} coefficients, got {len(coeffs)}")
        # the tableau clears denominators to ints anyway, so an int needs no Fraction
        *row, b = (c if isinstance(c, int) else as_fraction(c) for c in (*coeffs, rhs))
        self.rows.append((tuple(row), sense, b))

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


def _eliminate(row: list[int], den: int, prow: list[int], p: int, col: int) -> tuple[list[int], int]:
    """Clear ``col`` of ``row``/``den`` with the pivot row ``prow``/``p``, whose ``col`` entry is p/p = 1."""
    f = row[col]
    nums = [x * p - f * y for x, y in zip(row, prow)]
    g = gcd(den * p, *nums)
    return [x // g for x in nums], den * p // g


class _Simplex:
    """Standard-form tableau machinery behind :class:`ExactLP`.

    Every row is a list of integer numerators, one per column with the
    right-hand side last, over one positive integer denominator (``dens[i]``
    for constraint row i, ``obj_den`` for the objective row, whose last entry
    is minus the objective value).  A pivot cross-multiplies and divides each
    changed row by the gcd of its denominator and numerators, so every true
    value, and with it every Bland choice, is that of a Fraction tableau.
    """

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

        # Standard form A x = b with b >= 0 (rows flipped as needed).  A
        # slack seeds the basis only if it enters its flipped row with +1;
        # every other row gets an artificial column.
        slack_cols: list[int | None] = []
        slack_sign: list[int] = []
        row_sign: list[int] = []
        for _, sense, rhs_val in lp.rows:
            row_sign.append(1 if rhs_val >= 0 else -1)
            slack_cols.append(None if sense == "==" else ncols)
            slack_sign.append(0 if sense == "==" else row_sign[-1] * (1 if sense == "<=" else -1))
            ncols += sense != "=="
        self.art_start = ncols
        self.art_col_of_row: list[int | None] = []
        for sign in slack_sign:
            self.art_col_of_row.append(None if sign == 1 else ncols)
            ncols += sign != 1
        self.ncols = ncols

        self.rows: list[list[int]] = []
        self.dens: list[int] = []
        self.basis: list[int] = []
        self.row_origin: list[int] = []
        # marker[r] = (column that is +e_r in the standard system, row sign);
        # its final reduced cost recovers the dual multiplier of row r.
        self.marker: list[tuple[int, int]] = []
        for r, (coeffs, _sense, rhs_val) in enumerate(lp.rows):
            sign = row_sign[r]
            nums, den = clear_denominators((*coeffs, rhs_val))
            row = [0] * (ncols + 1)
            for var, cval in enumerate(nums[:-1]):
                if cval != 0:
                    for col, s in self.col_of_var[var]:
                        row[col] = sign * s * cval
            if slack_cols[r] is not None:
                row[slack_cols[r]] = slack_sign[r] * den
            basic = self.art_col_of_row[r]
            if basic is None:
                basic = slack_cols[r]
            else:
                row[basic] = den
            row[-1] = sign * nums[-1]
            self.rows.append(row)
            self.dens.append(den)
            self.basis.append(basic)
            self.row_origin.append(r)
            self.marker.append((basic, sign))
        self.obj: list[int] = []
        self.obj_den = 1

    # -- tableau primitives -------------------------------------------------

    def _pivot(self, row_idx: int, col: int) -> tuple[list[int], int]:
        """Pivot on (row_idx, col); return the new pivot row and denominator."""
        prow = self.rows[row_idx]
        g = gcd(*prow) if prow[col] > 0 else -gcd(*prow)
        prow = [x // g for x in prow]
        p = prow[col]
        for i, row in enumerate(self.rows):
            if i != row_idx and row[col] != 0:
                self.rows[i], self.dens[i] = _eliminate(row, self.dens[i], prow, p, col)
        self.rows[row_idx], self.dens[row_idx] = prow, p
        self.basis[row_idx] = col
        return prow, p

    def _bland(self, allowed: list[bool]) -> str:
        while True:
            enter = -1
            for j in range(self.ncols):
                if allowed[j] and self.obj[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL
            # ratio rhs/a within a row is the same over any denominator
            leave = -1
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    if leave < 0:
                        leave, best_rhs, best_a = i, row[-1], a
                        continue
                    lhs, rhs = row[-1] * best_a, best_rhs * a
                    if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[leave]):
                        leave, best_rhs, best_a = i, row[-1], a
            if leave < 0:
                return UNBOUNDED
            prow, p = self._pivot(leave, enter)
            self.obj, self.obj_den = _eliminate(self.obj, self.obj_den, prow, p, enter)

    def _reduced_costs(self, costs_by_col: list[int], cost_den: int) -> None:
        basic = [(i, costs_by_col[b]) for i, b in enumerate(self.basis) if costs_by_col[b] != 0]
        den = lcm(*(self.dens[i] for i, _ in basic))
        obj = [c * den for c in costs_by_col] + [0]
        for i, cb in basic:
            k = cb * (den // self.dens[i])
            obj = [x - k * y for x, y in zip(obj, self.rows[i])]
        g = gcd(cost_den * den, *obj)
        self.obj, self.obj_den = [x // g for x in obj], cost_den * den // g

    # -- phases ---------------------------------------------------------------

    def run(self) -> LPResult:
        phase1 = [0] * self.ncols
        for col in self.art_col_of_row:
            if col is not None:
                phase1[col] = 1
        self._reduced_costs(phase1, 1)
        allowed = [True] * self.ncols
        status = self._bland(allowed)
        if status != OPTIMAL:
            raise CertificateError(f"phase 1 ended {status}, but it is bounded below by zero")
        if self.obj[-1] < 0:
            return LPResult(INFEASIBLE, None, None, self._duals(phase1, 1))

        self._drive_out_artificials()

        nums, cost_den = clear_denominators(self.costs)
        phase2 = [0] * self.ncols
        for var, cval in enumerate(nums):
            for col, s in self.col_of_var[var]:
                phase2[col] = s * cval
        for col in self.art_col_of_row:
            if col is not None:
                allowed[col] = False
        self._reduced_costs(phase2, cost_den)
        status = self._bland(allowed)
        if status == UNBOUNDED:
            return LPResult(UNBOUNDED, None, None, None)
        objective = Fraction(-self.obj[-1], self.obj_den)
        return LPResult(OPTIMAL, objective, self._solution(), self._duals(phase2, cost_den))

    def _drive_out_artificials(self) -> None:
        # A basic artificial sits at value 0 after a feasible phase 1; pivot
        # it out on any non-artificial column, or delete its row when the row
        # has become implied by the others.
        dead: list[int] = []
        for i in range(len(self.rows)):
            if self.basis[i] < self.art_start:
                continue
            col = next((j for j in range(self.art_start) if self.rows[i][j] != 0), None)
            if col is None:
                dead.append(i)
            else:
                self._pivot(i, col)
        for i in reversed(dead):
            del self.rows[i]
            del self.dens[i]
            del self.basis[i]
            del self.row_origin[i]

    # -- certificate extraction ----------------------------------------------

    def _duals(self, costs_by_col: list[int], cost_den: int) -> tuple[Fraction, ...]:
        alive = set(self.row_origin)
        duals: list[Fraction] = []
        for r in range(len(self.lp.rows)):
            if r not in alive:
                duals.append(_ZERO)
                continue
            col, sign = self.marker[r]
            # The marker column is +e_r with cost c in the standard system,
            # so its reduced cost is c - y_r; undo the row flip afterwards.
            y_std = Fraction(costs_by_col[col], cost_den) - Fraction(self.obj[col], self.obj_den)
            duals.append(sign * y_std)
        return tuple(duals)

    def _solution(self) -> tuple[Fraction, ...]:
        col_val = [_ZERO] * self.ncols
        for i, b in enumerate(self.basis):
            col_val[b] = Fraction(self.rows[i][-1], self.dens[i])
        out = []
        for var in range(self.lp.num_vars):
            v = _ZERO
            for col, s in self.col_of_var[var]:
                v += s * col_val[col]
            out.append(v)
        return tuple(out)
