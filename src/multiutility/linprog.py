"""Exact linear programming over the rationals.

Two-phase primal simplex with Bland's pivoting rule, which guarantees
termination without cycling and makes every run deterministic.  The tableau
is an integer dictionary: it stores the nonbasic columns only, and every
row, the objective row included, holds integer numerators over one common
positive denominator.  Each pivot divides exactly by the previous one
(Bareiss 1968), so no gcd is taken and Fractions appear only in the returned
results.  Artificial variables are introduced only for rows whose slack
cannot seed the initial basis.  When every cost is zero, phase 1 alone gives
the answer.

Solutions, objective values and dual multipliers are exact.  For infeasible
problems the reported multipliers form a Farkas certificate: y is
sign-compatible per row sense (>= rows nonnegative, <= rows nonpositive,
== rows free), pairs nonpositively with every nonnegative-variable column and
to zero with free-variable columns, and satisfies <y, b> > 0.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
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
        return _Simplex(self, [c if isinstance(c, int) else as_fraction(c) for c in costs]).run()


class _Simplex:
    """Standard-form tableau machinery behind :class:`ExactLP`.

    The tableau is a dictionary, as in lrs: a basic variable's column is a
    unit column and is not stored, so ``rows[i][j]`` is the entry of basic
    variable ``basis[i]`` in the column of nonbasic variable ``cobasis[j]``,
    the right-hand side last.  Every entry, those of the objective row
    ``obj`` included, is an integer numerator over the one positive
    denominator ``den``: the determinant, up to sign, of the current basis of
    the integer system whose row r is standard row r times its clearing
    denominator.  So ``den`` starts as the product of those denominators, not
    their lcm.  A pivot on p sets every other row to (p*row - f*prow) // den,
    exact by Sylvester's identity (Bareiss 1968), and then den to p, after
    negating the pivot row if p < 0; the pivot column becomes the leaving
    variable's.  The true tableau is that of Fractions, so every Bland choice
    is too.  ``obj`` is den * c - sum(c_B * row) for integer costs c over
    ``cost_den``; its last entry is minus the objective value times
    den * cost_den.
    """

    def __init__(self, lp: ExactLP, costs: list[int | Fraction]):
        self.lp = lp
        self.costs = costs

        # Variables: one column per nonnegative LP variable, a (+,-) pair per
        # free one, then one slack per inequality row, artificials last.
        # signed_cols[j] = (LP variable, sign) of structural column j.
        self.signed_cols = [(i, s) for i in range(lp.num_vars) for s in ((1, -1) if i in lp.free else (1,))]
        nstruct = len(self.signed_cols)
        self.art_start = nstruct + sum(sense != "==" for _, sense, _ in lp.rows)

        # Standard form A x = b with b >= 0 (rows flipped as needed).  A
        # slack seeds the basis only if it enters its flipped row with +1;
        # every other row gets an artificial, and its slack starts nonbasic.
        flips = [1 if rhs >= 0 else -1 for _, _, rhs in lp.rows]
        self.basis: list[int] = []
        self.cobasis = list(range(nstruct))
        # cobasis position of each row's slack, if that slack starts nonbasic
        slack_col: list[int | None] = []
        slack, art = nstruct, self.art_start
        for (_, sense, _), flip in zip(lp.rows, flips):
            if sense != "==" and (sense == "<=") == (flip == 1):
                self.basis.append(slack)
                slack_col.append(None)
            else:
                self.basis.append(art)
                art += 1
                slack_col.append(len(self.cobasis) if sense != "==" else None)
                if sense != "==":
                    self.cobasis.append(slack)
            slack += sense != "=="
        self.nvars = art  # of the standard form: structural, slack and artificial
        # marker[r] = (variable that is +e_r in the standard system, row sign);
        # its final reduced cost recovers the dual multiplier of row r.
        self.marker = list(zip(self.basis, flips))
        self.row_origin = list(range(len(lp.rows)))

        # Each standard row times the product of the rows' clearing
        # denominators, the determinant of the starting basis.
        self.den = den = prod(lcm(rhs.denominator, *(c.denominator for c in coeffs)) for coeffs, _, rhs in lp.rows)
        padding = [0] * (len(self.cobasis) - nstruct)
        self.rows: list[list[int]] = []
        for (coeffs, _, rhs), flip, col in zip(lp.rows, flips, slack_col):
            k = flip * den
            nums = [k * c.numerator // c.denominator for c in coeffs]
            row = [s * nums[var] for var, s in self.signed_cols] + padding
            row.append(k * rhs.numerator // rhs.denominator)
            if col is not None:
                row[col] = -den
            self.rows.append(row)
        self.obj: list[int] = []

    # -- tableau primitives -------------------------------------------------

    def _pivot(self, row_idx: int, col: int) -> None:
        prow, den = self.rows[row_idx], self.den
        p = prow[col]
        sign = 1 if p > 0 else -1
        prow = prow[:] if p > 0 else [-x for x in prow]
        p *= sign

        # the leaving variable's column was den in the pivot row, 0 elsewhere
        rows = [*self.rows, self.obj]
        for i, row in enumerate(rows):
            if i == row_idx:
                continue
            f = row[col]
            if f:
                row = [(p * x - f * y) // den for x, y in zip(row, prow)]
                row[col] = -sign * f
            elif p != den:
                row = [x * p // den for x in row]
            rows[i] = row
        prow[col] = sign * den
        rows[row_idx] = prow
        *self.rows, self.obj = rows
        self.basis[row_idx], self.cobasis[col] = self.cobasis[col], self.basis[row_idx]
        self.den = p

    def _bland(self, limit: int) -> str:
        """Bland's rule over the variables below limit, until optimal or unbounded."""
        while True:
            # the nonbasic variable of smallest index with a negative reduced cost
            obj, first, enter = self.obj, limit, -1
            for j, v in enumerate(self.cobasis):
                if v < first and obj[j] < 0:
                    first, enter = v, j
            if enter < 0:
                return OPTIMAL
            # over one denominator the ratio rhs/a is that of the numerators
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
            self._pivot(leave, enter)

    def _reduced_costs(self, costs: list[int]) -> None:
        """Set obj for integer costs, one per variable."""
        charged = []
        for b, row in zip(self.basis, self.rows):
            c = costs[b]
            if c:
                charged.append(row if c == 1 else [c * x for x in row])
        sums = [sum(col) for col in zip(*charged)] if charged else [0] * (len(self.cobasis) + 1)
        self.obj = [self.den * costs[v] - t for v, t in zip(self.cobasis, sums)]
        self.obj.append(-sums[-1])

    # -- phases ---------------------------------------------------------------

    def run(self) -> LPResult:
        phase1 = [0] * self.art_start + [1] * (self.nvars - self.art_start)
        self._reduced_costs(phase1)
        status = self._bland(self.nvars)
        if status != OPTIMAL:
            raise CertificateError(f"phase 1 ended {status}, but it is bounded below by zero")
        if self.obj[-1] < 0:
            return LPResult(INFEASIBLE, None, None, self._duals(phase1, 1))
        if not any(self.costs):
            # Phase 2 would not pivot, and driving out an artificial pivots on
            # a row whose right-hand side is 0, so the phase-1 basis answers.
            return LPResult(OPTIMAL, _ZERO, self._solution(), (_ZERO,) * len(self.lp.rows))

        self._drive_out_artificials()

        nums, cost_den = clear_denominators(self.costs)
        phase2 = [s * nums[var] for var, s in self.signed_cols] + [0] * (self.nvars - len(self.signed_cols))
        self._reduced_costs(phase2)
        if self._bland(self.art_start) == UNBOUNDED:
            return LPResult(UNBOUNDED, None, None, None)
        objective = Fraction(-self.obj[-1], self.den * cost_den)
        return LPResult(OPTIMAL, objective, self._solution(), self._duals(phase2, cost_den))

    def _drive_out_artificials(self) -> None:
        # A basic artificial sits at value 0 after a feasible phase 1; pivot
        # it out on any non-artificial column, or delete its row when the row
        # has become implied by the others.
        dead: list[int] = []
        for i in range(len(self.rows)):
            if self.basis[i] < self.art_start:
                continue
            row = self.rows[i]
            nonzero = (j for j, v in enumerate(self.cobasis) if v < self.art_start and row[j] != 0)
            col = min(nonzero, key=self.cobasis.__getitem__, default=-1)
            if col < 0:
                dead.append(i)
            else:
                self._pivot(i, col)
        for i in reversed(dead):
            del self.rows[i]
            del self.basis[i]
            del self.row_origin[i]

    # -- certificate extraction ----------------------------------------------

    def _duals(self, costs: list[int], cost_den: int) -> tuple[Fraction, ...]:
        alive = set(self.row_origin)
        # a basic variable's reduced cost is 0
        reduced = dict(zip(self.cobasis, self.obj))
        duals: list[Fraction] = []
        for r in range(len(self.lp.rows)):
            if r not in alive:
                duals.append(_ZERO)
                continue
            var, sign = self.marker[r]
            # The marker column is +e_r with cost c in the standard system,
            # so its reduced cost is c - y_r; undo the row flip afterwards.
            y_std = Fraction(costs[var] * self.den - reduced.get(var, 0), self.den * cost_den)
            duals.append(sign * y_std)
        return tuple(duals)

    def _solution(self) -> tuple[Fraction, ...]:
        values = [0] * self.lp.num_vars
        for b, row in zip(self.basis, self.rows):
            if b < len(self.signed_cols):
                var, s = self.signed_cols[b]
                values[var] += s * row[-1]
        return tuple(Fraction(v, self.den) if v else _ZERO for v in values)
