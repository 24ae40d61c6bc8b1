"""Exact feasibility of integer equality systems.

The engine asks one thing of linear programming: whether integer rows
A x == b have a solution whose variables are nonnegative, apart from those
declared free.  :class:`ExactLP` answers by phase 1 of the primal simplex,
which minimizes the sum of one artificial variable per row: the rows are
feasible exactly when that minimum is 0.  Bland's pivoting rule (Bland 1977)
guarantees termination without cycling and makes every run deterministic.
The tableau is an integer dictionary: it stores the nonbasic columns only,
and every row, the objective row included, holds integer numerators over
one common positive denominator.  Each pivot divides exactly by the previous
one (Bareiss 1968), so no gcd is taken and Fractions appear only in the
returned results.

A feasible system yields an exact solution.  An infeasible one yields a
Farkas certificate y, one multiplier of either sign per row, with y.A <= 0
on every nonnegative column, y.A == 0 on every free column, and y.b > 0.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"

_ZERO = Fraction(0)


class CertificateError(RuntimeError):
    """An exact result failed its own arithmetic recheck: a defect, never bad input."""


class LPResult(NamedTuple):
    """Outcome of a phase-1 solve.

    OPTIMAL: the rows are feasible; ``solution`` satisfies them, ``objective``
    is the phase-1 minimum 0, and ``duals`` holds one zero per row.
    INFEASIBLE: ``objective`` and ``solution`` are None, and ``duals`` is the
    Farkas certificate, one multiplier per row in insertion order.
    """

    status: str
    objective: Fraction | None
    solution: tuple[Fraction, ...] | None
    duals: tuple[Fraction, ...] | None


class ExactLP:
    """Incrementally built system of integer equality rows, solved for feasibility.

    Variables are nonnegative unless their index is listed in ``free``.
    """

    def __init__(self, num_vars: int, free: Iterable[int] = ()):
        if type(num_vars) is not int:
            raise TypeError(f"number of variables must be an int, got {num_vars!r}")
        if num_vars < 0:
            raise ValueError(f"number of variables must be nonnegative, got {num_vars}")
        self.num_vars = num_vars
        self.free = frozenset(free)
        bad = [i for i in self.free if not 0 <= i < num_vars]
        if bad:
            raise ValueError(f"free variable indices out of range: {bad}")
        self.rows: list[tuple[tuple[int, ...], int]] = []

    def add(self, coeffs: Sequence[int], rhs: int) -> None:
        """Add the row <coeffs, x> == rhs; every entry must be an ``int``, not a bool."""
        if len(coeffs) != self.num_vars:
            raise ValueError(f"expected {self.num_vars} coefficients, got {len(coeffs)}")
        row = tuple(coeffs)
        if any(type(v) is not int for v in (*row, rhs)):
            raise TypeError(f"row {row!r} == {rhs!r} has an entry that is not an int")
        self.rows.append((row, rhs))

    def minimize(self) -> LPResult:
        """Minimize the sum of the artificial variables: phase 1 of the simplex.

        The rows are feasible exactly when the minimum is 0.  The solve is
        named for what it computes, and perfbench's tracer counts solves by
        wrapping ``ExactLP.minimize``.
        """
        return _Simplex(self).run()


class _Simplex:
    """Standard-form tableau machinery behind :class:`ExactLP`.

    The tableau is a dictionary, as in lrs: a basic variable's column is a
    unit column and is not stored, so ``rows[i][j]`` is the entry of basic
    variable ``basis[i]`` in the column of nonbasic variable ``cobasis[j]``,
    the right-hand side last.  Every entry, those of the objective row
    ``obj`` included, is an integer numerator over the one positive
    denominator ``den``: the determinant, up to sign, of the current basis.
    The starting basis is the artificials', the identity, so ``den`` starts
    at 1.  A pivot on p sets every other row to (p*row - f*prow) // den,
    exact by Sylvester's identity (Bareiss 1968), and then den to p, after
    negating the pivot row if p < 0; the pivot column becomes the leaving
    variable's.  The true tableau is that of Fractions, so every Bland choice
    is too.  ``obj`` holds the reduced costs of the phase-1 objective, the
    sum of the artificials, times den; its last entry is minus that sum's
    value times den.
    """

    def __init__(self, lp: ExactLP):
        self.lp = lp

        # Variables: one column per nonnegative LP variable, a (+,-) pair per
        # free one, then one artificial per row, each basic in its own row.
        # signed_cols[j] = (LP variable, sign) of structural column j.
        self.signed_cols = [(i, s) for i in range(lp.num_vars) for s in ((1, -1) if i in lp.free else (1,))]
        nstruct = len(self.signed_cols)
        self.nvars = nstruct + len(lp.rows)
        self.basis = list(range(nstruct, self.nvars))
        self.cobasis = list(range(nstruct))
        self.den = 1

        # Each row flipped to a nonnegative right-hand side, so the
        # artificials start feasible.
        self.flips = [1 if rhs >= 0 else -1 for _, rhs in lp.rows]
        self.rows: list[list[int]] = [
            [f * s * coeffs[var] for var, s in self.signed_cols] + [f * rhs]
            for (coeffs, rhs), f in zip(lp.rows, self.flips)
        ]
        # every artificial starts basic, so each reduced cost is minus the column sum
        self.obj = [-sum(col) for col in zip(*self.rows)] if self.rows else [0] * (nstruct + 1)

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

    def _bland(self) -> None:
        """Pivot by Bland's rule until no reduced cost is negative."""
        while True:
            # the nonbasic variable of smallest index with a negative reduced cost
            obj, first, enter = self.obj, self.nvars, -1
            for j, v in enumerate(self.cobasis):
                if v < first and obj[j] < 0:
                    first, enter = v, j
            if enter < 0:
                return
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
                raise CertificateError("phase 1 ended unbounded, but it is bounded below by zero")
            self._pivot(leave, enter)

    def run(self) -> LPResult:
        self._bland()
        if self.obj[-1] < 0:
            return LPResult(INFEASIBLE, None, None, self._duals())
        return LPResult(OPTIMAL, _ZERO, self._solution(), (_ZERO,) * len(self.lp.rows))

    def _duals(self) -> tuple[Fraction, ...]:
        # a basic variable's reduced cost is 0
        reduced = dict(zip(self.cobasis, self.obj))
        # The artificial of row r is +e_r in the flipped system with phase-1
        # cost 1, so its reduced cost is 1 - y_r; undo the row flip.
        art = len(self.signed_cols)
        return tuple(
            f * Fraction(self.den - reduced.get(art + r, 0), self.den) for r, f in enumerate(self.flips)
        )

    def _solution(self) -> tuple[Fraction, ...]:
        values = [0] * self.lp.num_vars
        for b, row in zip(self.basis, self.rows):
            if b < len(self.signed_cols):
                var, s = self.signed_cols[b]
                values[var] += s * row[-1]
        return tuple(Fraction(v, self.den) if v else _ZERO for v in values)
