import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from multiutility.linprog import INFEASIBLE, OPTIMAL, ExactLP
from oracles import _rank


def check_solution(rows, free, res):
    # a feasible point of the rows, rechecked exactly, with the phase-1
    # minimum 0 and one zero multiplier per row
    assert res.objective == 0
    assert res.duals == (0,) * len(rows)
    x = res.solution
    for coeffs, rhs in rows:
        assert sum(c * v for c, v in zip(coeffs, x)) == rhs
    assert all(v >= 0 for j, v in enumerate(x) if j not in free)


def check_farkas(rows, free, y):
    # infeasibility certificate: y.A <= 0 on nonnegative columns, y.A == 0
    # on free columns, and y.b > 0; equality rows leave each sign of y free
    for j in range(len(rows[0][0])):
        col = sum(y_i * coeffs[j] for y_i, (coeffs, _) in zip(y, rows))
        if j in free:
            assert col == 0
        else:
            assert col <= 0
    assert sum(y_i * rhs for y_i, (_, rhs) in zip(y, rows)) > 0


def solve(nvars, rows, free=()):
    lp = ExactLP(nvars, free=free)
    for coeffs, rhs in rows:
        lp.add(coeffs, rhs)
    res = lp.minimize()
    if res.status == OPTIMAL:
        check_solution(rows, set(free), res)
    else:
        check_farkas(rows, set(free), res.duals)
    return res


def test_minimize_known_optimum():
    # x + y >= 4 and x <= 3 with a slack column each: phase 1 reaches its
    # minimum 0 at a vertex of the rows, with zero duals
    rows = [([1, 1, -1, 0], 4), ([1, 0, 0, 1], 3)]
    assert solve(4, rows) == (OPTIMAL, 0, (3, 1, 0, 0), (0, 0))


def test_equality_system_with_free_variables():
    assert solve(2, [([1, 1], 5), ([1, -1], 1)], free=(0, 1)).solution == (3, 2)


def test_infeasible_farkas():
    # x + s == -1 has no nonnegative solution
    assert solve(2, [([1, 1], -1)]).status == INFEASIBLE


def test_infeasible_between_rows():
    assert solve(2, [([1, 1], 3), ([1, 1], 2)], free=(0, 1)).status == INFEASIBLE


def test_degenerate_pivoting_terminates():
    # Beale's cycling example for naive pivoting, with its objective bound as
    # a row, cleared to integers with a slack column per row: two of its
    # rows have a zero right-hand side, so phase 1 is degenerate, and Bland's
    # rule must terminate.  The optimum -1/20 is reached, and nothing better
    # is.  The cost row is scaled by 1000, so the bounds read -50 and -51.
    costs = [-750, 150000, -20, 6000]
    for bound, status in ((-50, OPTIMAL), (-51, INFEASIBLE)):
        rows = [
            ([25, -6000, -4, 900, 1, 0, 0, 0], 0),
            ([50, -9000, -2, 300, 0, 1, 0, 0], 0),
            ([0, 0, 1, 0, 0, 0, 1, 0], 1),
            (costs + [0, 0, 0, 1], bound),
        ]
        res = solve(8, rows)
        assert res.status == status
        if status == OPTIMAL:
            assert res.solution[:4] == (Fraction(1, 25), 0, 1, 0)
            assert sum(c * v for c, v in zip(costs, res.solution)) == bound


def test_redundant_equality_rows():
    # the second row is twice the first, so an artificial stays basic at 0
    assert solve(2, [([1, 1], 2), ([2, 2], 4)]) == (OPTIMAL, 0, (2, 0), (0, 0))


def test_input_validation():
    lp = ExactLP(2)
    with pytest.raises(ValueError):
        lp.add([1], 0)
    with pytest.raises(ValueError):
        lp.add([1, 2, 3], 0)
    with pytest.raises(ValueError):
        ExactLP(2, free=(5,))
    # only ints: an integral Fraction, a float or a bool is refused, not converted
    for coeffs, rhs in (([Fraction(1), 1], 0), ([1, 1], Fraction(2)), ([0.5, 1], 0), ([1, 1], 0.5), ([True, 1], 0), ([1, 1], False)):
        with pytest.raises(TypeError):
            lp.add(coeffs, rhs)
    assert lp.rows == []


def test_number_of_variables_is_a_nonnegative_int():
    for bad in (2.5, True, Fraction(2), "2"):
        with pytest.raises(TypeError):
            ExactLP(bad)
    with pytest.raises(ValueError):
        ExactLP(-1)
    lp = ExactLP(0)
    assert lp.minimize() == (OPTIMAL, 0, (), ())
    lp.add([], -1)
    assert lp.minimize() == (INFEASIBLE, None, None, (-1,))


def test_random_lps_certified():
    rng = random.Random(99)
    statuses = {OPTIMAL: 0, INFEASIBLE: 0}
    for _ in range(120):
        nvars = rng.randint(1, 3)
        free = {j for j in range(nvars) if rng.random() < 0.3}
        rows = [([rng.randint(-4, 4) for _ in range(nvars)], rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))]
        statuses[solve(nvars, rows, free).status] += 1
    # the sample is varied enough to hit both outcomes
    assert all(count > 0 for count in statuses.values())


def _pinned_lps():
    rng = random.Random(2718)
    for _ in range(300):
        nvars = rng.randint(2, 6)
        free = {j for j in range(nvars) if rng.random() < 0.3}
        rows = []
        for _ in range(rng.randint(1, 6)):
            kind = rng.random()
            if rows and kind < 0.2:
                # a positive multiple of an earlier row: redundant
                coeffs, rhs = rng.choice(rows)
                k = rng.randint(1, 6)
                rows.append(([k * c for c in coeffs], k * rhs))
                continue
            if free and kind < 0.35:
                # a row on the free variables only
                coeffs = [rng.randint(-6, 6) if j in free else 0 for j in range(nvars)]
            else:
                coeffs = [rng.randint(-6, 6) if rng.random() < 0.7 else 0 for _ in range(nvars)]
            # zero right-hand sides make degenerate ratio-test ties
            rhs = 0 if rng.random() < 0.3 else rng.randint(-6, 6)
            rows.append((coeffs, rhs))
        yield nvars, free, rows


def test_pinned_pivot_path():
    # Bland's rule fixes the whole pivot path, so the point and the
    # certificate the solver returns are pinned, not only their validity.
    # The digest was recorded from the kernel that still took rows with
    # senses and rational entries; any kernel that pivots differently
    # changes it.
    results = [tuple(solve(nvars, rows, free)) for nvars, free, rows in _pinned_lps()]
    assert Counter(r[0] for r in results) == {OPTIMAL: 140, INFEASIBLE: 160}
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digest == "d1d9cb26c9482765e162e65c22d8345f93d23eb5e1c75ada43f7654b117488de"


def _hull_shaped_lps():
    """k equality rows over k nonnegative columns of rank k - 1, as cones' hull LPs are.

    The right-hand side is a nonnegative combination of the columns (inside
    the cone), a combination with some negative weights (in the span, mostly
    outside the cone), or random (off the span).
    """
    rng = random.Random(1414)
    for trial in range(240):
        k = rng.randint(3, 10)
        span = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k - 1)]
        while _rank(span) < k - 1:
            span = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k - 1)]
        gens = span + [[sum(rng.randint(-2, 2) * v[i] for v in span) for i in range(k)]]
        kind = trial % 3
        if kind == 2:
            rhs = [rng.randint(-4, 4) for _ in range(k)]
        else:
            lam = [rng.randint(-kind, 3) for _ in gens]
            rhs = [sum(w * g[i] for w, g in zip(lam, gens)) for i in range(k)]
        yield kind, [([g[i] for g in gens], rhs[i]) for i in range(k)]


def test_pinned_hull_shaped_path():
    # the shape of every LP a query solves; the digest was recorded from the
    # two-phase solver that normalized each row by its own gcd
    results = []
    kinds = Counter()
    for kind, rows in _hull_shaped_lps():
        lp = ExactLP(len(rows))
        for coeffs, rhs in rows:
            lp.add(coeffs, rhs)
        res = lp.minimize()
        if res.status == OPTIMAL:
            check_solution(rows, set(), res)
        else:
            check_farkas(rows, set(), res.duals)
        kinds[kind, res.status] += 1
        results.append(tuple(res))
    assert kinds == {(0, OPTIMAL): 80, (1, OPTIMAL): 20, (1, INFEASIBLE): 60, (2, INFEASIBLE): 80}
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digest == "ff01db9a477274b2e561d060d993d9b3f9e4126959fb69eee4e763d4778cb278"
