import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from multiutility.linprog import INFEASIBLE, OPTIMAL, ExactLP
from oracles import _rank


def check_minimize_certificate(rows, free, costs, res):
    # primal feasibility, dual sign compatibility, dual feasibility,
    # and strong duality together certify optimality exactly
    x, y = res.solution, res.duals
    for (coeffs, sense, rhs), mult in zip(rows, y):
        lhs = sum(c * v for c, v in zip(coeffs, x))
        assert (lhs <= rhs if sense == "<=" else lhs >= rhs if sense == ">=" else lhs == rhs)
        if sense == ">=":
            assert mult >= 0
        elif sense == "<=":
            assert mult <= 0
    for j, cost in enumerate(costs):
        col = sum(y_i * coeffs[j] for y_i, (coeffs, _, _) in zip(y, rows))
        if j in free:
            assert col == cost
        else:
            assert col <= cost
            assert x[j] >= 0
    assert sum(y_i * rhs for y_i, (_, _, rhs) in zip(y, rows)) == res.objective
    assert sum(c * v for c, v in zip(costs, x)) == res.objective


def check_farkas(rows, free, y):
    # infeasibility certificate: sign-compatible y with y.A <= 0 on
    # nonnegative columns, y.A == 0 on free columns, and y.b > 0
    for (_, sense, _), mult in zip(rows, y):
        if sense == ">=":
            assert mult >= 0
        elif sense == "<=":
            assert mult <= 0
    nvars = len(rows[0][0])
    for j in range(nvars):
        col = sum(y_i * coeffs[j] for y_i, (coeffs, _, _) in zip(y, rows))
        if j in free:
            assert col == 0
        else:
            assert col <= 0
    assert sum(y_i * rhs for y_i, (_, _, rhs) in zip(y, rows)) > 0


def test_minimize_known_optimum():
    # phase 1 reaches its minimum 0 at a vertex of the rows, with zero duals
    rows = [([1, 1], ">=", 4), ([1, 0], "<=", 3)]
    lp = ExactLP(2)
    for coeffs, sense, rhs in rows:
        lp.add(coeffs, sense, rhs)
    res = lp.minimize()
    assert res == (OPTIMAL, 0, (3, 1), (0, 0))
    check_minimize_certificate(rows, set(), [0, 0], res)


def test_fractional_data():
    lp = ExactLP(1)
    lp.add(["2/3"], "<=", "1/7")
    lp.add(["2/3"], ">=", "1/7")
    res = lp.minimize()
    assert res.status == OPTIMAL
    assert res.solution == (Fraction(3, 14),)


def test_equality_system_with_free_variables():
    lp = ExactLP(2, free=(0, 1))
    lp.add([1, 1], "==", 5)
    lp.add([1, -1], "==", 1)
    res = lp.minimize()
    assert res.status == OPTIMAL
    assert res.solution == (3, 2)


def test_infeasible_farkas():
    rows = [([Fraction(1)], "<=", Fraction(-1))]
    lp = ExactLP(1)
    lp.add([1], "<=", -1)
    res = lp.minimize()
    assert res.status == INFEASIBLE
    check_farkas(rows, set(), res.duals)


def test_infeasible_between_rows():
    rows = [
        ([Fraction(1), Fraction(1)], ">=", Fraction(3)),
        ([Fraction(1), Fraction(1)], "<=", Fraction(2)),
    ]
    lp = ExactLP(2)
    for coeffs, sense, rhs in rows:
        lp.add(coeffs, sense, rhs)
    res = lp.minimize()
    assert res.status == INFEASIBLE
    check_farkas(rows, set(), res.duals)


def test_degenerate_pivoting_terminates():
    # Beale's cycling example for naive pivoting, with its objective bound as
    # a row: two of its rows have a zero right-hand side, so phase 1 is
    # degenerate, and Bland's rule must terminate.  The optimum -1/20 is
    # reached, and nothing better is.
    costs = [Fraction(-3, 4), 150, Fraction(-1, 50), 6]
    for bound, status in ((Fraction(-1, 20), OPTIMAL), (Fraction(-1, 20) - Fraction(1, 1000), INFEASIBLE)):
        rows = [
            ([Fraction(1, 4), -60, Fraction(-1, 25), 9], "<=", 0),
            ([Fraction(1, 2), -90, Fraction(-1, 50), 3], "<=", 0),
            ([0, 0, 1, 0], "<=", 1),
            (costs, "<=", bound),
        ]
        lp = ExactLP(4)
        for coeffs, sense, rhs in rows:
            lp.add(coeffs, sense, rhs)
        res = lp.minimize()
        assert res.status == status
        if status == OPTIMAL:
            check_minimize_certificate(rows, set(), [0] * 4, res)
            assert sum(c * v for c, v in zip(costs, res.solution)) == bound
        else:
            check_farkas(rows, set(), res.duals)


def test_divisor_starts_at_the_product_of_the_row_denominators():
    # the rows clear by 2 and by 4; an integer tableau over their lcm 4, not
    # the starting basis's determinant 8, truncates and reports INFEASIBLE
    rows = [([0, Fraction(5, 2)], "==", 4), ([1, -4], ">=", Fraction(-5, 4))]
    lp = ExactLP(2)
    for coeffs, sense, rhs in rows:
        lp.add(coeffs, sense, rhs)
    res = lp.minimize()
    assert res == (OPTIMAL, 0, (Fraction(103, 20), Fraction(8, 5)), (0, 0))
    check_minimize_certificate(rows, set(), [0, 0], res)


def test_redundant_equality_rows():
    # the second row is twice the first, so an artificial stays basic at 0
    lp = ExactLP(2)
    lp.add([1, 1], "==", 2)
    lp.add([2, 2], "==", 4)
    assert lp.minimize() == (OPTIMAL, 0, (2, 0), (0, 0))


def test_input_validation():
    lp = ExactLP(2)
    with pytest.raises(ValueError):
        lp.add([1], "<=", 0)
    with pytest.raises(ValueError):
        lp.add([1, 2], "<", 0)
    with pytest.raises(ValueError):
        ExactLP(2, free=(5,))
    with pytest.raises(TypeError):
        lp.add([0.5, 1], "<=", 0)
    with pytest.raises(TypeError):
        lp.add([1, 1], "<=", 0.5)


def test_number_of_variables_is_a_nonnegative_int():
    for bad in (2.5, True, Fraction(2), "2"):
        with pytest.raises(TypeError):
            ExactLP(bad)
    with pytest.raises(ValueError):
        ExactLP(-1)
    lp = ExactLP(0)
    assert lp.minimize() == (OPTIMAL, 0, (), ())
    lp.add([], "<=", -1)
    assert lp.minimize() == (INFEASIBLE, None, None, (-1,))


def test_random_lps_certified():
    rng = random.Random(99)
    statuses = {OPTIMAL: 0, INFEASIBLE: 0}
    for _ in range(120):
        nvars = rng.randint(1, 3)
        free = {j for j in range(nvars) if rng.random() < 0.3}
        rows = []
        lp = ExactLP(nvars, free=free)
        for _ in range(rng.randint(1, 4)):
            coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(nvars)]
            sense = rng.choice(["<=", ">=", "=="])
            rhs = Fraction(rng.randint(-4, 4))
            rows.append((coeffs, sense, rhs))
            lp.add(coeffs, sense, rhs)
        res = lp.minimize()
        statuses[res.status] += 1
        if res.status == OPTIMAL:
            check_minimize_certificate(rows, free, [0] * nvars, res)
        else:
            check_farkas(rows, free, res.duals)
    # the sample is varied enough to hit both outcomes
    assert all(count > 0 for count in statuses.values())


def _pinned_frac(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 6))


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
                coeffs, sense, rhs = rng.choice(rows)
                k = Fraction(rng.randint(1, 6), rng.randint(1, 6))
                rows.append(([k * c for c in coeffs], sense, k * rhs))
                continue
            if free and kind < 0.35:
                # an equality on the free variables only
                coeffs = [_pinned_frac(rng) if j in free else Fraction(0) for j in range(nvars)]
                sense = "=="
            else:
                coeffs = [_pinned_frac(rng) if rng.random() < 0.7 else Fraction(0) for _ in range(nvars)]
                sense = rng.choice(["<=", ">=", "=="])
            # zero right-hand sides make degenerate ratio-test ties
            rhs = Fraction(0) if rng.random() < 0.3 else _pinned_frac(rng)
            rows.append((coeffs, sense, rhs))
        # the costs these LPs were first drawn with, still drawn so that the same 300 LPs follow
        for j in range(nvars):
            if j not in free or rng.random() >= 0.7:
                rng.random()
                _pinned_frac(rng)
        yield nvars, free, rows


def test_pinned_pivot_path():
    # Bland's rule fixes the whole pivot path, so the point and the
    # certificate the solver returns are pinned, not only their validity.
    # The digest was recorded from the two-phase solver's feasibility solve;
    # any kernel that pivots differently changes it.
    results = []
    for nvars, free, rows in _pinned_lps():
        lp = ExactLP(nvars, free=free)
        for coeffs, sense, rhs in rows:
            lp.add(coeffs, sense, rhs)
        res = lp.minimize()
        if res.status == OPTIMAL:
            check_minimize_certificate(rows, free, [0] * nvars, res)
        else:
            check_farkas(rows, free, res.duals)
        results.append(tuple(res))
    assert Counter(r[0] for r in results) == {OPTIMAL: 202, INFEASIBLE: 98}
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digest == "d78eeab70ac937cd2c44950208948874bfa9ae8a0a6198c1d3bd16032cfe9590"


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
        yield kind, [([g[i] for g in gens], "==", rhs[i]) for i in range(k)]


def test_pinned_hull_shaped_path():
    # the shape of every LP a query solves; the digest was recorded from the
    # two-phase solver that normalized each row by its own gcd
    results = []
    kinds = Counter()
    for kind, rows in _hull_shaped_lps():
        lp = ExactLP(len(rows))
        for coeffs, sense, rhs in rows:
            lp.add(coeffs, sense, rhs)
        res = lp.minimize()
        if res.status == OPTIMAL:
            check_minimize_certificate(rows, set(), [0] * len(rows), res)
        else:
            check_farkas(rows, set(), res.duals)
        kinds[kind, res.status] += 1
        results.append(tuple(res))
    assert kinds == {(0, OPTIMAL): 80, (1, OPTIMAL): 20, (1, INFEASIBLE): 60, (2, INFEASIBLE): 80}
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digest == "ff01db9a477274b2e561d060d993d9b3f9e4126959fb69eee4e763d4778cb278"
