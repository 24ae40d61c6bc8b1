from fractions import Fraction

import pytest

from multiutility import (
    CertificateError,
    TruncationRangeError,
    anchor_membership,
    build_truncation,
    counterexample,
    inequality_chain,
    lab_table,
    separation_cost,
)
from multiutility._linalg import primitive
from multiutility.cones import OUT
from multiutility.counterexample import MAX_TRUNCATION
from multiutility.linprog import OPTIMAL
from multiutility.measures import Measure
from itertools import combinations

from test_cones import _spy_on_lp
from test_linprog import solve


def test_build_smallest():
    t = build_truncation(1)
    assert t.space.outcomes == ("a", "b1", "h(a)", "h(b1)")
    assert len(t.generators) == 1
    # e(a) + e(b1): +1 on a and b1, -1 on the paired images
    assert t.generators[0].dense() == (1, 1, -1, -1)
    assert t.anchor.dense() == (1, 0, -1, 0)


def test_build_pair_weights():
    t = build_truncation(2)
    assert len(t.generators) == 3
    # the size-2 subset carries coefficient 1/|B|^2 = 1/4
    g = t.generators[-1]
    assert g.value("a") == 1
    assert g.value("b1") == Fraction(1, 4)
    assert g.value("b2") == Fraction(1, 4)
    assert g.value("h(b1)") == Fraction(-1, 4)


def test_build_matches_the_definition():
    # g(B) = e(a) + sum over b in B of e(b) / |B|^2, by plain measure arithmetic
    for n in range(1, 9):
        t = build_truncation(n)

        def e(label):
            return Measure.from_mapping(t.space, {label: 1, f"h({label})": -1})

        expected = []
        for size in range(1, n + 1):
            for subset in combinations(range(1, n + 1), size):
                g = e("a")
                for i in subset:
                    g = g + e(f"b{i}").scale(Fraction(1, size * size))
                expected.append(g)
        assert t.anchor == e("a")
        assert t.generators == tuple(expected)


def test_integer_generators_are_the_primitive_generators_in_order():
    # the cone's rays, written from the closed form, against clearing each Fraction generator,
    # at every supported size
    for n in range(1, MAX_TRUNCATION + 1):
        t = build_truncation(n)
        assert t.cone.rays == tuple(sorted(primitive(g.dense()) for g in t.generators))
        assert all(type(v) is int for g in t.cone.rays for v in g)


def test_build_counts_and_zero_sum():
    t = build_truncation(3)
    assert len(t.generators) == 7
    assert len(t.space) == 8
    assert all(g.total() == 0 for g in t.generators)
    assert t.anchor.total() == 0


def test_range_validation():
    for bad in (0, -1, 13, "3", 2.0, True, False):
        with pytest.raises(TruncationRangeError):
            build_truncation(bad)
        with pytest.raises(TruncationRangeError):
            lab_table(bad)


def test_anchor_always_out():
    for n in range(1, 7):
        t = build_truncation(n)
        cert = anchor_membership(t)
        assert cert.verdict == OUT
        # the separator must pay >= 0 on every generator and < 0 on the anchor
        sep = cert.separator
        anchor = t.anchor.dense()
        assert sum(s * v for s, v in zip(sep, anchor)) < 0
        for g in t.generators:
            assert sum(s * v for s, v in zip(sep, g.dense())) >= 0


def test_a_failed_anchor_check_raises_instead_of_solving(monkeypatch):
    calls = _spy_on_lp(monkeypatch)
    monkeypatch.setattr(counterexample, "verify_membership", lambda *args: False)
    with pytest.raises(CertificateError, match="anchor separator at n=3"):
        anchor_membership(build_truncation(3))
    assert calls == []


def test_separation_cost_values():
    # the optimum puts all dual weight on the full subset: cost is n - 1
    for n in range(1, 7):
        assert separation_cost(build_truncation(n)) == n - 1


def test_separation_cost_is_certified_without_an_lp(monkeypatch):
    calls = _spy_on_lp(monkeypatch)
    for n in range(1, 13):
        assert separation_cost(build_truncation(n)) == n - 1
    # the anchor's separator too, at every size
    assert [cost for *_, cost in lab_table(8)] == list(range(8))
    assert calls == []


def _unit(j, size):
    return [int(t == j) for t in range(size)]


def _separation_cost_by_weak_duality(n):
    """n - 1, pinned as the reduced primal's optimum by two feasibility solves.

    The primal minimizes M over free w_1..w_n and M, subject to
    sum_{i in S} w_i >= |S|^2 for every nonempty S and w_i - M <= 1.  Its dual
    maximizes sum_S |S|^2 y_S - sum_i z_i over y, z >= 0 with
    sum_{S containing i} y_S = z_i and sum_i z_i = 1.  A primal point with
    M = n - 1 and a dual point of objective at least n - 1 meet by weak
    duality, so the optimum is exactly n - 1.  Every inequality is posed as
    an equality row with a nonnegative slack column of its own.
    """
    subsets = [s for size in range(1, n + 1) for s in combinations(range(n), size)]
    # primal columns: w_1..w_n and M (free), then a slack per subset row and per w_i - M row
    slacks = len(subsets) + n
    primal = [
        ([int(i in s) for i in range(n)] + [0] + [-u for u in _unit(j, slacks)], len(s) ** 2)
        for j, s in enumerate(subsets)
    ]
    primal += [(_unit(i, n) + [-1] + _unit(len(subsets) + i, slacks), 1) for i in range(n)]
    primal.append(([0] * n + [1] + [0] * slacks, n - 1))
    assert solve(n + 1 + slacks, primal, free=range(n + 1)).status == OPTIMAL
    # dual columns: y_S per subset, then z_i, then the objective row's slack
    dual = [([int(i in s) for s in subsets] + [-u for u in _unit(i, n)] + [0], 0) for i in range(n)]
    dual.append(([0] * len(subsets) + [1] * n + [0], 1))
    dual.append(([len(s) ** 2 for s in subsets] + [-1] * n + [-1], n - 1))
    assert solve(len(subsets) + n + 1, dual).status == OPTIMAL
    return n - 1


def test_separation_cost_matches_direct_simplex():
    for n in range(1, 7):
        assert separation_cost(build_truncation(n)) == _separation_cost_by_weak_duality(n)


def test_separation_cost_growth_bound():
    costs = [separation_cost(build_truncation(n)) for n in range(1, 8)]
    for n, cost in enumerate(costs, start=1):
        if n >= 2:
            assert cost > n - 2
    assert costs == sorted(costs)


def test_inequality_chain_frozen_values():
    assert inequality_chain(3, 5) == Fraction(-1, 5)
    assert inequality_chain(1, 3) == Fraction(-1, 3)
    # boundary: b = k0 + 1 is NOT yet negative, which is why the
    # contradiction takes a subset of size k0 + 2
    assert inequality_chain(2, 3) == 0


def test_inequality_chain_closed_form():
    for k0 in range(1, 21):
        for b in range(1, 25):
            assert inequality_chain(k0, b) == Fraction(k0 + 1, b) - 1


def test_inequality_chain_negative_past_threshold():
    for k0 in range(1, 21):
        assert inequality_chain(k0, k0 + 2) < 0


def test_inequality_chain_validation():
    with pytest.raises(ValueError):
        inequality_chain(3, 0)
    with pytest.raises(ValueError):
        inequality_chain(-1, 3)


def test_lab_table_shape():
    rows = lab_table(4)
    assert [(n, count) for n, count, _, _ in rows] == [(1, 1), (2, 3), (3, 7), (4, 15)]
    assert all(verdict == OUT for _, _, verdict, _ in rows)
    assert [cost for *_, cost in rows] == [0, 1, 2, 3]
