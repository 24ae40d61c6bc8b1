"""Finite truncations showing closedness can fail without a countable basis.

The construction pairs each outcome with a shadow copy: outcomes a, b1..bn
and their images h(a), h(b1)..h(bn).  Writing e(x) for the signed difference
between the point mass at x and the point mass at h(x), the truncation's
generators are the vectors

    g(B) = e(a) + (1/|B|^2) * sum over b in B of e(b)

over all nonempty subsets B of {b1..bn}.  The anchor e(a) is the limit of
g({b1..bn}) sequences as the subsets grow, yet it stays strictly outside
every finite truncation's cone: any separating functional normalized to pay
-1 on the anchor must pay at least |B| on the average generator over B, so
the cost of separating grows without bound as n does.  The lab makes that
growth observable with exact numbers.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from ._linalg import primitive
from .cones import OUT, MembershipCertificate, PolyhedralCone, membership, verify_membership
from .linprog import OPTIMAL, CertificateError, ExactLP
from .measures import Measure, OutcomeSpace

MAX_TRUNCATION = 12


class TruncationRangeError(ValueError):
    """Truncation size outside the supported range 1..12."""


@dataclass(frozen=True)
class TruncatedConstruction:
    """Size-n truncation: outcome space, anchor vector, subset generators."""

    n: int
    space: OutcomeSpace
    anchor: Measure
    generators: tuple[Measure, ...]


def _pair_difference(space: OutcomeSpace, label: str) -> Measure:
    return Measure.from_mapping(space, {label: 1, f"h({label})": -1})


def build_truncation(n: int) -> TruncatedConstruction:
    """Construct the size-n truncation; generator count is 2^n - 1.

    Outcomes are ordered a, b1..bn, h(a), h(b1)..h(bn); subsets are
    enumerated in increasing size, ties in index order.
    """
    if not isinstance(n, int) or not 1 <= n <= MAX_TRUNCATION:
        raise TruncationRangeError(f"truncation size must be an integer in 1..{MAX_TRUNCATION}, got {n!r}")
    labels = ["a"] + [f"b{i}" for i in range(1, n + 1)]
    space = OutcomeSpace(labels + [f"h({z})" for z in labels])
    anchor = _pair_difference(space, "a")
    singles = [_pair_difference(space, f"b{i}") for i in range(1, n + 1)]
    generators = []
    for size in range(1, n + 1):
        weight = Fraction(1, size * size)
        for subset in combinations(range(n), size):
            total = anchor
            for i in subset:
                total = total + singles[i].scale(weight)
            generators.append(total)
    return TruncatedConstruction(n, space, anchor, tuple(generators))


def anchor_membership(trunc: TruncatedConstruction) -> MembershipCertificate:
    """Exact membership of the anchor in the truncation's cone.

    The verdict is OUT at every finite n, with an integer separating
    functional as certificate.  The generators are pointed and pairwise
    non-parallel by construction (every generator pays +1 on outcome a, and
    no two share a support), so the cone is built from them directly,
    without canonicalization.

    The functional paying -1 on a, +1 on h(a), +n on each b and -n on each
    h(b) gives every size-s generator -2 + 2n/s >= 0 while the anchor gets
    -2, so it is tried first and checked by plain arithmetic; the verdict
    never rests on the formula, because a failed check falls back to the
    generic LP route.
    """
    n = trunc.n
    cone = PolyhedralCone(len(trunc.space), sorted(primitive(g.dense()) for g in trunc.generators))
    target = trunc.anchor.dense()
    sep = tuple([-1] + [n] * n + [1] + [-n] * n)
    cert = MembershipCertificate(OUT, separator=sep)
    if verify_membership(cone, target, cert):
        return cert
    return membership(cone, target)


def separation_cost(trunc: TruncatedConstruction) -> Fraction:
    """Cheapest worst case over singletons for a normalized separator.

    Solves, exactly: minimize M subject to f(anchor) = -1, f(g) >= 0 for
    every generator g, and f(anchor + e(b)) <= M for every b.  Every
    constraint sees f only through its values on the paired differences
    e(a), e(b1)..e(bn), so the problem reduces to those n+1 coordinates;
    with f(anchor) pinned to -1 the rows become sums over subsets.  The
    reduced problem is solved through its one-row LP dual, and the answer is
    certified unconditionally by exact arithmetic: the dual solution is a
    weak-duality lower bound and a reconstructed primal witness must be
    feasible with the same objective.  If certification ever failed the full
    reduced primal would be solved directly by simplex.
    """
    n = trunc.n
    subsets = [
        subset
        for size in range(1, n + 1)
        for subset in combinations(range(n), size)
    ]
    # dual: max sum |B|^2 lam_B  subject to  sum |B| lam_B = 1, lam >= 0
    lp = ExactLP(len(subsets))
    lp.add([len(s) for s in subsets], "==", 1)
    res = lp.maximize([len(s) * len(s) for s in subsets])
    if res.status == OPTIMAL:
        lam = res.solution
        if all(v >= 0 for v in lam) and sum(len(s) * v for s, v in zip(subsets, lam)) == 1:
            value = sum(Fraction(len(s) * len(s)) * v for s, v in zip(subsets, lam))
            # witness: uniform w = value, M = value - 1
            if all(len(s) * value >= len(s) * len(s) for s in subsets):
                return value - 1
    return _separation_cost_primal(n, subsets)


def _separation_cost_primal(n: int, subsets) -> Fraction:
    # generic fallback: variables w1..wn and M, all free
    lp = ExactLP(n + 1, free=range(n + 1))
    for s in subsets:
        coeffs = [1 if i in s else 0 for i in range(n)] + [0]
        lp.add(coeffs, ">=", len(s) * len(s))
    for i in range(n):
        coeffs = [int(j == i) for j in range(n)] + [-1]
        lp.add(coeffs, "<=", 1)
    res = lp.minimize([0] * n + [1])
    if res.status != OPTIMAL:
        raise CertificateError(f"separation LP ended {res.status}, but it is feasible and bounded")
    return res.objective


def inequality_chain(k0: int, b_size: int) -> Fraction:
    """Exact value of k0/b + b*(1/b^2 - 1/b) for subset size b.

    This is the upper bound forced on the average generator over a size-b
    subset when every singleton costs at most k0; it equals (k0+1)/b - 1 and
    is strictly negative as soon as b exceeds k0 + 1, which is the arithmetic
    heart of the unbounded-growth argument.
    """
    if b_size < 1:
        raise ValueError(f"subset size must be positive, got {b_size}")
    if k0 < 0:
        raise ValueError(f"cost bound must be nonnegative, got {k0}")
    b = Fraction(b_size)
    return Fraction(k0) / b + b * (1 / (b * b) - 1 / b)


def lab(n_max: int):
    """Yield (construction, anchor certificate, separation cost) for n = 1..n_max.

    Each size is built and certified once, when the caller asks for it, so
    a caller that streams the rows never holds the whole lab at once.  The
    counterexample verb streams it and rechecks each certificate against
    its own construction; lab_table is its list of rows.
    """
    if not isinstance(n_max, int) or not 1 <= n_max <= MAX_TRUNCATION:
        raise TruncationRangeError(f"truncation size must be an integer in 1..{MAX_TRUNCATION}, got {n_max!r}")
    for n in range(1, n_max + 1):
        trunc = build_truncation(n)
        yield trunc, anchor_membership(trunc), separation_cost(trunc)
        # let this size go before the next, larger one is built
        del trunc


def lab_table(n_max: int) -> list[tuple[int, int, str, Fraction]]:
    """Rows (n, generator count, anchor verdict, separation cost) for n = 1..n_max."""
    return [(t.n, len(t.generators), cert.verdict, cost) for t, cert, cost in lab(n_max)]
