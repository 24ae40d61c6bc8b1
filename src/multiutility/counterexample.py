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
growth observable with exact numbers: a closed-form separator and cost,
each certified by exact arithmetic with no LP.  The truncation's cone is
built once, from each generator's primitive integer vector written from its
closed form, |B|^2 * g(B): |B|^2 on a, 1 on each b in B, and the negations
on their images.  An entry of 1 makes it primitive with no gcd to take.
The anchor's OUT certificate is checked by verify_membership on that cone.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .cones import OUT, CertificateError, MembershipCertificate, PolyhedralCone, verify_membership
from .measures import Measure, OutcomeSpace

MAX_TRUNCATION = 12


class TruncationRangeError(ValueError):
    """Truncation size outside the supported range 1..12."""


class TruncatedConstruction(NamedTuple):
    """Size-n truncation: outcome space, anchor vector, subset generators and their cone."""

    n: int
    space: OutcomeSpace
    anchor: Measure
    generators: tuple[Measure, ...]
    cone: PolyhedralCone  # rays: each |B|^2 * g(B) in closed form, primitive by its entries of 1, sorted


def _pair_difference(space: OutcomeSpace, label: str) -> Measure:
    return Measure.from_mapping(space, {label: 1, f"h({label})": -1})


def build_truncation(n: int) -> TruncatedConstruction:
    """Construct the size-n truncation; generator count is 2^n - 1.

    Outcomes are ordered a, b1..bn, h(a), h(b1)..h(bn); subsets are
    enumerated in increasing size, ties in index order.
    """
    if type(n) is not int or not 1 <= n <= MAX_TRUNCATION:
        raise TruncationRangeError(f"truncation size must be an integer in 1..{MAX_TRUNCATION}, got {n!r}")
    labels = ["a"] + [f"b{i}" for i in range(1, n + 1)]
    space = OutcomeSpace(labels + [f"h({z})" for z in labels])
    anchor = _pair_difference(space, "a")
    singles = [_pair_difference(space, f"b{i}") for i in range(1, n + 1)]
    generators, ints = [], []
    for size in range(1, n + 1):
        weight = Fraction(1, size * size)
        for subset in combinations(range(n), size):
            total = anchor
            half = [size * size] + [0] * n  # |B|^2 * g(B) on a, b1..bn; its h-half is the negation
            for i in subset:
                total = total + singles[i].scale(weight)
                half[i + 1] = 1
            generators.append(total)
            ints.append(tuple(half + [-x for x in half]))
    return TruncatedConstruction(n, space, anchor, tuple(generators), PolyhedralCone(len(space), sorted(ints)))


def anchor_membership(trunc: TruncatedConstruction) -> MembershipCertificate:
    """Exact membership of the anchor in the truncation's cone.

    The verdict is OUT at every finite n, with an integer separating
    functional as certificate.  The generators are pointed and pairwise
    non-parallel by construction (every generator pays +1 on outcome a, and
    no two share a support), so the truncation's cone holds them directly,
    without canonicalization.

    The functional paying -1 on a, +1 on h(a), +n on each b and -n on each
    h(b) gives every size-s generator -2 + 2n/s >= 0 while the anchor gets
    -2.  The verdict never rests on the formula: the separator is checked
    by plain arithmetic, and a failed check raises CertificateError.
    """
    n = trunc.n
    sep = tuple([-1] + [n] * n + [1] + [-n] * n)
    cert = MembershipCertificate(OUT, separator=sep)
    if not verify_membership(trunc.cone, trunc.anchor.dense(), cert):
        raise CertificateError(f"anchor separator at n={n} failed its arithmetic recheck")
    return cert


def separation_cost(trunc: TruncatedConstruction) -> Fraction:
    """Cheapest worst case over singletons for a normalized separator.

    Minimize M subject to f(anchor) = -1, f(g) >= 0 for every generator g,
    and f(anchor + e(b)) <= M for every b.  The constraints see f only
    through w_i = f(e(b_i)), so the rows read sum over B of w_i >= |B|^2
    and w_i - M <= 1; the dual is max sum |B|^2 lam_B - 1 subject to
    sum |B| lam_B = 1, lam >= 0.  The answer is the closed form n - 1 from
    lam = 1/n on the full subset, certified by exact arithmetic on every
    call: that lam is dual feasible, so value - 1 is a weak-duality lower
    bound, and the uniform primal witness w = value, M = value - 1 is
    feasible, so the bound is attained.  A failed check raises
    CertificateError.
    """
    n = trunc.n
    lam = Fraction(1, n)  # on the full subset; every other lam_B is 0
    value = n * n * lam
    # each primal row depends only on |B|, so the witness is checked per size
    if not (lam >= 0 and n * lam == 1 and value - (value - 1) <= 1) or any(
        size * value < size * size for size in range(1, n + 1)
    ):
        raise CertificateError(f"separation cost at n={n} failed its weak-duality recheck")
    return value - 1


def inequality_chain(k0: int, b_size: int) -> Fraction:
    """Exact value of k0/b + b*(1/b^2 - 1/b) for subset size b.

    This is the upper bound forced on the average generator over a size-b
    subset when every singleton costs at most k0; it equals (k0+1)/b - 1 and
    is strictly negative as soon as b exceeds k0 + 1, which is the arithmetic
    heart of the unbounded-growth argument.
    """
    for name, x in (("k0", k0), ("b_size", b_size)):
        if type(x) is not int:
            raise TypeError(f"{name} must be an int, got {type(x).__name__} {x!r}")
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
    if type(n_max) is not int or not 1 <= n_max <= MAX_TRUNCATION:
        raise TruncationRangeError(f"truncation size must be an integer in 1..{MAX_TRUNCATION}, got {n_max!r}")
    for n in range(1, n_max + 1):
        trunc = build_truncation(n)
        yield trunc, anchor_membership(trunc), separation_cost(trunc)
        # let this size go before the next, larger one is built
        del trunc


def lab_table(n_max: int) -> list[tuple[int, int, str, Fraction]]:
    """Rows (n, generator count, anchor verdict, separation cost) for n = 1..n_max."""
    return [(t.n, len(t.generators), cert.verdict, cost) for t, cert, cost in lab(n_max)]
