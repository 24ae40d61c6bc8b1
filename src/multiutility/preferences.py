"""From revealed preferences over lotteries to a multi-utility representation.

A dataset of statements "lottery p is weakly preferred to lottery q" spans a
cone of difference vectors p - q inside the zero-sum hyperplane.  The dual of
that cone, read modulo constant shifts, is a finite set of utility vectors
that represents the entailment closure of the data: p is entailed to be
preferred to q exactly when every extracted utility gives p at least the
expected payoff of q.  Queries answer with certificates either way, so every
verdict can be rechecked by plain arithmetic.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from ._linalg import clear_denominators, dot, is_zero, primitive
from .cones import (
    DimensionMismatchError,
    MembershipCertificate,
    PolyhedralCone,
    canonical_rep,
    cone_from_inequalities,
    contains,
    dual_cone,
    membership,
)
from .measures import (
    Lottery,
    Measure,
    OutcomeSpace,
    SpaceMismatchError,
    UnknownOutcomeError,
    Utility,
    decompose,
    mix,
)

ENTAILED_ONLY = "ENTAILED_ONLY"
REVERSE_ONLY = "REVERSE_ONLY"
INDIFFERENT = "INDIFFERENT"
INCOMPARABLE = "INCOMPARABLE"


@dataclass(frozen=True)
class PreferenceDataset:
    """Finite list of revealed weak-preference statements (p over q).

    Duplicates are allowed; they collapse once the difference vectors are
    canonicalized inside the cone.
    """

    space: OutcomeSpace
    statements: tuple[tuple[Lottery, Lottery], ...]

    def __post_init__(self):
        for p, q in self.statements:
            if p.space != self.space or q.space != self.space:
                raise SpaceMismatchError("statement lotteries must live on the dataset space")


@dataclass(frozen=True)
class MonotoneStructure:
    """Exogenous ranking of outcomes: pairs (better, worse)."""

    space: OutcomeSpace
    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        for a, b in self.pairs:
            if a not in self.space or b not in self.space:
                raise UnknownOutcomeError(f"ranking pair ({a!r}, {b!r}) uses unknown outcomes")


@dataclass(frozen=True)
class Representation:
    """Multi-utility representation extracted from a dataset.

    ``utilities`` is never empty; each one is pinned to payoff zero at
    ``pin``.  ``dual`` is the utility cone {u : E_p[u] >= E_q[u] for every
    statement} in the ambient coordinate space, built by one double
    description pass with the difference vectors p - q as its rows; its
    lineality always contains the constant direction.  ``cone``, the data
    cone those differences span, is read off it by ``dual_cone``: canonical,
    with ``dual.directed_generators`` as its inequality rows, so membership
    answers OUT with the first row the queried vector violates.
    """

    space: OutcomeSpace
    utilities: tuple[Utility, ...]
    cone: PolyhedralCone
    dual: PolyhedralCone
    pin: str


@dataclass(frozen=True)
class QueryVerdict:
    """Classification of an ordered lottery pair with both certificates."""

    classification: str
    forward: MembershipCertificate
    backward: MembershipCertificate


def extract_representation(dataset: PreferenceDataset, pin: str) -> Representation:
    """Compute the finite utility set representing the data's entailments.

    One double description pass over the statement differences builds the
    utility cone, and ``dual_cone`` reads the data cone off its rays.  The
    utility cone's rays, and both directions of its lineality, are shifted
    so the pinned outcome pays zero, rescaled to primitive integers,
    deduplicated and sorted; the constant direction shifts to zero and
    drops out.  When nothing survives (the data identify all lotteries), the
    zero utility alone is returned so the set is never empty.
    """
    space = dataset.space
    pin_index = space.position(pin)
    dual = cone_from_inequalities([(p - q).dense() for p, q in dataset.statements], len(space))
    shifted = {primitive(tuple(x - v[pin_index] for x in v)) for v in dual.directed_generators}
    vectors = sorted(v for v in shifted if not is_zero(v)) or [(0,) * len(space)]
    utilities = tuple(Utility(space, v) for v in vectors)
    return Representation(space, utilities, dual_cone(dual), dual, pin)


def _classify(forward_in: bool, backward_in: bool) -> str:
    if forward_in and backward_in:
        return INDIFFERENT
    if forward_in:
        return ENTAILED_ONLY
    if backward_in:
        return REVERSE_ONLY
    return INCOMPARABLE


def query(rep: Representation, p: Lottery, q: Lottery) -> QueryVerdict:
    """Classify the ordered pair (p, q) against the entailment cone.

    Forward tests p - q, backward tests q - p; the four verdict classes are
    the four combinations of the two membership answers.  Testing every
    extracted utility's expectations gives the same answer (the dual cone is
    generated by the utility set up to constants); tests cross-check that.
    """
    if p.space != rep.space or q.space != rep.space:
        raise SpaceMismatchError("query lotteries must live on the representation space")
    diff = (p - q).dense()
    forward = membership(rep.cone, diff)
    backward = membership(rep.cone, [-v for v in diff])
    return QueryVerdict(_classify(forward.verdict == "IN", backward.verdict == "IN"), forward, backward)


def check_uniqueness(first: Iterable[Utility], second: Iterable[Utility]) -> bool:
    """Do two utility sets induce the same preference relation?

    True exactly when their closed conic hulls, taken together with both
    constant directions, coincide.  Canonical forms are unique, so the hulls
    coincide exactly when their canonical forms are equal.
    """
    a, b = canonical_rep(first), canonical_rep(second)
    if a.dim != b.dim:
        raise DimensionMismatchError(f"cannot compare utility sets on {a.dim} and {b.dim} outcomes")
    return a == b


def monotone_extend(dataset: PreferenceDataset, ranking: MonotoneStructure) -> PreferenceDataset:
    """Append one point-mass statement per ranking pair (better over worse)."""
    if ranking.space != dataset.space:
        raise SpaceMismatchError("ranking and dataset use different outcome spaces")
    extra = tuple(
        (Lottery.point_mass(dataset.space, a), Lottery.point_mass(dataset.space, b))
        for a, b in ranking.pairs
    )
    return PreferenceDataset(dataset.space, dataset.statements + extra)


def check_increasing(u: Utility, ranking: MonotoneStructure) -> bool:
    """Does the utility weakly respect the outcome ranking?"""
    return first_violation(u, ranking) is None


def first_violation(u: Utility, ranking: MonotoneStructure) -> tuple[str, str] | None:
    """First ranking pair the utility fails, or None."""
    if ranking.space != u.space:
        raise SpaceMismatchError("ranking and utility use different outcome spaces")
    for a, b in ranking.pairs:
        if u.value(a) < u.value(b):
            return (a, b)
    return None


# -- self-test sampling --------------------------------------------------------


def _random_rational(rng: random.Random, max_den: int = 6, max_num: int = 4) -> Fraction:
    return Fraction(rng.randint(0, max_num), rng.randint(1, max_den))


def _random_lottery(rng: random.Random, space: OutcomeSpace) -> Lottery:
    n = len(space)
    den = rng.randint(1, 9)
    cuts = sorted(rng.randint(0, den) for _ in range(n - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    return Lottery.from_values(space, [Fraction(k, den) for k in parts])


def _random_entailed_pair(
    rng: random.Random, dataset: PreferenceDataset
) -> tuple[Lottery, Lottery]:
    """A pair (p, q) with p - q in the data cone, built from the statements."""
    space = dataset.space
    total = Measure.zero(space)
    for p, q in dataset.statements:
        if rng.randint(0, 1):
            continue
        total = total + (p - q).scale(_random_rational(rng))
    if total.is_zero():
        r = _random_lottery(rng, space)
        return r, r
    split = decompose(total)
    return split.plus, split.minus


def check_independence_closure(dataset: PreferenceDataset, samples: int = 100, seed: int = 0) -> bool:
    """Sampled self-test of the independence axiom on the entailment closure.

    Draws pseudo-random rational triples (p, q, r) with p entailed over q and
    a mixing weight alpha in (0, 1), then verifies that mixing both sides
    with r leaves the verdict unchanged in both directions; additional
    unconstrained pairs exercise the non-entailed side.  Deterministic for a
    fixed seed.  Returns True only if every sample agrees.
    """
    rng = random.Random(seed)
    space = dataset.space
    # the representation's cone carries inequality rows: verdicts are dot products
    cone = extract_representation(dataset, space.outcomes[0]).cone
    for _ in range(samples):
        if dataset.statements:
            p, q = _random_entailed_pair(rng, dataset)
            if not contains(cone, (p - q).dense()):
                return False
        else:
            p = q = _random_lottery(rng, space)
        r = _random_lottery(rng, space)
        den = rng.randint(2, 9)
        alpha = Fraction(rng.randint(1, den - 1), den)
        mixed = (mix(alpha, p, r) - mix(alpha, q, r)).dense()
        if not contains(cone, mixed):
            return False
        a, b = _random_lottery(rng, space), _random_lottery(rng, space)
        plain = (a - b).dense()
        mixed_ab = (mix(alpha, a, r) - mix(alpha, b, r)).dense()
        if contains(cone, plain) != contains(cone, mixed_ab):
            return False
        if contains(cone, [-v for v in plain]) != contains(cone, [-v for v in mixed_ab]):
            return False
    return True


def utilities_agree(rep: Representation, p: Lottery, q: Lottery) -> str:
    """Classification recomputed from expectations against every utility.

    E_p[u] - E_q[u] = <p - q, u>, whose sign positive scaling keeps, so one
    integer dot product per utility decides both directions.  Independent of
    the cone-membership route; used to cross-check queries.
    """
    if p.space != rep.space or q.space != rep.space:
        raise SpaceMismatchError("query lotteries must live on the representation space")
    diff, _ = clear_denominators((p - q).dense())
    gaps = [dot(diff, clear_denominators(u.values)[0]) for u in rep.utilities]
    return _classify(all(g >= 0 for g in gaps), all(g <= 0 for g in gaps))
