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

from typing import Iterable, NamedTuple

from ._linalg import Cleared, IntVector, clear_denominators, dot, is_zero, primitive
from .cones import (
    DimensionMismatchError,
    MembershipCertificate,
    PolyhedralCone,
    canonical_rep,
    cone_from_inequalities,
    dual_cone,
    membership,
)
from .measures import (
    Lottery,
    OutcomeSpace,
    SpaceMismatchError,
    UnknownOutcomeError,
    Utility,
)

ENTAILED_ONLY = "ENTAILED_ONLY"
REVERSE_ONLY = "REVERSE_ONLY"
INDIFFERENT = "INDIFFERENT"
INCOMPARABLE = "INCOMPARABLE"


def _validated(cls, fields):
    # _replace builds through _make; calling the class runs __new__'s checks
    return cls(*fields)


class _Statements(NamedTuple):
    space: OutcomeSpace
    statements: tuple[tuple[Lottery, Lottery], ...]


class PreferenceDataset(_Statements):
    """Finite list of revealed weak-preference statements (p over q), stored as a tuple of pairs.

    A statement that is not a pair raises ``ValueError``, a side that is not a
    ``Lottery`` ``TypeError``.  Duplicates are allowed; they collapse once the
    difference vectors are canonicalized inside the cone.
    """

    __slots__ = ()

    def __new__(cls, space: OutcomeSpace, statements: Iterable[tuple[Lottery, Lottery]]):
        statements = tuple(map(tuple, statements))
        for s in statements:
            if len(s) != 2:
                raise ValueError(f"a statement is a pair (p, q), got {len(s)} items")
            if not all(isinstance(x, Lottery) for x in s):
                raise TypeError(f"statement sides must be Lottery, got {' and '.join(type(x).__name__ for x in s)}")
            if any(x.space != space for x in s):
                raise SpaceMismatchError("statement lotteries must live on the dataset space")
        return super().__new__(cls, space, statements)

    _make = classmethod(_validated)


class _Ranking(NamedTuple):
    space: OutcomeSpace
    pairs: tuple[tuple[str, str], ...]


class MonotoneStructure(_Ranking):
    """Exogenous ranking of outcomes: pairs (better, worse)."""

    __slots__ = ()

    def __new__(cls, space: OutcomeSpace, pairs: tuple[tuple[str, str], ...]):
        for a, b in pairs:
            if a not in space or b not in space:
                raise UnknownOutcomeError(f"ranking pair ({a!r}, {b!r}) uses unknown outcomes")
        return super().__new__(cls, space, pairs)

    _make = classmethod(_validated)


class Representation(NamedTuple):
    """Multi-utility representation extracted from a dataset.

    ``utilities`` is never empty.  Each one is a utility's canonical member
    up to positive affine maps: a primitive integer vector aligned with
    ``space`` that pays zero at ``pin``; ``Utility(rep.space, u)`` wraps one
    for the functions that take a ``Utility``.  ``dual`` is the utility cone
    {u : E_p[u] >= E_q[u] for every statement} in the ambient coordinate
    space, built by one double description pass with the difference vectors
    p - q as its rows; its lineality always contains the constant direction.
    ``cone``, the data cone those differences span, is read off it by
    ``dual_cone``: canonical, with ``dual.directed_generators`` as its
    inequality rows, so membership answers OUT with the first row the
    queried vector violates.
    """

    space: OutcomeSpace
    utilities: tuple[IntVector, ...]
    cone: PolyhedralCone
    dual: PolyhedralCone
    pin: str


class QueryVerdict(NamedTuple):
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
    drops out.  These integer vectors are the utilities, with no ``Utility``
    built.  When nothing survives (the data identify all lotteries), the
    zero vector alone is returned so the set is never empty.
    """
    space = dataset.space
    pin_index = space.position(pin)
    dual = cone_from_inequalities([(p - q).dense() for p, q in dataset.statements], len(space))
    shifted = {primitive(tuple(x - v[pin_index] for x in v)) for v in dual.directed_generators}
    utilities = tuple(sorted(v for v in shifted if not is_zero(v))) or ((0,) * len(space),)
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
    return _query_cleared(rep, _cleared_difference(rep, p, q))


def _cleared_difference(rep: Representation, p: Lottery, q: Lottery) -> Cleared:
    """p - q over the representation's space, cleared to integers once per pair."""
    if p.space != rep.space or q.space != rep.space:
        raise SpaceMismatchError("query lotteries must live on the representation space")
    return clear_denominators((p - q).dense())


def _query_cleared(rep: Representation, diff: Cleared) -> QueryVerdict:
    forward = membership(rep.cone, diff)
    backward = membership(rep.cone, -diff)
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


def utilities_agree(rep: Representation, p: Lottery, q: Lottery) -> str:
    """Classification recomputed from expectations against every utility.

    E_p[u] - E_q[u] = <p - q, u>, whose sign positive scaling keeps, so one
    integer dot product per utility decides both directions.  Independent of
    the cone-membership route; used to cross-check queries.
    """
    return _agree_cleared(rep, _cleared_difference(rep, p, q))


def _agree_cleared(rep: Representation, diff: Cleared) -> str:
    gaps = [dot(diff.nums, u) for u in rep.utilities]
    return _classify(all(g >= 0 for g in gaps), all(g <= 0 for g in gaps))
