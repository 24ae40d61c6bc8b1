"""Signed measures, lotteries and utility vectors on a finite outcome space.

Everything is exact: coordinates are ``fractions.Fraction`` and no operation
ever rounds.  A signed measure is stored sparsely (index -> value, zeros never
stored); a utility is a dense vector.  The total-variation norm of a measure
is the sum of absolute values of its entries.  A lottery is a ``Measure``
whose constructor checks that it is nonnegative of total one; arithmetic on
lotteries returns plain measures.
"""
from __future__ import annotations

import sys
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence, Union


class SpaceMismatchError(ValueError):
    """Two objects built over different outcome spaces were combined."""


class UnknownOutcomeError(ValueError):
    """A label does not belong to the outcome space."""


class NotZeroSumError(ValueError):
    """Operation requires a measure whose entries sum to zero."""


class DegenerateSpaceError(ValueError):
    """Operation requires at least two outcomes."""


class MixtureRangeError(ValueError):
    """Mixture weight outside the closed unit interval."""


class NotLotteryError(ValueError):
    """Measure is not a lottery: negative entry or total != 1."""


RationalLike = Union[int, str, Fraction]
_ZERO = Fraction(0)


def digit_limit_error(digits: int) -> ValueError:
    """The error for an integer of ``digits`` decimal digits past Python's conversion limit.

    Python's own message advises sys.set_int_max_str_digits(), which a
    command-line user cannot call.  The limit is read on this error path
    only: Python 3.10 before 3.10.7 has neither the limit nor the function.
    """
    return ValueError(
        f"an integer of {digits} digits is past Python's limit of {sys.get_int_max_str_digits()} digits"
        " for decimal conversion; the PYTHONINTMAXSTRDIGITS environment variable sets the limit (0 for none)"
    )


def decimal_digits(n: int) -> int:
    """Decimal digits of abs(n), counted without printing it."""
    n = abs(n)
    digits = (n.bit_length() - 1) * 3 // 10 + 1  # a lower bound, as 2**(bits-1) <= n and 10**3 < 2**10
    power = 10**digits
    while power <= n:
        digits, power = digits + 1, power * 10
    return digits


def show_rational(value: Fraction) -> str:
    """str(value) for a message; never raises, naming the digits of a part past Python's digit limit."""
    try:
        return str(value)
    except ValueError:
        return f"a rational of {max(decimal_digits(value.numerator), decimal_digits(value.denominator))} digits"


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or string like ``"3/4"`` to an exact Fraction.

    Floats are rejected: silent binary rounding has no place in an exact
    engine, and so are booleans, ints only by subclassing.  Any string but
    ``-?[0-9]+(/[0-9]+)?`` in ASCII with a nonzero denominator raises
    ValueError, as does a part past Python's digit limit.
    """
    if isinstance(value, (bool, float)):
        raise TypeError(f"refusing {type(value).__name__} {value!r}; pass int, Fraction, or 'num/den' string")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        # a denominator is digits with a nonzero one among them
        if not value.isascii() or not num.removeprefix("-").isdigit() or (slash and not den.lstrip("0").isdigit()):
            raise ValueError(f"expected a rational like '-3/4' or '2', got {value!r}")
        try:
            return Fraction(int(num), int(den) if slash else 1)
        except ValueError:
            raise digit_limit_error(max(len(num.removeprefix("-")), len(den))) from None
    raise TypeError(f"cannot interpret {value!r} as a rational")


class OutcomeSpace:
    """Ordered finite set of distinct outcome labels.

    The declared order is canonical: dense vectors align with it, and ties
    everywhere else (decompositions, serialized output) are broken by it.
    """

    __slots__ = ("outcomes", "_index")

    def __init__(self, outcomes: Iterable[str]):
        labels = tuple(outcomes)
        if not labels:
            raise DegenerateSpaceError("outcome space needs at least one outcome")
        for z in labels:
            if not isinstance(z, str) or not z:
                raise UnknownOutcomeError(f"outcome label must be a nonempty string, got {z!r}")
        if len(set(labels)) != len(labels):
            raise ValueError("outcome labels must be distinct")
        self.outcomes = labels
        self._index = {z: i for i, z in enumerate(labels)}

    def __len__(self) -> int:
        return len(self.outcomes)

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, OutcomeSpace) and self.outcomes == other.outcomes

    def __hash__(self) -> int:
        return hash(self.outcomes)

    def __repr__(self) -> str:
        return f"OutcomeSpace({list(self.outcomes)!r})"

    def position(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownOutcomeError(f"unknown outcome {label!r}") from None


def _same_space(a: OutcomeSpace, b: OutcomeSpace) -> None:
    if not (a is b or a == b):
        raise SpaceMismatchError(f"outcome spaces differ: {a!r} vs {b!r}")


class Measure:
    """Finite signed measure: sparse map index -> nonzero Fraction; arithmetic skips revalidation.

    A sum folds the right operand into a copy of the left's entries and drops only the entries that cancel.
    """

    __slots__ = ("space", "entries")

    def __init__(self, space: OutcomeSpace, entries: Mapping[int, RationalLike]):
        self.space = space
        clean: dict[int, Fraction] = {}
        for i, v in entries.items():
            if not 0 <= i < len(space):
                raise UnknownOutcomeError(f"index {i} out of range for {space!r}")
            f = as_fraction(v)
            if f != 0:
                clean[i] = f
        self.entries = clean

    @classmethod
    def zero(cls, space: OutcomeSpace) -> "Measure":
        return cls(space, {})

    @classmethod
    def from_mapping(cls, space: OutcomeSpace, mapping: Mapping[str, RationalLike]) -> "Measure":
        return cls(space, {space.position(z): v for z, v in mapping.items()})

    @classmethod
    def from_values(cls, space: OutcomeSpace, values: Sequence[RationalLike]) -> "Measure":
        if len(values) != len(space):
            raise SpaceMismatchError(f"expected {len(space)} values, got {len(values)}")
        return cls(space, dict(enumerate(values)))

    def value(self, label: str) -> Fraction:
        return self.entries.get(self.space.position(label), _ZERO)

    def dense(self) -> tuple[Fraction, ...]:
        return tuple(self.entries.get(i, _ZERO) for i in range(len(self.space)))

    def support(self) -> tuple[str, ...]:
        """Labels carrying nonzero mass, in canonical order."""
        return tuple(self.space.outcomes[i] for i in sorted(self.entries))

    def total(self) -> Fraction:
        return sum(self.entries.values(), _ZERO)

    def is_zero(self) -> bool:
        return not self.entries

    def positive_part(self) -> "Measure":
        return _measure(self.space, {i: v for i, v in self.entries.items() if v > 0})

    def negative_part(self) -> "Measure":
        return _measure(self.space, {i: -v for i, v in self.entries.items() if v < 0})

    def scale(self, c: RationalLike) -> "Measure":
        f = as_fraction(c)
        return _measure(self.space, {i: f * v for i, v in self.entries.items()} if f else {})

    def __add__(self, other: "Measure") -> "Measure":
        _same_space(self.space, other.space)
        merged = dict(self.entries)
        for i, v in other.entries.items():
            if i in merged and not (v := merged[i] + v):
                del merged[i]
            else:
                merged[i] = v
        return _measure(self.space, merged)

    def __sub__(self, other: "Measure") -> "Measure":
        return self + -other

    def __neg__(self) -> "Measure":
        return _measure(self.space, {i: -v for i, v in self.entries.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Measure)
            and self.space == other.space
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.space, frozenset(self.entries.items())))

    def __repr__(self) -> str:
        body = {self.space.outcomes[i]: show_rational(v) for i, v in sorted(self.entries.items())}
        return f"{type(self).__name__}({body!r})"


def _measure(space: OutcomeSpace, entries: dict[int, Fraction]) -> Measure:
    """A plain Measure, unvalidated: entries are already nonzero Fractions at valid indices."""
    m = object.__new__(Measure)
    m.space, m.entries = space, entries
    return m


class Lottery(Measure):
    """Probability measure: nonnegative entries of total one."""

    __slots__ = ()

    def __init__(self, space: OutcomeSpace, entries: Mapping[int, RationalLike]):
        super().__init__(space, entries)
        if any(v < 0 for v in self.entries.values()):
            raise NotLotteryError("lottery entries must be nonnegative")
        if self.total() != 1:
            raise NotLotteryError(f"lottery mass must be exactly 1, got {show_rational(self.total())}")

    @classmethod
    def point_mass(cls, space: OutcomeSpace, label: str) -> "Lottery":
        return cls(space, {space.position(label): Fraction(1)})


class Utility:
    """Dense rational payoff vector over the outcome space."""

    __slots__ = ("space", "values")

    def __init__(self, space: OutcomeSpace, values: Sequence[RationalLike]):
        if len(values) != len(space):
            raise SpaceMismatchError(f"expected {len(space)} values, got {len(values)}")
        self.space = space
        self.values = tuple(as_fraction(v) for v in values)

    @classmethod
    def constant(cls, space: OutcomeSpace, level: RationalLike = 1) -> "Utility":
        return cls(space, [as_fraction(level)] * len(space))

    def value(self, label: str) -> Fraction:
        return self.values[self.space.position(label)]

    def scale(self, c: RationalLike) -> "Utility":
        f = as_fraction(c)
        return Utility(self.space, [f * v for v in self.values])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Utility)
            and self.space == other.space
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash((self.space, self.values))

    def __repr__(self) -> str:
        return f"Utility({[show_rational(v) for v in self.values]!r})"


class Decomposition(NamedTuple):
    """Scaled split x = alpha * (plus - minus) into orthogonal lotteries."""

    alpha: Fraction
    plus: Lottery
    minus: Lottery


def expectation(p: Measure, u: Utility) -> Fraction:
    """Exact expected payoff sum_z u(z) p(z).

    >>> space = OutcomeSpace(["a", "b"])
    >>> p = Lottery.from_mapping(space, {"a": "1/2", "b": "1/2"})
    >>> expectation(p, Utility(space, [3, 1]))
    Fraction(2, 1)
    """
    _same_space(p.space, u.space)
    total = _ZERO
    for i, v in p.entries.items():
        total += u.values[i] * v
    return total


def norm(x: Measure) -> Fraction:
    """Total-variation norm: sum of absolute values of the entries."""
    return sum((abs(v) for v in x.entries.values()), _ZERO)


def decompose(x: Measure) -> Decomposition:
    """Split a zero-sum measure as alpha * (p - q) with orthogonal lotteries.

    alpha is the mass of the positive part, p and q are the normalized
    positive and negative parts; they have disjoint supports, and for x != 0
    the triple is unique.  The zero measure maps to alpha = 0 with p and q the
    point masses on the first two outcomes in canonical order.
    """
    if x.total() != 0:
        raise NotZeroSumError(f"entries must sum to 0, got {show_rational(x.total())}")
    if x.is_zero():
        if len(x.space) < 2:
            raise DegenerateSpaceError("zero measure on a single outcome has no split")
        return Decomposition(
            Fraction(0),
            Lottery.point_mass(x.space, x.space.outcomes[0]),
            Lottery.point_mass(x.space, x.space.outcomes[1]),
        )
    plus = x.positive_part()
    minus = x.negative_part()
    alpha = plus.total()
    inv = 1 / alpha
    return Decomposition(
        alpha, Lottery(x.space, plus.scale(inv).entries), Lottery(x.space, minus.scale(inv).entries)
    )


def mix(alpha: RationalLike, p: Lottery, q: Lottery) -> Lottery:
    """Convex combination alpha * p + (1 - alpha) * q, alpha in [0, 1]."""
    a = as_fraction(alpha)
    if not 0 <= a <= 1:
        raise MixtureRangeError(f"mixture weight must lie in [0, 1], got {show_rational(a)}")
    return Lottery(p.space, (p.scale(a) + q.scale(1 - a)).entries)
