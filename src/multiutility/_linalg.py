"""Exact vector helpers over the rationals.

Internal plumbing shared by the cone engine and the LP solver.  Vectors are
plain tuples of ``int`` or ``Fraction``; nothing here ever touches a float.
``clear_denominators`` and ``primitive`` are the way from rationals to
integers: a positive common scale keeps every sign the engine decides on.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import NamedTuple, Sequence

Vector = tuple[Fraction, ...]
IntVector = tuple[int, ...]


class Cleared(NamedTuple):
    """A rational vector as integer numerators over one positive denominator."""

    nums: IntVector
    den: int

    def __neg__(self) -> "Cleared":
        return Cleared(vec_neg(self.nums), self.den)


def vec_neg(a: Sequence) -> Vector:
    return tuple(-x for x in a)


def dot(a: Sequence, b: Sequence):
    """Exact inner product of two equal-length vectors."""
    if len(a) != len(b):
        raise ValueError(f"cannot pair vectors of lengths {len(a)} and {len(b)}")
    return sum(map(mul, a, b))


def is_zero(a: Sequence) -> bool:
    return all(x == 0 for x in a)


def clear_denominators(a: Sequence) -> Cleared:
    """Integer numerators of a vector of ints or Fractions over the lcm of its denominators."""
    den = lcm(*(x.denominator for x in a))
    return Cleared(tuple([x.numerator * (den // x.denominator) for x in a]), den)


def primitive(a: Sequence) -> IntVector:
    """Scale a vector of ints or Fractions to coprime integers, keeping orientation.

    Clears denominators, divides out the gcd of the entries, and never flips
    sign: rays are directed.  The zero vector maps to itself.

    >>> primitive((Fraction(1, 2), Fraction(0), Fraction(-3, 4)))
    (2, 0, -3)
    """
    ints, _ = clear_denominators(a)
    g = gcd(*ints) or 1
    return tuple(v // g for v in ints)
