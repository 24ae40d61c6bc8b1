import random
import sys
import time
from fractions import Fraction

import pytest

from multiutility import (
    DegenerateSpaceError,
    Lottery,
    Measure,
    MixtureRangeError,
    NotLotteryError,
    NotZeroSumError,
    OutcomeSpace,
    SpaceMismatchError,
    UnknownOutcomeError,
    Utility,
    decompose,
    expectation,
    mix,
    norm,
)
from multiutility.measures import as_fraction

from oracles import random_lottery

AB = OutcomeSpace(["a", "b"])
ABC = OutcomeSpace(["a", "b", "c"])


def lottery(space, *values):
    return Lottery.from_values(space, values)


def test_space_basics():
    assert ABC.outcomes == ("a", "b", "c")
    assert ABC.position("c") == 2
    assert len(ABC) == 3
    with pytest.raises(UnknownOutcomeError):
        ABC.position("z")
    with pytest.raises(ValueError):
        OutcomeSpace(["a", "a"])
    with pytest.raises(DegenerateSpaceError):
        OutcomeSpace([])


def test_measure_rejects_floats():
    with pytest.raises(TypeError):
        Measure.from_values(AB, [0.5, 0.5])
    # exact inputs in every accepted spelling
    m = Measure.from_values(AB, ["1/2", Fraction(1, 2)])
    assert m.dense() == (Fraction(1, 2), Fraction(1, 2))


def test_measure_rejects_booleans():
    # bool is a subclass of int, yet no exact input spells a rational that way
    for build in (
        lambda: as_fraction(True),
        lambda: Utility(AB, [True, False]),
        lambda: Measure(AB, {0: True}),
        lambda: mix(True, lottery(AB, 1, 0), lottery(AB, 0, 1)),
    ):
        with pytest.raises(TypeError, match="refusing bool"):
            build()
    assert as_fraction(1) == 1 and Utility(AB, [1, 0]).values == (1, 0)


# strings Fraction(str) accepts, or rejects only after the work: "1e10000000" took seconds there
REJECTED_RATIONALS = {
    "decimal": "0.5",
    "exponent": "1e3",
    "underscore": "1_000",
    "spaces": " 1/2 ",
    "arabic-indic": "\u0661/\u0662",
    "zero-denominator": "1/0",
    "huge-exponent": "1e10000000",
    "past-digit-limit": "7" * 5000,
}


def test_as_fraction_takes_only_the_strict_grammar():
    accepted = ("-3/4", "2", "0", "-0", "007/014")
    assert [as_fraction(text) for text in accepted] == [Fraction(-3, 4), 2, 0, 0, Fraction(1, 2)]
    for text in REJECTED_RATIONALS.values():
        start = time.perf_counter()
        with pytest.raises(ValueError):
            as_fraction(text)
        assert time.perf_counter() - start < 1
    # library constructors share the grammar
    with pytest.raises(ValueError):
        Measure.from_values(AB, ["0.5", "1/2"])


def test_a_part_past_the_digit_limit_names_its_digits_and_the_variable():
    # Python's own message advises sys.set_int_max_str_digits(), which a CLI user cannot call
    for text in (REJECTED_RATIONALS["past-digit-limit"], "-" + "7" * 5000, "1/" + "7" * 5000):
        with pytest.raises(ValueError) as exc:
            as_fraction(text)
        message = str(exc.value)
        assert "5000 digits" in message and f"limit of {sys.get_int_max_str_digits()} digits" in message
        assert "PYTHONINTMAXSTRDIGITS" in message and "set_int_max_str_digits" not in message


def test_measure_arithmetic():
    x = Measure.from_values(ABC, [1, -2, 1])
    y = Measure.from_values(ABC, [0, 2, -2])
    assert (x + y).dense() == (1, 0, -1)
    assert (x - y).dense() == (1, -4, 3)
    assert (-x).dense() == (-1, 2, -1)
    assert x.scale("1/2").dense() == (Fraction(1, 2), -1, Fraction(1, 2))
    assert x.total() == 0
    assert x.support() == ("a", "b", "c")
    assert Measure.zero(ABC).is_zero()


def test_measure_parts():
    x = Measure.from_values(ABC, [2, -3, "1/2"])
    assert x.positive_part().dense() == (2, 0, Fraction(1, 2))
    assert x.negative_part().dense() == (0, 3, 0)


def test_space_mismatch():
    with pytest.raises(SpaceMismatchError):
        Measure.from_values(AB, [1, 0]) + Measure.from_values(ABC, [1, 0, 0])
    with pytest.raises(SpaceMismatchError):
        Measure.from_values(ABC, [1, 0])
    with pytest.raises(UnknownOutcomeError):
        Measure.from_mapping(AB, {"z": 1})


def test_lottery_validation():
    # every constructor runs both lottery checks
    for values, message in [((2, -1), "nonnegative"), (("1/2", "1/4"), "mass must be exactly 1, got 3/4")]:
        with pytest.raises(NotLotteryError, match=message):
            Lottery(AB, dict(enumerate(values)))
        with pytest.raises(NotLotteryError, match=message):
            Lottery.from_mapping(AB, dict(zip(AB.outcomes, values)))
        with pytest.raises(NotLotteryError, match=message):
            lottery(AB, *values)
    with pytest.raises(NotLotteryError, match="got 0"):
        Lottery.zero(AB)
    # no label makes a point mass fail the checks, but it is built through them
    assert type(Lottery.point_mass(AB, "b")) is Lottery
    assert Lottery.point_mass(AB, "b").dense() == (0, 1)


def test_lottery_arithmetic_returns_plain_measures():
    assert issubclass(Lottery, Measure)
    p, q = lottery(ABC, "1/2", "1/2", 0), lottery(ABC, 0, "1/4", "3/4")
    for result, dense in [
        (p - q, (Fraction(1, 2), Fraction(1, 4), Fraction(-3, 4))),
        (p + q, (Fraction(1, 2), Fraction(3, 4), Fraction(3, 4))),
        (p.scale(2), (1, 1, 0)),
        (p.scale(1), (Fraction(1, 2), Fraction(1, 2), 0)),
        (-p, (Fraction(-1, 2), Fraction(-1, 2), 0)),
    ]:
        assert type(result) is Measure
        assert result.dense() == dense


def test_lottery_equals_the_measure_with_its_entries():
    p = lottery(ABC, "1/2", 0, "1/2")
    m = Measure.from_values(ABC, ["1/2", 0, "1/2"])
    assert repr(p) == "Lottery({'a': '1/2', 'c': '1/2'})"
    assert repr(m) == "Measure({'a': '1/2', 'c': '1/2'})"
    assert p == m and m == p and hash(p) == hash(m)
    assert len({p, m}) == 1
    assert expectation(p, Utility(ABC, [4, 0, 2])) == expectation(m, Utility(ABC, [4, 0, 2])) == 3
    assert norm(p) == norm(m) == 1


def test_measure_repr_names_a_value_past_the_digit_limit_by_its_digits():
    # str() of such a value raises, with advice to call sys.set_int_max_str_digits()
    tiny = Fraction(1, 10**5000)
    assert repr(Measure.from_values(AB, [tiny, 0])) == "Measure({'a': 'a rational of 5001 digits'})"


def test_utility_repr_names_a_value_past_the_digit_limit_by_its_digits():
    tiny = Fraction(1, 10**5000)
    assert repr(Utility(AB, [0, tiny])) == "Utility(['0', 'a rational of 5001 digits'])"


def test_expectation_point_mass():
    # a point mass reads off one coordinate
    assert expectation(Lottery.point_mass(AB, "a"), Utility(AB, [3, 7])) == 3


def test_expectation_constant():
    assert expectation(lottery(AB, "1/2", "1/2"), Utility(AB, [1, 1])) == 1


def test_expectation_weighted():
    assert expectation(lottery(AB, "1/3", "2/3"), Utility(AB, [6, 3])) == 4


def test_expectation_bilinear():
    rng = random.Random(7)
    u = Utility(ABC, [5, -1, 2])
    v = Utility(ABC, [0, 3, -4])
    for _ in range(25):
        p = random_lottery(rng, ABC)
        q = random_lottery(rng, ABC)
        alpha = Fraction(rng.randint(0, 6), 6)
        mixed = mix(alpha, p, q)
        assert expectation(mixed, u) == alpha * expectation(p, u) + (1 - alpha) * expectation(q, u)
        w = Utility(ABC, [a + b for a, b in zip(u.values, v.values)])
        assert expectation(p, w) == expectation(p, u) + expectation(p, v)


def test_norm_values():
    assert norm(Measure.zero(AB)) == 0
    assert norm(Measure.from_values(AB, ["1/2", "-1/2"])) == 1
    assert norm(Measure.from_values(ABC, [2, -3, "1/2"])) == Fraction(11, 2)


def test_norm_scaling_and_triangle():
    rng = random.Random(11)
    for _ in range(25):
        x = random_signed(rng, ABC)
        y = random_signed(rng, ABC)
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        assert norm(x.scale(c)) == abs(c) * norm(x)
        assert norm(x + y) <= norm(x) + norm(y)


def test_decompose_two_outcomes():
    d = decompose(Measure.from_values(AB, ["1/2", "-1/2"]))
    assert d.alpha == Fraction(1, 2)
    assert d.plus.dense() == (1, 0)
    assert d.minus.dense() == (0, 1)


def test_decompose_overlapping_supports():
    p = lottery(ABC, "1/2", "1/2", 0)
    q = lottery(ABC, 0, "1/2", "1/2")
    d = decompose(p - q)
    assert d.alpha == Fraction(1, 2)
    assert d.plus == Lottery.point_mass(ABC, "a")
    assert d.minus == Lottery.point_mass(ABC, "c")


def test_decompose_zero_convention():
    d = decompose(Measure.zero(AB))
    assert d.alpha == 0
    assert d.plus == Lottery.point_mass(AB, "a")
    assert d.minus == Lottery.point_mass(AB, "b")


def test_decompose_errors():
    with pytest.raises(NotZeroSumError):
        decompose(Measure.from_values(AB, [1, 1]))
    with pytest.raises(DegenerateSpaceError):
        decompose(Measure.zero(OutcomeSpace(["only"])))


def test_decompose_round_trip():
    rng = random.Random(13)
    for _ in range(50):
        x = random_signed(rng, ABC)
        x = x - Measure.from_values(ABC, [x.total(), 0, 0])  # force zero sum
        d = decompose(x)
        assert (d.plus - d.minus).scale(d.alpha) == x
        assert not set(d.plus.support()) & set(d.minus.support())


def test_mix():
    p = Lottery.point_mass(AB, "a")
    q = Lottery.point_mass(AB, "b")
    assert mix(1, p, q) == p
    assert mix(0, p, q) == q
    assert mix("1/2", p, q).dense() == (Fraction(1, 2), Fraction(1, 2))
    assert mix("1/3", lottery(AB, 1, 0), lottery(AB, 0, 1)).dense() == (Fraction(1, 3), Fraction(2, 3))
    with pytest.raises(MixtureRangeError):
        mix(2, p, q)
    with pytest.raises(MixtureRangeError):
        mix("-1/2", p, q)
    # a weight past Python's digit limit is named by its digits, not printed
    with pytest.raises(MixtureRangeError, match=r"got a rational of 5001 digits$"):
        mix(Fraction(10**5000 + 1, 10**5000), p, q)


def random_signed(rng, space):
    return Measure.from_values(
        space, [Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in space.outcomes]
    )


def assert_built_like_the_validating_constructor(m, space):
    # arithmetic skips revalidation, so its results must already be what Measure(...) would build
    rebuilt = Measure(space, m.entries)
    assert type(m) is Measure
    assert m == rebuilt and hash(m) == hash(rebuilt) and repr(m) == repr(rebuilt)
    assert all(type(v) is Fraction and v != 0 and 0 <= i < len(space) for i, v in m.entries.items())


def test_arithmetic_results_equal_validated_measures():
    rng = random.Random(19)
    space = OutcomeSpace(["a", "b", "c", "d"])
    for _ in range(200):
        x = random_signed(rng, space) if rng.random() < 0.7 else random_lottery(rng, space)
        y = random_signed(rng, space) if rng.random() < 0.7 else random_lottery(rng, space)
        # a copy of x with some entries negated makes those entries cancel in x + z
        z = Measure(space, {i: -v if rng.random() < 0.5 else v for i, v in x.entries.items()})
        c = rng.choice([0, -1, 1, Fraction(rng.randint(-5, 5), rng.randint(1, 4)), "2/3"])
        results = [x + y, x - y, x + z, x - x, x + (-x), -x, x.scale(c), x.scale(0), x.scale(-1)]
        results += [x.positive_part(), x.negative_part()]
        for m in results:
            assert_built_like_the_validating_constructor(m, space)
        assert (x - x).is_zero() and x.scale(0).is_zero()
        assert (x + z).dense() == tuple(a + b for a, b in zip(x.dense(), z.dense()))
        assert x.scale(c).dense() == tuple(Fraction(c) * a for a in x.dense())


def test_lottery_arithmetic_is_built_directly_and_still_checked():
    p = lottery(ABC, "1/2", "1/2", 0)
    q = lottery(ABC, 0, "1/2", "1/2")
    for m in [p - q, p + q, p.scale("1/3"), -p, p - p]:
        assert_built_like_the_validating_constructor(m, ABC)
    assert (p - q).entries == {0: Fraction(1, 2), 2: Fraction(-1, 2)}
    with pytest.raises(SpaceMismatchError):
        p - lottery(AB, 1, 0)
    with pytest.raises(SpaceMismatchError):
        Measure.zero(AB) + p
    with pytest.raises(TypeError):
        p.scale(0.5)
    with pytest.raises(TypeError):
        Measure.from_values(ABC, [1, -1, 0]).scale(1.0)
