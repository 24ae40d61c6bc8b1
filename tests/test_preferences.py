import random
from fractions import Fraction

import pytest

from multiutility import (
    ENTAILED_ONLY,
    INCOMPARABLE,
    INDIFFERENT,
    REVERSE_ONLY,
    Lottery,
    MonotoneStructure,
    OutcomeSpace,
    PreferenceDataset,
    UnknownOutcomeError,
    Utility,
    canonical_rep,
    check_increasing,
    check_uniqueness,
    cone_equal,
    cone_from_generators,
    contains,
    expectation,
    extract_representation,
    mix,
    monotone_extend,
    query,
)
from multiutility._linalg import primitive
from multiutility.cones import IN, OUT
from multiutility.preferences import Representation, first_violation, utilities_agree

from oracles import random_lottery
from test_metamorphic import mixing_mismatches

AB = OutcomeSpace(["a", "b"])
ABC = OutcomeSpace(["a", "b", "c"])


def dataset(space, *pairs):
    return PreferenceDataset(space, tuple(pairs))


def point(space, label):
    return Lottery.point_mass(space, label)


def chain_dataset():
    return dataset(
        ABC,
        (point(ABC, "a"), point(ABC, "b")),
        (point(ABC, "b"), point(ABC, "c")),
    )


def data_cone(d):
    """The cone the statement differences span, as the representation carries it."""
    return extract_representation(d, d.space.outcomes[0]).cone


def test_build_cone_empty():
    c = data_cone(dataset(AB))
    assert c.is_zero_cone()


def test_build_cone_single_statement():
    c = data_cone(dataset(AB, (point(AB, "a"), point(AB, "b"))))
    assert cone_equal(c, cone_from_generators([(1, -1)]))


def test_build_cone_chain_entails_transitive_closure():
    c = data_cone(chain_dataset())
    assert cone_equal(c, cone_from_generators([(1, -1, 0), (0, 1, -1)]))
    assert contains(c, (1, 0, -1))


def test_extract_single_statement():
    rep = extract_representation(dataset(AB, (point(AB, "a"), point(AB, "b"))), pin="b")
    assert rep.utilities == ((1, 0),)
    assert rep.pin == "b"


def test_extract_chain():
    rep = extract_representation(chain_dataset(), pin="c")
    assert rep.utilities == ((1, 0, 0), (1, 1, 0))


def test_extract_empty_dataset_spans_both_directions():
    rep = extract_representation(dataset(AB), pin="b")
    assert rep.utilities == ((-1, 0), (1, 0))


def test_extract_total_relation_falls_back_to_zero_utility():
    d = dataset(
        AB,
        (point(AB, "a"), point(AB, "b")),
        (point(AB, "b"), point(AB, "a")),
    )
    rep = extract_representation(d, pin="a")
    assert rep.utilities == ((0, 0),)
    v = query(rep, point(AB, "a"), point(AB, "b"))
    assert v.classification == INDIFFERENT


def test_extract_pin_zeroes_every_utility():
    rep = extract_representation(chain_dataset(), pin="b")
    assert all(u[ABC.position("b")] == 0 for u in rep.utilities)


def test_soundness_every_statement_entailed():
    d = chain_dataset()
    rep = extract_representation(d, pin="a")
    for p, q in d.statements:
        v = query(rep, p, q)
        assert v.classification in (ENTAILED_ONLY, INDIFFERENT)
        assert v.forward.verdict == IN


def test_query_reflexive():
    rep = extract_representation(chain_dataset(), pin="a")
    p = mix("1/3", point(ABC, "a"), point(ABC, "c"))
    assert query(rep, p, p).classification == INDIFFERENT


def test_query_entailed_with_certificate():
    d = dataset(AB, (point(AB, "a"), point(AB, "b")))
    rep = extract_representation(d, pin="b")
    p = mix("1/2", point(AB, "a"), point(AB, "b"))
    v = query(rep, p, point(AB, "b"))
    assert v.classification == ENTAILED_ONLY
    assert dict(v.forward.combination) == {0: Fraction(1, 2)}
    assert v.backward.verdict == OUT


def test_query_reverse_only():
    d = dataset(AB, (point(AB, "a"), point(AB, "b")))
    rep = extract_representation(d, pin="b")
    v = query(rep, point(AB, "b"), point(AB, "a"))
    assert v.classification == REVERSE_ONLY


def test_query_incomparable():
    d = dataset(ABC, (point(ABC, "a"), point(ABC, "b")))
    rep = extract_representation(d, pin="c")
    v = query(rep, point(ABC, "a"), point(ABC, "c"))
    assert v.classification == INCOMPARABLE


def test_query_transitivity():
    rep = extract_representation(chain_dataset(), pin="c")
    v = query(rep, point(ABC, "a"), point(ABC, "c"))
    assert v.classification == ENTAILED_ONLY
    assert dict(v.forward.combination) == {0: Fraction(1), 1: Fraction(1)}


def test_check_uniqueness():
    assert check_uniqueness([Utility(AB, [1, 0])], [Utility(AB, [2, 0])])
    assert check_uniqueness([Utility(AB, [1, 0])], [Utility(AB, [1, 0]), Utility(AB, [3, 2])])
    assert not check_uniqueness([Utility(AB, [1, 0])], [Utility(AB, [0, 1])])


def test_uniqueness_across_pins():
    d = chain_dataset()
    reps = [extract_representation(d, pin=z) for z in ABC.outcomes]
    for other in reps[1:]:
        assert check_uniqueness(*([Utility(ABC, u) for u in r.utilities] for r in (reps[0], other)))


def test_monotone_extend():
    m = MonotoneStructure(ABC, (("a", "b"),))
    d = monotone_extend(dataset(ABC), m)
    assert d.statements == ((point(ABC, "a"), point(ABC, "b")),)
    assert monotone_extend(dataset(ABC), MonotoneStructure(ABC, ())) == dataset(ABC)
    with pytest.raises(UnknownOutcomeError):
        MonotoneStructure(ABC, (("a", "z"),))


def test_monotone_chain_entails():
    m = MonotoneStructure(ABC, (("a", "b"), ("b", "c")))
    d = monotone_extend(dataset(ABC), m)
    c = data_cone(d)
    assert contains(c, (1, 0, -1))


def test_check_increasing():
    m = MonotoneStructure(ABC, (("a", "b"), ("b", "c")))
    assert check_increasing(Utility(ABC, [2, 1, 0]), m)
    assert check_increasing(Utility(ABC, [1, 1, 1]), m)
    assert not check_increasing(Utility(ABC, [0, 1, 0]), m)
    assert first_violation(Utility(ABC, [0, 1, 0]), m) == ("a", "b")
    assert first_violation(Utility(ABC, [2, 1, 0]), m) is None


def test_extracted_utilities_increase_after_monotone_extend():
    rng = random.Random(31)
    for _ in range(10):
        m = MonotoneStructure(ABC, (("a", "b"), ("b", "c")))
        d = monotone_extend(random_dataset(rng, ABC, 2), m)
        rep = extract_representation(d, pin="a")
        assert all(check_increasing(Utility(ABC, u), m) for u in rep.utilities)


def test_independence_closure():
    assert mixing_mismatches(random.Random(1), dataset(AB), 50) == []
    assert mixing_mismatches(random.Random(2), chain_dataset(), 50) == []


def test_independence_literal_scaling():
    # membership of alpha*(p - q) matches membership of (p - q)
    # a hull without rows, so contains runs the LP
    c = cone_from_generators([(p - q).dense() for p, q in chain_dataset().statements], dim=3)
    p, q = point(ABC, "a"), point(ABC, "c")
    diff = (p - q).dense()
    for alpha in (Fraction(1, 3), Fraction(2), Fraction(7, 2)):
        scaled = tuple(alpha * v for v in diff)
        assert contains(c, scaled) == contains(c, diff)


def test_utilities_agree_with_query():
    rng = random.Random(37)
    for _ in range(15):
        d = random_dataset(rng, ABC, 3)
        rep = extract_representation(d, pin="b")
        for _ in range(10):
            p = random_lottery(rng, ABC)
            q = random_lottery(rng, ABC)
            assert query(rep, p, q).classification == utilities_agree(rep, p, q)


def test_utilities_agree_on_fraction_utilities_built_by_hand():
    # Fraction payoffs and a positively scaled copy, not pinned; the cones are never read
    classes = {
        (True, True): INDIFFERENT,
        (True, False): ENTAILED_ONLY,
        (False, True): REVERSE_ONLY,
        (False, False): INCOMPARABLE,
    }
    rng = random.Random(41)
    seen = set()
    for _ in range(40):
        space = OutcomeSpace([f"z{i}" for i in range(rng.randint(2, 5))])
        us = [
            Utility(space, [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in space.outcomes])
            for _ in range(rng.randint(1, 3))
        ]
        us.append(us[0].scale(Fraction(rng.randint(1, 9), rng.randint(1, 9))))
        zero = cone_from_generators([], dim=len(space))
        # each cleared by hand to the integer vector a Representation holds
        rep = Representation(space, tuple(primitive(u.values) for u in us), zero, zero, space.outcomes[0])
        for _ in range(20):
            p = random_lottery(rng, space)
            q = p if rng.random() < 0.2 else random_lottery(rng, space)
            forward = all(expectation(p, u) >= expectation(q, u) for u in us)
            backward = all(expectation(q, u) >= expectation(p, u) for u in us)
            assert utilities_agree(rep, p, q) == classes[forward, backward], (us, p, q)
            seen.add(classes[forward, backward])
    assert seen == set(classes.values())


def test_representation_expectation_matches_statements():
    d = chain_dataset()
    rep = extract_representation(d, pin="c")
    for p, q in d.statements:
        for u in rep.utilities:
            assert expectation(p, Utility(ABC, u)) >= expectation(q, Utility(ABC, u))


def random_dataset(rng, space, max_statements):
    pairs = tuple(
        (random_lottery(rng, space), random_lottery(rng, space))
        for _ in range(rng.randint(0, max_statements))
    )
    return PreferenceDataset(space, pairs)


def test_representation_cone_rows_are_the_dual_generators():
    rep = extract_representation(chain_dataset(), pin="c")
    rows = rep.cone._inequalities
    assert rows == rep.dual.directed_generators
    v = query(rep, point(ABC, "c"), point(ABC, "a"))
    x = (point(ABC, "c") - point(ABC, "a")).dense()
    assert v.forward.separator == next(h for h in rows if sum(a * b for a, b in zip(h, x)) < 0)


def test_null_and_repeated_statements_leave_the_representation_unchanged():
    rng = random.Random(1313)
    for _ in range(30):
        space = OutcomeSpace([f"z{i}" for i in range(rng.randint(2, 6))])
        d = random_dataset(rng, space, 6)
        padded = list(d.statements)
        p = random_lottery(rng, space)
        padded.insert(rng.randint(0, len(padded)), (p, p))
        k = rng.randrange(len(padded))
        padded.insert(rng.randint(k + 1, len(padded)), padded[k])
        pin = rng.choice(space.outcomes)
        rep = extract_representation(d, pin)
        again = extract_representation(PreferenceDataset(space, tuple(padded)), pin)
        assert again == rep
        assert again.cone._inequalities == rep.cone._inequalities
        assert again.dual._inequalities == rep.dual._inequalities


def _same_hull(rng, base, n):
    """Another presentation of canonical_rep(base): scaled, shifted, conic combinations."""
    out = []
    for u in base:
        scale = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        shift = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        out.append([scale * v + shift for v in u])
    for _ in range(rng.randint(0, 3)):
        lam = [Fraction(rng.randint(0, 3), rng.randint(1, 2)) for _ in base]
        shift = rng.randint(-3, 3)
        out.append([sum(l * u[i] for l, u in zip(lam, base)) + shift for i in range(n)])
    rng.shuffle(out)
    return out


def test_uniqueness_agrees_with_lp_equality_of_canonical_hulls():
    rng = random.Random(2004)
    seen = {True: 0, False: 0}
    for trial in range(48):
        space = OutcomeSpace([f"z{i}" for i in range(rng.randint(2, 6))])
        n = len(space)
        base = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 4))]
        if trial % 2:
            other = _same_hull(rng, base, n)
        else:
            other = [list(u) for u in base]
            extra = [rng.randint(-3, 3) for _ in range(n)]
            if rng.randint(0, 1) and len(other) > 1:
                other[rng.randrange(len(other))] = extra
            else:
                other.append(extra)
        first = [Utility(space, u) for u in base]
        second = [Utility(space, u) for u in other]
        expected = cone_equal(canonical_rep(first), canonical_rep(second))
        assert check_uniqueness(first, second) == expected
        if trial % 2:
            assert expected
        seen[expected] += 1
    assert seen[False] >= 12
