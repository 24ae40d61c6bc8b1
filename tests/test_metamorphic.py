"""Metamorphic tests: exact consequences of the paper's claims that need no oracle.

Each relation runs on seeded datasets with 2 to 7 outcomes and on the
moderate datasets at (10, 14), (12, 24) and (14, 20).

Relabeling: the outcome order is a presentation choice, so permuting it
leaves every query's classification the same.  Embedding: Z is countable
and lotteries have finite support, so adding outcomes that no lottery uses
leaves every ``query`` and ``utilities_agree`` classification the same.
Independence: mixing both sides of a statement with a common lottery
scales its difference p - q by the positive weight, so the cone, and with
it the extracted utility set, stays exactly the same; mixing both sides of
a queried pair leaves its forward and backward verdicts the same.
Uniqueness: the utility set is unique up to positive affine maps, so
mapping each utility to a*u + b with a > 0 keeps ``check_uniqueness`` true.
"""
import random
from fractions import Fraction

from multiutility import (
    ENTAILED_ONLY,
    INCOMPARABLE,
    INDIFFERENT,
    REVERSE_ONLY,
    Lottery,
    Measure,
    OutcomeSpace,
    PreferenceDataset,
    Utility,
    check_uniqueness,
    decompose,
    extract_representation,
    mix,
    query,
)
from multiutility.cones import IN
from multiutility.preferences import utilities_agree

from oracles import random_lottery

MODERATE = ((10, 14), (12, 24), (14, 20))


def moderate_dataset(n, m):
    """m random statements on n outcomes, seeded n*100 + m."""
    rng = random.Random(n * 100 + m)
    space = OutcomeSpace([f"z{i}" for i in range(n)])
    return PreferenceDataset(
        space, tuple((random_lottery(rng, space), random_lottery(rng, space)) for _ in range(m))
    )


def seeded_datasets(seed, count):
    """count random datasets on 2 to 7 outcomes, then the moderate ones."""
    rng = random.Random(seed)
    for _ in range(count):
        space = OutcomeSpace([f"z{i}" for i in range(rng.randint(2, 7))])
        statements = tuple(
            (random_lottery(rng, space), random_lottery(rng, space)) for _ in range(rng.randint(0, 7))
        )
        yield rng, PreferenceDataset(space, statements)
    for n, m in MODERATE:
        yield rng, moderate_dataset(n, m)


def query_pairs(rng, dataset, count):
    """Half the pairs entailed by the statements (when they entail any), half
    random, each with whether it was built inside the data cone."""
    space = dataset.space
    for k in range(count):
        total = Measure.zero(space)
        for p, q in dataset.statements:
            total = total + (p - q).scale(Fraction(rng.randint(0, 3), rng.randint(1, 3)))
        if k % 2 or total.is_zero():
            yield random_lottery(rng, space), random_lottery(rng, space), False
        else:
            split = decompose(total)
            yield split.plus, split.minus, True


def mixing_mismatches(rng, dataset, count):
    """Failures of independence on count query pairs, as messages.

    Each pair (p, q) is mixed on both sides with a fresh lottery r at a
    weight alpha strictly between 0 and 1.  The mixed pair must get the
    same forward and backward verdicts as (p, q), and a pair built inside
    the data cone must be IN forward.
    """
    space = dataset.space
    rep = extract_representation(dataset, space.outcomes[0])
    mismatches = []
    for p, q, entailed in query_pairs(rng, dataset, count):
        den = rng.randint(2, 9)
        alpha = Fraction(rng.randint(1, den - 1), den)
        r = random_lottery(rng, space)
        plain = query(rep, p, q)
        mixed = query(rep, mix(alpha, p, r), mix(alpha, q, r))
        if entailed and plain.forward.verdict != IN:
            mismatches.append(f"entailed pair {p!r} over {q!r} is {plain.forward.verdict}")
        if (mixed.forward.verdict, mixed.backward.verdict) != (plain.forward.verdict, plain.backward.verdict):
            mismatches.append(f"mixing {p!r} and {q!r} with {r!r} at {alpha} changed the verdicts")
    return mismatches


def carry(m, space):
    """The lottery m on another space that holds its support."""
    return Lottery.from_mapping(space, {z: m.value(z) for z in m.support()})


def carry_dataset(dataset, space):
    return PreferenceDataset(space, tuple((carry(p, space), carry(q, space)) for p, q in dataset.statements))


def test_mixing_every_statement_leaves_the_utilities_identical():
    for rng, dataset in seeded_datasets(71, 150):
        space = dataset.space
        mixed = []
        for p, q in dataset.statements:
            alpha = Fraction(rng.randint(1, 6), 6)
            r = random_lottery(rng, space)
            mixed.append((mix(alpha, p, r), mix(alpha, q, r)))
        pin = rng.choice(space.outcomes)
        before = extract_representation(dataset, pin)
        after = extract_representation(PreferenceDataset(space, tuple(mixed)), pin)
        assert after.utilities == before.utilities, dataset
        assert after.cone == before.cone


def test_mixing_both_sides_of_a_pair_leaves_both_verdicts_unchanged():
    for rng, dataset in seeded_datasets(79, 60):
        assert mixing_mismatches(rng, dataset, 8) == []


def test_permuting_the_outcomes_leaves_every_classification_unchanged():
    seen = set()
    for rng, dataset in seeded_datasets(73, 100):
        labels = list(dataset.space.outcomes)
        rng.shuffle(labels)
        permuted = OutcomeSpace(labels)
        rep = extract_representation(dataset, dataset.space.outcomes[0])
        rep_moved = extract_representation(carry_dataset(dataset, permuted), rng.choice(labels))
        for p, q, _ in query_pairs(rng, dataset, 8):
            expected = query(rep, p, q).classification
            assert query(rep_moved, carry(p, permuted), carry(q, permuted)).classification == expected
            seen.add(expected)
    assert seen == {ENTAILED_ONLY, REVERSE_ONLY, INDIFFERENT, INCOMPARABLE}


def test_adding_unused_outcomes_leaves_every_classification_unchanged():
    for rng, dataset in seeded_datasets(75, 60):
        labels = list(dataset.space.outcomes)
        for extra in ("y0", "y1"):
            labels.insert(rng.randint(0, len(labels)), extra)
        wider = OutcomeSpace(labels)
        rep = extract_representation(dataset, dataset.space.outcomes[0])
        rep_wider = extract_representation(carry_dataset(dataset, wider), rng.choice(labels))
        for p, q, _ in query_pairs(rng, dataset, 8):
            p_wide, q_wide = carry(p, wider), carry(q, wider)
            assert query(rep_wider, p_wide, q_wide).classification == query(rep, p, q).classification
            assert utilities_agree(rep_wider, p_wide, q_wide) == utilities_agree(rep, p, q)


def test_positive_affine_maps_keep_the_utility_set_unique():
    for rng, dataset in seeded_datasets(77, 100):
        rep = extract_representation(dataset, rng.choice(dataset.space.outcomes))
        mapped = []
        for u in rep.utilities:
            a = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            mapped.append(Utility(dataset.space, [a * x + b for x in u]))
        assert check_uniqueness([Utility(dataset.space, u) for u in rep.utilities], mapped), dataset
