"""Metamorphic tests: exact consequences of the paper's claims that need no oracle.

Independence: mixing both sides of every statement with a common lottery
scales each difference p - q by the positive weight, so the cone, and with
it the extracted utility set, stays exactly the same.  Relabeling: the
outcome order is a presentation choice, so permuting it leaves every
query's classification the same.  Both run on seeded datasets with 2 to 7
outcomes, through ``mix``, ``scale`` and ``+``.
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
    decompose,
    extract_representation,
    mix,
    query,
)


def random_lottery(rng, space, max_den=6):
    den = rng.randint(1, max_den)
    cuts = sorted(rng.randint(0, den) for _ in range(len(space) - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    return Lottery.from_values(space, [Fraction(k, den) for k in parts])


def seeded_datasets(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        space = OutcomeSpace([f"z{i}" for i in range(rng.randint(2, 7))])
        statements = tuple(
            (random_lottery(rng, space), random_lottery(rng, space)) for _ in range(rng.randint(0, 7))
        )
        yield rng, PreferenceDataset(space, statements)


def query_pairs(rng, dataset, count):
    """Half the pairs entailed by the statements (when they entail any), half random."""
    space = dataset.space
    for k in range(count):
        total = Measure.zero(space)
        for p, q in dataset.statements:
            total = total + (p - q).scale(Fraction(rng.randint(0, 3), rng.randint(1, 3)))
        if k % 2 or total.is_zero():
            yield random_lottery(rng, space), random_lottery(rng, space)
        else:
            split = decompose(total)
            yield split.plus, split.minus


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


def test_permuting_the_outcomes_leaves_every_classification_unchanged():
    def relabel(m, space):
        return Lottery.from_mapping(space, {z: m.value(z) for z in m.support()})

    seen = set()
    for rng, dataset in seeded_datasets(73, 100):
        labels = list(dataset.space.outcomes)
        rng.shuffle(labels)
        permuted = OutcomeSpace(labels)
        moved = PreferenceDataset(
            permuted, tuple((relabel(p, permuted), relabel(q, permuted)) for p, q in dataset.statements)
        )
        rep = extract_representation(dataset, dataset.space.outcomes[0])
        rep_moved = extract_representation(moved, rng.choice(labels))
        for p, q in query_pairs(rng, dataset, 8):
            expected = query(rep, p, q).classification
            assert query(rep_moved, relabel(p, permuted), relabel(q, permuted)).classification == expected
            seen.add(expected)
    assert seen == {ENTAILED_ONLY, REVERSE_ONLY, INDIFFERENT, INCOMPARABLE}
