#!/usr/bin/env python3
"""Walkthrough: from revealed preferences to an exact utility set.

A small dataset of lottery comparisons is turned into its multi-utility
representation: a finite set of utility functions U such that the dataset
entails p over q exactly when every u in U gives p at least the expected
value of q.  All arithmetic is exact, so every printed number is a true
rational, not an approximation.
"""
from multiutility import (
    Lottery,
    OutcomeSpace,
    PreferenceDataset,
    Utility,
    expectation,
    extract_representation,
    mix,
    query,
)

space = OutcomeSpace(["apple", "banana", "cherry"])
e = {z: Lottery.point_mass(space, z) for z in space.outcomes}

# the decision maker revealed two comparisons: apple over banana and
# banana over cherry
dataset = PreferenceDataset(
    space,
    (
        (e["apple"], e["banana"]),
        (e["banana"], e["cherry"]),
    ),
)

print("dataset statements:")
for p, q in dataset.statements:
    print(f"  {p.support()} over {q.support()}")

rep = extract_representation(dataset, pin="cherry")
# each utility is a primitive integer vector; Utility wraps one for expectation
utilities = [Utility(rep.space, v) for v in rep.utilities]
print(f"\nextracted utilities (pin: {rep.pin} pays zero):")
for u in utilities:
    print(" ", {z: str(u.value(z)) for z in space.outcomes})

# entailment by transitivity: apple over cherry was never stated, yet every
# extracted utility ranks it that way, and the cone certificate names the
# exact conic combination of the two statements that proves it
verdict = query(rep, e["apple"], e["cherry"])
print(f"\nquery apple vs cherry: {verdict.classification}")
witness = [(i, str(w)) for i, w in verdict.forward.combination]
print(f"  conic certificate (generator index, weight): {witness}")

# a mixture query: 50/50 apple-or-cherry against a sure banana is not
# settled by the data in either direction
half_half = mix("1/2", e["apple"], e["cherry"])
verdict = query(rep, half_half, e["banana"])
print(f"query (apple+cherry)/2 vs banana: {verdict.classification}")
for u in utilities:
    lhs = expectation(half_half, u)
    rhs = expectation(e["banana"], u)
    print(f"  utility {tuple(str(v) for v in u.values)}: {lhs} vs {rhs}")
