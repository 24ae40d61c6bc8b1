#!/usr/bin/env python3
"""Walkthrough: outcome rankings and monotone utility extraction.

A partial order on outcomes ("first prize beats second prize") enters the
dataset as point-mass comparisons.  Every utility the engine then extracts
respects the ranking, and the audit is exact.
"""
from multiutility import (
    Lottery,
    MonotoneStructure,
    OutcomeSpace,
    PreferenceDataset,
    Utility,
    check_increasing,
    extract_representation,
    monotone_extend,
    query,
)
from multiutility.preferences import first_violation

space = OutcomeSpace(["gold", "silver", "bronze", "nothing"])
ranking = MonotoneStructure(
    space,
    (
        ("gold", "silver"),
        ("silver", "bronze"),
        ("bronze", "nothing"),
    ),
)

dataset = monotone_extend(PreferenceDataset(space, ()), ranking)
print("statements after extending by the ranking:")
for p, q in dataset.statements:
    print(f"  {p.support()[0]} over {q.support()[0]}")

rep = extract_representation(dataset, pin="nothing")
print(f"\nextracted utilities ({len(rep.utilities)} of them, pin pays zero):")
for u in (Utility(rep.space, v) for v in rep.utilities):
    values = {z: str(u.value(z)) for z in space.outcomes}
    print(f"  {values}  increasing: {check_increasing(u, ranking)}")

# the ranking entails comparisons between lotteries, not just outcomes:
# a 50/50 gold-or-bronze draw beats a sure bronze
p = Lottery.from_mapping(space, {"gold": "1/2", "bronze": "1/2"})
q = Lottery.point_mass(space, "bronze")
print(f"\n50/50 gold-or-bronze vs sure bronze: {query(rep, p, q).classification}")

# a utility that pays more for silver than for gold flunks the audit,
# and the auditor names the violated pair
bad = Utility(space, [1, 2, 0, 0])
print(f"\naudit of a non-monotone utility: increasing = {check_increasing(bad, ranking)}")
print("first violated pair:", first_violation(bad, ranking))
