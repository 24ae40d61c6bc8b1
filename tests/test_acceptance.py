"""Acceptance gate: nine exact, seeded, zero-tolerance criteria.

Every check is an algebraic identity over rational arithmetic, so there are
no tolerances anywhere: a single deviating case fails its criterion.  Each
criterion prints one PASS/FAIL line; run with `pytest -s` to see the lines
as they happen.
"""
import random
import time
from fractions import Fraction
from itertools import combinations
from math import gcd

from multiutility import (
    ENTAILED_ONLY,
    REVERSE_ONLY,
    Lottery,
    Measure,
    MonotoneStructure,
    OutcomeSpace,
    PreferenceDataset,
    Utility,
    anchor_membership,
    build_truncation,
    canonical_rep,
    check_increasing,
    check_uniqueness,
    cone_equal,
    cone_from_generators,
    decompose,
    dual_cone,
    extract_representation,
    inequality_chain,
    lab_table,
    membership,
    monotone_extend,
    query,
    verify_membership,
)
from multiutility.cones import IN, OUT
from multiutility.jsonio import representation_to_json
from multiutility.linprog import ExactLP
from multiutility.preferences import utilities_agree

from oracles import oracle_decompose, oracle_membership, random_lottery
from test_metamorphic import mixing_mismatches, moderate_dataset, query_pairs


def report(num, description, failures):
    if failures:
        print(f"FAIL criterion {num}: {description} ({len(failures)} failures; first: {failures[0]})")
    else:
        print(f"PASS criterion {num}: {description}")
    assert not failures, f"criterion {num}: {failures[:3]}"


def random_cone_generators(rng, dim, max_gens, bound=5):
    return [
        tuple(rng.randint(-bound, bound) for _ in range(dim))
        for _ in range(rng.randint(1, max_gens))
    ]


def random_dataset(rng):
    size = rng.randint(2, 5)
    space = OutcomeSpace([f"z{i}" for i in range(size)])
    statements = tuple(
        (random_lottery(rng, space), random_lottery(rng, space))
        for _ in range(rng.randint(0, 6))
    )
    return PreferenceDataset(space, statements)


def test_dual_ray_counts_of_moderate_datasets(monkeypatch):
    # the datasets whose duals take real DD work; extraction, the utility-by-utility check and
    # the output read the integer vectors as they are, with no Utility built
    def no_utility(self, *args):
        raise AssertionError("a Utility was built")

    monkeypatch.setattr(Utility, "__init__", no_utility)
    rng = random.Random(83)
    for (n, m), count in {(10, 20): 346, (14, 20): 91}.items():
        dataset = moderate_dataset(n, m)
        rep = extract_representation(dataset, "z0")
        assert len(rep.dual.rays) == count
        assert type(rep.utilities) is tuple and list(rep.utilities) == sorted(set(rep.utilities))
        for u in rep.utilities:
            assert type(u) is tuple and len(u) == n and all(type(x) is int for x in u), u
            assert u[0] == 0 and gcd(*u) == 1, u
        for p, q, _ in query_pairs(rng, dataset, 4):
            assert utilities_agree(rep, p, q) == query(rep, p, q).classification
        assert representation_to_json(rep)["utilities"] == [[str(x) for x in u] for u in rep.utilities]


def test_cones_and_representations_are_built_without_an_lp(monkeypatch):
    def no_lp(self):
        raise AssertionError("an LP ran")

    monkeypatch.setattr(ExactLP, "minimize", no_lp)
    dataset = moderate_dataset(10, 20)
    hull = cone_from_generators([(p - q).dense() for p, q in dataset.statements], dim=10)
    assert len(dual_cone(hull).rays) == 346
    rep = extract_representation(dataset, "z0")
    assert rep.cone == hull
    # twenty of the 346 utilities keep the test fast
    assert len(canonical_rep([Utility(rep.space, u) for u in rep.utilities[:20]]).rays) == 20


def test_criterion_1_bipolar_and_duality_biconditional():
    rng = random.Random(101)
    failures = []
    for trial in range(200):
        dim = rng.randint(1, 5)
        gens = random_cone_generators(rng, dim, 6)
        c = cone_from_generators(gens, dim=dim)
        if not cone_equal(dual_cone(dual_cone(c)), c):
            failures.append(f"bipolar broke at trial {trial}: dim {dim} gens {gens}")
    for trial in range(100):
        dim = rng.randint(1, 4)
        gens_a = random_cone_generators(rng, dim, 5)
        a = cone_from_generators(gens_a, dim=dim)
        if trial % 2 == 0:
            # same cone, different presentation: scaled generators plus a
            # redundant conic combination
            gens_b = [tuple(rng.randint(1, 3) * v for v in g) for g in gens_a]
            combo = tuple(
                sum(rng.randint(0, 2) * g[i] for g in gens_a) for i in range(dim)
            )
            gens_b.append(combo)
            b = cone_from_generators(gens_b, dim=dim)
        else:
            b = cone_from_generators(random_cone_generators(rng, dim, 5), dim=dim)
        if cone_equal(a, b) != cone_equal(dual_cone(a), dual_cone(b)):
            failures.append(f"duality biconditional broke at trial {trial}")
    report(1, "bipolar identity on 200 cones; duality biconditional on 100 pairs", failures)


def test_criterion_2_membership_agrees_with_enumeration_oracle():
    rng = random.Random(202)
    failures = []
    for trial in range(500):
        dim = rng.randint(1, 4)
        gens = random_cone_generators(rng, dim, 6, bound=4)
        cone = cone_from_generators(gens, dim=dim)
        if trial % 2 == 0:
            x = tuple(rng.randint(-5, 5) for _ in range(dim))
        else:
            lam = [Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in gens]
            x = tuple(sum(l * g[i] for l, g in zip(lam, gens)) for i in range(dim))
        cert = membership(cone, x)
        if (cert.verdict == IN) != oracle_membership(gens, x):
            failures.append(f"verdict mismatch at trial {trial}: {gens} vs {x}")
        elif not verify_membership(cone, x, cert):
            failures.append(f"certificate failed arithmetic recheck at trial {trial}")
    report(2, "500 membership verdicts match the enumeration oracle, certificates exact", failures)


def test_criterion_3_cone_and_utility_answers_coincide():
    rng = random.Random(303)
    failures = []
    for trial in range(100):
        dataset = random_dataset(rng)
        rep = extract_representation(dataset, pin=dataset.space.outcomes[0])
        for _ in range(50):
            p = random_lottery(rng, dataset.space)
            q = random_lottery(rng, dataset.space)
            via_cone = query(rep, p, q).classification
            via_utilities = utilities_agree(rep, p, q)
            if via_cone != via_utilities:
                failures.append(
                    f"trial {trial}: cone says {via_cone}, utilities say {via_utilities}"
                )
    report(3, "query verdicts equal all-utility verdicts on 100 datasets x 50 pairs", failures)


def test_query_routes_agree_past_five_outcomes():
    # rows on rep.cone, the hull LP on a cone without rows, the utilities and the
    # oracle; its subset enumeration takes 0.6 s per OUT at 10 generators on 9
    # outcomes, so it checks two pairs of each dataset with at most 8
    rng = random.Random(606)
    verdicts = {IN: 0, OUT: 0}
    oracle_checked = 0
    for trial in range(20):
        space = OutcomeSpace([f"z{i}" for i in range(rng.randint(6, 9))])
        statements = tuple(
            (random_lottery(rng, space), random_lottery(rng, space)) for _ in range(rng.randint(2, 20))
        )
        dataset = PreferenceDataset(space, statements)
        rep = extract_representation(dataset, pin="z0")
        diffs = [(p - q).dense() for p, q in statements]
        hull = cone_from_generators(diffs, dim=len(space))
        assert rep.cone._inequalities is not None and hull._inequalities is None
        for k, (p, q, _) in enumerate(query_pairs(rng, dataset, 8)):
            diff = (p - q).dense()
            neg = [-v for v in diff]
            verdict = query(rep, p, q)
            by_rows = (verdict.forward.verdict, verdict.backward.verdict)
            by_hull = (membership(hull, diff).verdict, membership(hull, neg).verdict)
            assert by_rows == by_hull, (trial, k)
            assert utilities_agree(rep, p, q) == verdict.classification, (trial, k)
            if len(diffs) <= 8 and k < 2:
                oracle_checked += 1
                assert by_rows == tuple(IN if oracle_membership(diffs, x) else OUT for x in (diff, neg)), (trial, k)
            for v in by_rows:
                verdicts[v] += 1
    assert min(verdicts.values()) > 100 and oracle_checked >= 15, (verdicts, oracle_checked)


def test_criterion_4_uniqueness_across_pins():
    rng = random.Random(303)  # same datasets as criterion 3
    failures = []
    for trial in range(100):
        dataset = random_dataset(rng)
        for _ in range(50):
            random_lottery(rng, dataset.space)
            random_lottery(rng, dataset.space)
        first = extract_representation(dataset, pin=dataset.space.outcomes[0])
        second = extract_representation(dataset, pin=dataset.space.outcomes[-1])
        if not check_uniqueness(*([Utility(r.space, u) for u in r.utilities] for r in (first, second))):
            failures.append(f"pins disagree at trial {trial}")
    report(4, "extraction under two pins is canonically equal on 100 datasets", failures)


def test_criterion_5_transitivity_chain_certificate():
    space = OutcomeSpace(["a", "b", "c"])
    point = lambda z: Lottery.point_mass(space, z)
    dataset = PreferenceDataset(
        space, ((point("a"), point("b")), (point("b"), point("c")))
    )
    rep = extract_representation(dataset, pin="c")
    failures = []
    verdict = query(rep, point("a"), point("c"))
    if verdict.classification != ENTAILED_ONLY:
        failures.append(f"expected entailment, got {verdict.classification}")
    elif dict(verdict.forward.combination) != {0: Fraction(1), 1: Fraction(1)}:
        failures.append(f"expected unit weights on both generators, got {verdict.forward.combination}")
    if query(rep, point("c"), point("a")).classification != REVERSE_ONLY:
        failures.append("reverse query did not classify as REVERSE_ONLY")
    report(5, "chain dataset entails e_a over e_c with unit conic certificate", failures)


def test_criterion_6_monotone_utilities_increase():
    rng = random.Random(606)
    failures = []
    for trial in range(50):
        size = rng.randint(2, 5)
        space = OutcomeSpace([f"z{i}" for i in range(size)])
        # pairs only point from lower to higher index, so the order is acyclic
        pairs = tuple(
            (f"z{i}", f"z{j}")
            for i, j in combinations(range(size), 2)
            if rng.random() < 0.4
        )
        ranking = MonotoneStructure(space, pairs)
        statements = tuple(
            (random_lottery(rng, space), random_lottery(rng, space))
            for _ in range(rng.randint(0, 3))
        )
        dataset = monotone_extend(PreferenceDataset(space, statements), ranking)
        rep = extract_representation(dataset, pin=space.outcomes[0])
        for u in rep.utilities:
            if not check_increasing(Utility(space, u), ranking):
                failures.append(f"trial {trial}: utility {u} not increasing")
    report(6, "every extracted utility is increasing on 50 ranked datasets", failures)


def test_criterion_7_decomposition_round_trip():
    rng = random.Random(707)
    failures = []
    for trial in range(500):
        size = rng.randint(2, 6)
        space = OutcomeSpace([f"z{i}" for i in range(size)])
        if trial % 25 == 0:
            x = Measure.zero(space)
        else:
            head = [
                Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                for _ in range(size - 1)
            ]
            x = Measure.from_values(space, head + [-sum(head)])
        split = decompose(x)
        alpha, p_expected, q_expected = oracle_decompose(x.dense())
        recombined = (split.plus - split.minus).scale(split.alpha)
        if recombined != x:
            failures.append(f"trial {trial}: recombination mismatch")
        elif set(split.plus.support()) & set(split.minus.support()):
            failures.append(f"trial {trial}: supports overlap")
        elif (split.alpha, list(split.plus.dense()), list(split.minus.dense())) != (
            alpha,
            p_expected,
            q_expected,
        ):
            failures.append(f"trial {trial}: disagrees with brute-force oracle")
    report(7, "500 zero-sum vectors decompose exactly, uniquely, orthogonally", failures)


def test_criterion_8_truncation_lab():
    failures = []
    for k0 in range(1, 21):
        if not inequality_chain(k0, k0 + 2) < 0:
            failures.append(f"chain value not negative at k0={k0}")
    started = time.monotonic()
    rows = lab_table(8)
    elapsed = time.monotonic() - started
    costs = []
    for n, count, verdict, cost in rows:
        costs.append(cost)
        if count != 2**n - 1:
            failures.append(f"n={n}: generator count {count}")
        if verdict != OUT:
            failures.append(f"n={n}: anchor verdict {verdict}")
        if n >= 2 and not cost > n - 2:
            failures.append(f"n={n}: cost {cost} not above {n - 2}")
    if costs != sorted(costs):
        failures.append("separation cost is not nondecreasing")
    cert = anchor_membership(build_truncation(8))
    if cert.verdict != OUT:
        failures.append("anchor certificate at n=8 is not OUT")
    if elapsed >= 60:
        failures.append(f"lab took {elapsed:.1f}s, budget is 60s")
    report(8, f"truncation lab exact through n=8 in {elapsed:.2f}s", failures)


def test_criterion_9_independence_closure_self_test():
    rng = random.Random(909)
    failures = []
    for trial in range(100):
        dataset = random_dataset(rng)
        # 100 pairs, half built inside the data cone, each also mixed with a lottery
        failures += [f"trial {trial}: {m}" for m in mixing_mismatches(random.Random(trial), dataset, 100)]
    report(9, "independence closure holds on 100 datasets x 100 samples", failures)
