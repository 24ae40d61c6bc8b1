"""Seeded inputs for the four benchmark workloads.

Every workload is a fixed list of CLI invocations.  Its datasets are the
random-lottery datasets of the acceptance tests (denominators at most 6)
drawn from ``random.Random(n*100 + m)`` for n outcomes and m statements, so
the cone each one spans, and with it the work the engine does, is the same
on every seed.  The workload seed changes only what leaves that work
unchanged:

- each statement (p, q) is rewritten as (a*p + (1-a)*r, a*q + (1-a)*r) for a
  seeded weight a and lottery r, which scales p - q by a, and the statement
  order is shuffled;
- the pinned outcome of every invocation;
- the classify queries (half entailed by the statements, half random pairs);
- the two pins of every equal-reps pair.

The generator is pure standard library and needs nothing from the program,
so the same seed always gives the same bytes.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
UTILITY_SETS = HERE / "data" / "utility_sets.json"

DEFAULT_SEED = 0
WORKLOADS = ("represent", "classify", "compare", "truncation")

REPRESENT_DATASETS = ((8, 16), (10, 20), (14, 20), (12, 24))
MONOTONE_DATASET = (10, 20)
CLASSIFY_DATASETS = ((10, 14), (12, 24))
CLASSIFY_QUERIES = 200
# (n, m) of each equal-reps pin pair; the sets hold 13, 17 and 53 utilities
COMPARE_DATASETS = ((10, 14), (8, 10), (8, 16))
FALSE_PAIR_DATASET = (10, 14)
TRUNCATION_N = 12


@dataclass
class Invocation:
    """One CLI call: its id, arguments and what its stdout must satisfy."""

    id: str
    argv: list[str]
    kind: str
    # statement differences p - q as Fraction tuples (represent, classify, monotone)
    diffs: list[tuple[Fraction, ...]] = field(default_factory=list)
    pin: int = 0
    # classify: (query difference p - q, built as entailed?) per query
    queries: list[tuple[tuple[Fraction, ...], bool]] = field(default_factory=list)
    expected_equal: bool | None = None


def rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def random_lottery(rng: random.Random, n: int, max_den: int = 6) -> tuple[Fraction, ...]:
    den = rng.randint(1, max_den)
    cuts = sorted(rng.randint(0, den) for _ in range(n - 1))
    return tuple(Fraction(b - a, den) for a, b in zip([0] + cuts, cuts + [den]))


def base_statements(n: int, m: int) -> list[tuple[tuple[Fraction, ...], tuple[Fraction, ...]]]:
    """The (n, m) dataset of the acceptance-test generator, seeded n*100 + m."""
    rng = random.Random(n * 100 + m)
    return [(random_lottery(rng, n), random_lottery(rng, n)) for _ in range(m)]


def labels(n: int) -> list[str]:
    return [f"z{i}" for i in range(n)]


def diff(p, q) -> tuple[Fraction, ...]:
    return tuple(a - b for a, b in zip(p, q))


def lottery_json(p, n: int) -> dict:
    return {z: rational(v) for z, v in zip(labels(n), p) if v}


def disguise(rng: random.Random, statements):
    """Mix both sides of each statement with one lottery and shuffle them.

    Mixing scales p - q by a positive weight, so the cone of differences,
    and every answer the engine gives about it, is unchanged.
    """
    out = []
    for p, q in statements:
        den = rng.randint(1, 6)
        a = Fraction(rng.randint(1, den), den)
        r = random_lottery(rng, len(p))
        out.append(
            (
                tuple(a * x + (1 - a) * y for x, y in zip(p, r)),
                tuple(a * x + (1 - a) * y for x, y in zip(q, r)),
            )
        )
    rng.shuffle(out)
    return out


def dataset_json(statements, n: int, chain: bool = False) -> dict:
    doc = {
        "outcomes": labels(n),
        "prefers": [{"p": lottery_json(p, n), "q": lottery_json(q, n)} for p, q in statements],
    }
    if chain:
        doc["monotone"] = [[f"z{i}", f"z{i + 1}"] for i in range(n - 1)]
    return doc


def entailed_pair(rng: random.Random, statements, n: int):
    """A pair (p, q) with p - q a nonnegative combination of the statements."""
    total = [Fraction(0)] * n
    for p, q in statements:
        if rng.randint(0, 1):
            continue
        c = Fraction(rng.randint(1, 4), rng.randint(1, 6))
        total = [t + c * d for t, d in zip(total, diff(p, q))]
    alpha = sum(v for v in total if v > 0)
    if alpha == 0:
        r = random_lottery(rng, n)
        return r, r
    return (
        tuple(v / alpha if v > 0 else Fraction(0) for v in total),
        tuple(-v / alpha if v < 0 else Fraction(0) for v in total),
    )


def shift_to_pin(utilities, pin: int) -> list[tuple[int, ...]]:
    """The utility set the engine extracts at another pin, from the set at z0.

    Shifting by a constant changes no preference; each vector is made
    primitive again, deduplicated and sorted, as extraction does.
    """
    out = set()
    for u in utilities:
        v = [x - u[pin] for x in u]
        g = math.gcd(*v)
        if g:
            out.add(tuple(x // g for x in v))
    return sorted(out)


def load_utility_sets() -> dict[str, list[tuple[int, ...]]]:
    raw = json.loads(UTILITY_SETS.read_text(encoding="utf-8"))
    return {key: [tuple(u) for u in us] for key, us in raw.items()}


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return str(path)


def _represent(rng, workdir: Path) -> list[Invocation]:
    invs = []
    for n, m in REPRESENT_DATASETS:
        stmts = disguise(rng, base_statements(n, m))
        path = _write(workdir / f"represent-{n}x{m}.json", dataset_json(stmts, n))
        pin = rng.randrange(n)
        invs.append(
            Invocation(
                f"represent:{n}x{m}",
                ["represent", "--verify", "--input", path, "--pin", f"z{pin}"],
                "represent",
                diffs=[diff(p, q) for p, q in stmts],
                pin=pin,
            )
        )
    n, m = MONOTONE_DATASET
    stmts = disguise(rng, base_statements(n, m))
    path = _write(workdir / f"monotone-{n}x{m}.json", dataset_json(stmts, n, chain=True))
    pin = rng.randrange(n)
    invs.append(
        Invocation(
            f"monotone:{n}x{m}",
            ["monotone-check", "--verify", "--input", path, "--pin", f"z{pin}"],
            "monotone",
            pin=pin,
        )
    )
    return invs


def _classify(rng, workdir: Path) -> list[Invocation]:
    invs = []
    for n, m in CLASSIFY_DATASETS:
        stmts = disguise(rng, base_statements(n, m))
        data = _write(workdir / f"classify-{n}x{m}.json", dataset_json(stmts, n))
        pairs = [entailed_pair(rng, stmts, n) + (True,) for _ in range(CLASSIFY_QUERIES // 2)]
        pairs += [
            (random_lottery(rng, n), random_lottery(rng, n), False)
            for _ in range(CLASSIFY_QUERIES - len(pairs))
        ]
        rng.shuffle(pairs)
        batch = {"queries": [{"p": lottery_json(p, n), "q": lottery_json(q, n)} for p, q, _ in pairs]}
        queries = _write(workdir / f"queries-{n}x{m}.json", batch)
        pin = rng.randrange(n)
        invs.append(
            Invocation(
                f"classify:{n}x{m}",
                ["classify-batch", "--verify", "--input", data, "--input", queries, "--pin", f"z{pin}"],
                "classify",
                diffs=[diff(p, q) for p, q in stmts],
                pin=pin,
                queries=[(diff(p, q), entailed) for p, q, entailed in pairs],
            )
        )
    return invs


def _compare(rng, workdir: Path) -> list[Invocation]:
    sets = load_utility_sets()
    invs = []

    def emit(name: str, n: int, first, second, expected: bool) -> None:
        paths = []
        for side, us in (("a", first), ("b", second)):
            doc = {"outcomes": labels(n), "utilities": [[str(x) for x in u] for u in us]}
            paths.append(_write(workdir / f"{name}-{side}.json", doc))
        invs.append(
            Invocation(
                f"equal:{name}",
                ["equal-reps", "--input", paths[0], "--input", paths[1]],
                "equal",
                expected_equal=expected,
            )
        )

    for n, m in COMPARE_DATASETS:
        base = sets[f"{n}x{m}"]
        i, j = rng.sample(range(n), 2)
        emit(f"{n}x{m}", n, shift_to_pin(base, i), shift_to_pin(base, j), True)

    # A set that gains one utility violating a statement no longer equals the
    # original: the statement's difference separates the two hulls.  The
    # denominators of d divide 60, so 60 * d is integral.
    n, m = FALSE_PAIR_DATASET
    base = sets[f"{n}x{m}"]
    p, q = base_statements(n, m)[rng.randrange(m)]
    d = diff(p, q)
    pin = rng.randrange(n)
    bad = shift_to_pin([tuple(-int(x * 60) for x in d)], pin)
    emit(f"{n}x{m}-false", n, shift_to_pin(base, pin), shift_to_pin(base, pin) + bad, False)
    return invs


def _truncation(rng, workdir: Path) -> list[Invocation]:
    n = TRUNCATION_N
    return [
        Invocation(
            f"counterexample:{n}",
            ["counterexample", "--n", str(n), "--verify"],
            "counterexample",
        )
    ]


def generate(workload: str, seed: int, workdir: Path) -> list[Invocation]:
    """Write the workload's input files under workdir and list its invocations."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"perfbench:{workload}:{seed}")
    return {
        "represent": _represent,
        "classify": _classify,
        "compare": _compare,
        "truncation": _truncation,
    }[workload](rng, workdir)
