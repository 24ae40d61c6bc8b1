"""Correctness gate: recheck every CLI answer in plain Fraction arithmetic.

``check`` raises ``CheckError`` when an invocation's stdout is wrong and
otherwise returns how many answers it carried (utilities for represent,
classified pairs, equal-reps answers, lab-table rows), which the runner
turns into ``verdicts_per_s``.  On the default seed the stdout bytes must
also match the digests recorded in ``data/digests.json``.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from workloads import DEFAULT_SEED, Invocation

DIGESTS = Path(__file__).resolve().parent / "data" / "digests.json"

CLASSES = {
    (True, True): "INDIFFERENT",
    (True, False): "ENTAILED_ONLY",
    (False, True): "REVERSE_ONLY",
    (False, False): "INCOMPARABLE",
}


class CheckError(ValueError):
    """An invocation's output failed the recheck."""


def dot(a, b) -> Fraction:
    return sum((Fraction(x) * y for x, y in zip(a, b)), Fraction(0))


def load_digests(seed: int) -> dict[str, str]:
    """Recorded sha256 of each invocation's stdout; empty off the default seed."""
    if seed != DEFAULT_SEED:
        return {}
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def check(inv: Invocation, stdout: bytes, digests: dict[str, str]) -> int:
    expected = digests.get(inv.id)
    if expected is not None and digest(stdout) != expected:
        raise CheckError(f"{inv.id}: stdout differs from the recorded digest")
    try:
        text = stdout.decode("utf-8")
        if inv.kind == "counterexample":
            return _check_lab(inv, text)
        return {
            "represent": _check_represent,
            "monotone": _check_monotone,
            "classify": _check_classify,
            "equal": _check_equal,
        }[inv.kind](inv, json.loads(text))
    except CheckError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CheckError(f"{inv.id}: malformed output: {exc!r}") from None


def _check_represent(inv: Invocation, doc) -> int:
    utilities = [tuple(Fraction(x) for x in u) for u in doc["utilities"]]
    if not utilities:
        raise CheckError(f"{inv.id}: no utilities")
    if doc["pin"] != f"z{inv.pin}":
        raise CheckError(f"{inv.id}: pin {doc['pin']!r} was not the one asked for")
    cone = doc["cone"]
    n = len(inv.diffs[0])
    for u in utilities:
        if len(u) != n:
            raise CheckError(f"{inv.id}: utility {u} does not have {n} entries")
        if u[inv.pin] != 0:
            raise CheckError(f"{inv.id}: utility {u} is not 0 at the pin")
        if any(dot(u, d) < 0 for d in inv.diffs):
            raise CheckError(f"{inv.id}: utility {u} violates a statement")
        if any(dot(u, g) < 0 for g in cone["generators"]):
            raise CheckError(f"{inv.id}: utility {u} is negative on a cone generator")
        if any(dot(u, l) != 0 for l in cone["lineality"]):
            raise CheckError(f"{inv.id}: utility {u} is not 0 on the cone's lineality")
    return len(utilities)


def _check_monotone(inv: Invocation, doc) -> int:
    # The ranking is appended to the statements before extraction, so every
    # extracted utility respects it.
    if doc != {"all_increasing": True, "violations": []}:
        raise CheckError(f"{inv.id}: a utility extracted with the ranking violates it")
    return 1


def _check_classify(inv: Invocation, doc) -> int:
    verdicts = doc["verdicts"]
    if len(verdicts) != len(inv.queries):
        raise CheckError(f"{inv.id}: {len(verdicts)} verdicts for {len(inv.queries)} queries")
    for i, ((x, entailed), v) in enumerate(zip(inv.queries, verdicts)):
        neg = tuple(-c for c in x)
        answers = []
        for side, vec in (("forward", x), ("backward", neg)):
            cert = v[side]
            if cert["verdict"] == "IN":
                if any(Fraction(c) <= 0 for _, c in cert["combination"]):
                    raise CheckError(f"{inv.id}: query {i} {side} has a nonpositive coefficient")
                answers.append(True)
            elif cert["verdict"] == "OUT":
                sep = cert["separator"]
                if len(sep) != len(x):
                    raise CheckError(f"{inv.id}: query {i} {side} separator has the wrong length")
                if any(dot(sep, d) < 0 for d in inv.diffs):
                    raise CheckError(f"{inv.id}: query {i} {side} separator is negative on a statement")
                if dot(sep, vec) >= 0:
                    raise CheckError(f"{inv.id}: query {i} {side} separator does not cut the query")
                answers.append(False)
            else:
                raise CheckError(f"{inv.id}: query {i} {side} verdict {cert['verdict']!r}")
        if v["classification"] != CLASSES[tuple(answers)]:
            raise CheckError(f"{inv.id}: query {i} classification contradicts its certificates")
        if entailed and not answers[0]:
            raise CheckError(f"{inv.id}: query {i} is entailed but answered OUT")
    return len(verdicts)


def _check_equal(inv: Invocation, doc) -> int:
    if doc != {"equal": inv.expected_equal}:
        raise CheckError(f"{inv.id}: expected equal: {inv.expected_equal}, got {doc}")
    return 1


def _check_lab(inv: Invocation, text: str) -> int:
    n_max = int(inv.argv[inv.argv.index("--n") + 1])
    lines = text.splitlines()
    if lines[:1] != ["n,generators,anchor,cost"] or len(lines) != n_max + 1:
        raise CheckError(f"{inv.id}: malformed lab table")
    for n, line in enumerate(lines[1:], start=1):
        if line != f"{n},{2 ** n - 1},OUT,{n - 1}":
            raise CheckError(f"{inv.id}: row {line!r} should read {n},{2 ** n - 1},OUT,{n - 1}")
    return n_max
