"""JSON schemas for datasets, cones, representations and certificates.

Rationals serialize as strings "num/den", or "num" when the denominator is
one; integers are accepted on input, floats are rejected outright (an exact
engine must not guess what 0.1 meant).  Measures serialize sparsely as
label-to-rational maps, utilities densely as arrays aligned with the
declared outcome order, cone generators as integer arrays.  Parse errors
carry the JSON path to the offending element.
"""
from __future__ import annotations

import json
import sys
from fractions import Fraction
from typing import Any

from .cones import MembershipCertificate, PolyhedralCone
from .measures import (
    Lottery,
    Measure,
    NotLotteryError,
    OutcomeSpace,
    Utility,
    as_fraction,
    decimal_digits,
    digit_limit_error,
)
from .preferences import MonotoneStructure, PreferenceDataset, QueryVerdict, Representation


class SchemaError(ValueError):
    """Input does not match the expected schema.

    ``path`` locates the offending element ("prefers[2].p.win").  ``kind``
    is "parse" for input that is not JSON at all, with ``line`` and
    ``column`` where the parser reports a position, and "io" for input that
    cannot be read.
    """

    def __init__(
        self, message: str, path: str = "", line: int | None = None, column: int | None = None, kind: str = "schema"
    ):
        super().__init__(message if not path else f"{path}: {message}")
        self.message = message
        self.path = path
        self.line = line
        self.column = column
        self.kind = kind


def _widest_digits(obj: Any) -> int:
    """Decimal digits of the largest integer in a JSON-ready object, counted without printing it."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return max(map(_widest_digits, obj), default=0)
    return decimal_digits(obj) if isinstance(obj, int) else 0


def rational_to_str(value: Fraction) -> str:
    value = Fraction(value)
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        raise digit_limit_error(_widest_digits((value.numerator, value.denominator))) from None


def parse_rational(value: Any, path: str = "") -> Fraction:
    if isinstance(value, bool):
        raise SchemaError(f"expected a rational, got {value!r}", path)
    if isinstance(value, float):
        raise SchemaError(f"floats are not accepted, write {value!r} as a 'num/den' string", path)
    if isinstance(value, (int, str)):
        try:
            return as_fraction(value)
        except ValueError as exc:
            raise SchemaError(str(exc), path) from None
    raise SchemaError(f"expected a rational, got {type(value).__name__}", path)


def _json_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise digit_limit_error(len(text.removeprefix("-"))) from None


def load_json(path: str) -> Any:
    """Read one JSON document from a file, or from stdin when path is '-'."""
    try:
        if path == "-":
            return json.loads(sys.stdin.read(), parse_int=_json_int)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_int=_json_int)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc.strerror or exc}", kind="io") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"invalid JSON in {path}: {exc.msg}", line=exc.lineno, column=exc.colno, kind="parse"
        ) from None
    except RecursionError:
        raise SchemaError(f"invalid JSON in {path}: nested too deeply", kind="parse") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: not UTF-8 ({exc.reason})", kind="parse") from None
    except ValueError as exc:
        # after its subclasses above: an integer past Python's digit limit
        raise SchemaError(f"invalid JSON in {path}: {exc}", kind="parse") from None


def dump_json(obj: Any) -> str:
    """Canonical serialization: two-space indent, fixed key order, newline."""
    try:
        return json.dumps(obj, indent=2) + "\n"
    except ValueError:
        # an integer past Python's digit limit, such as an entry of a separator
        raise digit_limit_error(_widest_digits(obj)) from None


def _expect_dict(obj: Any, path: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(f"expected an object, got {type(obj).__name__}", path)
    return obj


def _expect_list(obj: Any, path: str) -> list:
    if not isinstance(obj, list):
        raise SchemaError(f"expected an array, got {type(obj).__name__}", path)
    return obj


def _member(obj: dict, key: str, path: str = "") -> Any:
    if key not in obj:
        raise SchemaError("missing key", f"{path}.{key}" if path else key)
    return obj[key]


# -- outcome spaces and measures ----------------------------------------------


def parse_space(obj: Any, path: str = "outcomes") -> OutcomeSpace:
    labels = _expect_list(obj, path)
    for i, z in enumerate(labels):
        if not isinstance(z, str):
            raise SchemaError(f"outcome label must be a string, got {z!r}", f"{path}[{i}]")
    try:
        return OutcomeSpace(labels)
    except ValueError as exc:
        raise SchemaError(str(exc), path) from None


def _parse_entries(obj: Any, space: OutcomeSpace, path: str) -> dict[int, Fraction]:
    mapping = _expect_dict(obj, path)
    entries = {}
    for label, raw in mapping.items():
        if label not in space:
            raise SchemaError(f"unknown outcome {label!r}", f"{path}.{label}")
        entries[space.position(label)] = parse_rational(raw, f"{path}.{label}")
    return entries


def parse_lottery(obj: Any, space: OutcomeSpace, path: str) -> Lottery:
    try:
        return Lottery(space, _parse_entries(obj, space, path))
    except NotLotteryError as exc:
        raise SchemaError(str(exc), path) from None


def measure_to_json(m: Measure) -> dict:
    return {z: rational_to_str(m.value(z)) for z in sorted(m.support())}


def parse_utility(obj: Any, space: OutcomeSpace, path: str) -> Utility:
    values = _expect_list(obj, path)
    if len(values) != len(space):
        raise SchemaError(f"expected {len(space)} entries, got {len(values)}", path)
    return Utility(space, [parse_rational(v, f"{path}[{i}]") for i, v in enumerate(values)])


def utility_to_json(u: tuple[int, ...]) -> list[str]:
    """An extracted utility's integer entries as strings, in outcome order."""
    try:
        return [str(v) for v in u]
    except ValueError:
        raise digit_limit_error(_widest_digits(u)) from None


# -- datasets -------------------------------------------------------------------


def parse_dataset(obj: Any) -> tuple[PreferenceDataset, MonotoneStructure | None]:
    root = _expect_dict(obj, "")
    space = parse_space(_member(root, "outcomes"))
    items = _expect_list(root.get("prefers", []), "prefers")
    statements = tuple(parse_query_pair(item, space, f"prefers[{i}]") for i, item in enumerate(items))
    dataset = PreferenceDataset(space, statements)
    ranking = None
    if "monotone" in root:
        pairs = []
        for i, item in enumerate(_expect_list(root["monotone"], "monotone")):
            pair = _expect_list(item, f"monotone[{i}]")
            if len(pair) != 2 or not all(isinstance(z, str) for z in pair):
                raise SchemaError("expected a pair of outcome labels", f"monotone[{i}]")
            for z in pair:
                if z not in space:
                    raise SchemaError(f"unknown outcome {z!r}", f"monotone[{i}]")
            pairs.append((pair[0], pair[1]))
        ranking = MonotoneStructure(space, tuple(pairs))
    return dataset, ranking


def parse_query_pair(obj: Any, space: OutcomeSpace, path: str = "") -> tuple[Lottery, Lottery]:
    entry = _expect_dict(obj, path)
    # both keys are looked up before either lottery is parsed
    p, q = _member(entry, "p", path), _member(entry, "q", path)
    prefix = f"{path}." if path else ""
    return parse_lottery(p, space, f"{prefix}p"), parse_lottery(q, space, f"{prefix}q")


def parse_query_batch(obj: Any, space: OutcomeSpace) -> list[tuple[Lottery, Lottery]]:
    items = _expect_list(_member(_expect_dict(obj, ""), "queries"), "queries")
    return [parse_query_pair(item, space, f"queries[{i}]") for i, item in enumerate(items)]


def parse_measure_input(obj: Any) -> Measure:
    root = _expect_dict(obj, "")
    outcomes, measure = _member(root, "outcomes"), _member(root, "measure")
    space = parse_space(outcomes)
    return Measure(space, _parse_entries(measure, space, "measure"))


def parse_utility_set(obj: Any) -> tuple[OutcomeSpace, list[Utility]]:
    root = _expect_dict(obj, "")
    space = parse_space(_member(root, "outcomes"))
    items = _expect_list(_member(root, "utilities"), "utilities")
    if not items:
        raise SchemaError("utility set must be nonempty", "utilities")
    return space, [parse_utility(u, space, f"utilities[{i}]") for i, u in enumerate(items)]


# -- cones, representations, verdicts -------------------------------------------


def cone_to_json(cone: PolyhedralCone) -> dict:
    return {
        "dim": cone.dim,
        "generators": [list(r) for r in cone.rays],
        "lineality": [list(l) for l in cone.lineality],
    }


def representation_to_json(rep: Representation) -> dict:
    return {
        "utilities": [utility_to_json(u) for u in rep.utilities],
        "cone": cone_to_json(rep.cone),
        "pin": rep.pin,
    }


def certificate_to_json(cert: MembershipCertificate) -> dict:
    if cert.verdict == "IN":
        return {
            "verdict": "IN",
            "combination": [[i, rational_to_str(c)] for i, c in cert.combination],
        }
    return {"verdict": "OUT", "separator": list(cert.separator)}


def verdict_to_json(v: QueryVerdict) -> dict:
    return {
        "classification": v.classification,
        "forward": certificate_to_json(v.forward),
        "backward": certificate_to_json(v.backward),
    }
