"""Command-line front end.

Verbs consume JSON files and emit deterministic JSON (or CSV for the lab
table): byte-identical output for identical inputs.  Errors leave a
machine-readable JSON object on stderr and a nonzero exit code.  With
--verify every emitted certificate is rechecked by plain arithmetic before
the output is written.  The lab table is built once per size; --verify
rechecks each size's OUT certificate by verify_membership on that size's own
cone, and checks that the separation cost exceeds n - 2 and never decreases.
"""
from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from ._linalg import clear_denominators, dot
from .cones import OUT, CertificateError, verify_membership
from .counterexample import lab
from .jsonio import (
    SchemaError,
    dump_json,
    load_json,
    measure_to_json,
    parse_dataset,
    parse_measure_input,
    parse_query_batch,
    parse_query_pair,
    parse_utility_set,
    rational_to_str,
    representation_to_json,
    utility_to_json,
    verdict_to_json,
)
from .measures import Utility, decompose
from .preferences import (
    PreferenceDataset,
    _agree_cleared,
    _cleared_difference,
    _query_cleared,
    check_uniqueness,
    extract_representation,
    first_violation,
    monotone_extend,
)


class UsageError(ValueError):
    """Command line is structurally wrong (missing inputs or flags)."""


class VerificationError(ValueError):
    """--verify recomputation failed; output withheld."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiutility",
        description="Exact multi-utility representations of lottery preferences.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p: argparse.ArgumentParser, inputs: str | None, pin: bool = False, verify: bool = True) -> None:
        if inputs:
            p.add_argument("--input", action="append", default=[], metavar="PATH", help=inputs)
        p.add_argument("--output", metavar="PATH", help="write here instead of stdout")
        if pin:
            p.add_argument("--pin", metavar="LABEL", help="outcome pinned to payoff zero (default: first outcome)")
        if verify:
            p.add_argument("--verify", action="store_true", help="recheck all emitted certificates arithmetically")

    p = sub.add_parser("represent", help="extract the utility set of a dataset")
    common(p, "dataset JSON", pin=True)
    p = sub.add_parser("query", help="classify one lottery pair")
    common(p, "dataset JSON, then a {p, q} pair JSON", pin=True)
    p = sub.add_parser("classify-batch", help="classify many pairs")
    common(p, "dataset JSON, then a {queries: [...]} JSON", pin=True)
    p = sub.add_parser("equal-reps", help="do two utility sets represent the same preferences?")
    common(p, "two utility-set JSON files", verify=False)
    p = sub.add_parser("monotone-check", help="extend by an outcome ranking and audit the utilities")
    common(p, "dataset JSON with a monotone section", pin=True)
    p = sub.add_parser("decompose", help="split a zero-sum measure into scaled lotteries")
    common(p, "measure JSON: {outcomes, measure}")
    p = sub.add_parser("counterexample", help="emit the truncation lab table as CSV")
    common(p, None)
    p.add_argument("--n", type=int, required=True, metavar="N", help="largest truncation size")
    return parser


def _inputs(args, count: int) -> list:
    paths = getattr(args, "input", [])
    if len(paths) != count:
        noun = "input file" if count == 1 else "input files"
        raise UsageError(f"{args.verb} needs exactly {count} {noun} via --input, got {len(paths)}")
    return [load_json(p) for p in paths]


def _dataset_and_pin(args, raw) -> tuple[PreferenceDataset, str, object]:
    dataset, ranking = parse_dataset(raw)
    pin = args.pin if args.pin is not None else dataset.space.outcomes[0]
    if pin not in dataset.space:
        raise UsageError(f"--pin {pin!r} is not an outcome of the dataset")
    return dataset, pin, ranking


def _verify_representation(rep, dataset: PreferenceDataset) -> None:
    if not rep.utilities:
        raise VerificationError("representation has no utilities")
    pin = rep.space.position(rep.pin)
    for u in rep.utilities:
        if u[pin] != 0:
            raise VerificationError(f"utility {Utility(rep.space, u)!r} not pinned to zero at {rep.pin!r}")
    # E_p[u] >= E_q[u] iff <p - q, u> >= 0, a sign that positive scaling keeps
    for p, q in dataset.statements:
        diff, _ = clear_denominators((p - q).dense())
        for u in rep.utilities:
            if dot(diff, u) < 0:
                raise VerificationError(
                    f"statement {p!r} over {q!r} violated by extracted utility {Utility(rep.space, u)!r}"
                )


def _verify_verdict(rep, diff, verdict) -> None:
    # diff is the input pair's p - q, cleared once and shared with the query
    # membership rechecks a certificate only on the vector it was given; this binds it to the input pair
    if not verify_membership(rep.cone, diff, verdict.forward):
        raise VerificationError("forward certificate failed recheck")
    if not verify_membership(rep.cone, -diff, verdict.backward):
        raise VerificationError("backward certificate failed recheck")
    if _agree_cleared(rep, diff) != verdict.classification:
        raise VerificationError("utility-by-utility classification disagrees with cone verdict")


def _verdicts(dataset: PreferenceDataset, pin: str, pairs, verify: bool) -> list[dict]:
    """Verdict objects for the pairs, each rechecked on the input's own p - q when verify is set."""
    rep = extract_representation(dataset, pin)
    diffs = [_cleared_difference(rep, p, q) for p, q in pairs]
    verdicts = [_query_cleared(rep, d) for d in diffs]
    if verify:
        for d, v in zip(diffs, verdicts):
            _verify_verdict(rep, d, v)
    return [verdict_to_json(v) for v in verdicts]


def _run(args) -> str:
    verb = args.verb

    if verb == "represent":
        (raw,) = _inputs(args, 1)
        dataset, pin, _ = _dataset_and_pin(args, raw)
        rep = extract_representation(dataset, pin)
        if args.verify:
            _verify_representation(rep, dataset)
        return dump_json(representation_to_json(rep))

    if verb == "query":
        raw_dataset, raw_pair = _inputs(args, 2)
        dataset, pin, _ = _dataset_and_pin(args, raw_dataset)
        pair = parse_query_pair(raw_pair, dataset.space)
        (verdict,) = _verdicts(dataset, pin, [pair], args.verify)
        return dump_json(verdict)

    if verb == "classify-batch":
        raw_dataset, raw_batch = _inputs(args, 2)
        dataset, pin, _ = _dataset_and_pin(args, raw_dataset)
        pairs = parse_query_batch(raw_batch, dataset.space)
        return dump_json({"verdicts": _verdicts(dataset, pin, pairs, args.verify)})

    if verb == "equal-reps":
        raw_a, raw_b = _inputs(args, 2)
        space_a, set_a = parse_utility_set(raw_a)
        space_b, set_b = parse_utility_set(raw_b)
        if space_a != space_b:
            raise SchemaError("utility sets must share one outcome list", "outcomes")
        return dump_json({"equal": check_uniqueness(set_a, set_b)})

    if verb == "monotone-check":
        (raw,) = _inputs(args, 1)
        dataset, pin, ranking = _dataset_and_pin(args, raw)
        if ranking is None:
            raise SchemaError("missing key", "monotone")
        extended = monotone_extend(dataset, ranking)
        rep = extract_representation(extended, pin)
        if args.verify:
            _verify_representation(rep, extended)
        violations = []
        for u in rep.utilities:
            pair = first_violation(Utility(rep.space, u), ranking)
            if pair is not None:
                violations.append({"utility": utility_to_json(u), "pair": list(pair)})
        return dump_json({"all_increasing": not violations, "violations": violations})

    if verb == "decompose":
        (raw,) = _inputs(args, 1)
        x = parse_measure_input(raw)
        split = decompose(x)
        if args.verify:
            recombined = split.plus.scale(split.alpha) - split.minus.scale(split.alpha)
            if not (x.is_zero() and split.alpha == 0) and recombined != x:
                raise VerificationError("decomposition does not recombine to the input")
        return dump_json(
            {
                "alpha": rational_to_str(split.alpha),
                "p": measure_to_json(split.plus),
                "q": measure_to_json(split.minus),
            }
        )

    if verb == "counterexample":
        lines = ["n,generators,anchor,cost"]
        prev = Fraction(-1)
        for trunc, cert, cost in lab(args.n):
            n = trunc.n
            if args.verify:
                if cert.verdict != OUT or not verify_membership(trunc.cone, trunc.anchor.dense(), cert):
                    raise VerificationError(f"anchor certificate at n={n} failed recheck")
                if n >= 2 and not cost > n - 2:
                    raise VerificationError(f"separation cost at n={n} violates its growth bound")
                if cost < prev:
                    raise VerificationError(f"separation cost decreased at n={n}")
                prev = cost
            lines.append(f"{n},{len(trunc.generators)},{cert.verdict},{rational_to_str(cost)}")
            # hold no construction while lab builds the next size
            del trunc
        return "\n".join(lines) + "\n"

    raise UsageError(f"unknown verb {verb!r}")


def _emit_error(kind: str, message: str, **extra) -> None:
    body = {"kind": kind, "message": message}
    for k, v in extra.items():
        if v is not None:
            body[k] = v
    sys.stderr.write(dump_json({"error": body}))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = _run(args)
    except UsageError as exc:
        _emit_error("usage", str(exc))
        return 2
    except SchemaError as exc:
        _emit_error(exc.kind, exc.message, path=exc.path or None, line=exc.line, column=exc.column)
        return 1
    except VerificationError as exc:
        _emit_error("verify", str(exc))
        return 1
    except CertificateError as exc:
        _emit_error("internal", str(exc))
        return 1
    except ValueError as exc:
        _emit_error("validation", str(exc))
        return 1
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            _emit_error("io", f"cannot write {args.output}: {exc.strerror or exc}")
            return 1
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
