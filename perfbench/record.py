"""Record the benchmark's reference data from the current program.

    python3 perfbench/record.py

Writes ``data/utility_sets.json``, the utility set the CLI extracts at pin
z0 for each equal-reps dataset, and then ``data/digests.json``, the sha256
of every invocation's stdout on the default seed.  Run it only when a change
is meant to alter CLI output, and say so in the change.
"""
from __future__ import annotations

import json
import os
import sys

from check import DIGESTS, digest
from run import WORK, Launcher
from workloads import (
    COMPARE_DATASETS,
    DEFAULT_SEED,
    UTILITY_SETS,
    WORKLOADS,
    base_statements,
    dataset_json,
    generate,
)


def run_cli(launcher: Launcher, argv: list[str], workdir) -> bytes:
    out, err = workdir / "stdout", workdir / "stderr"
    r = launcher.run(argv, out, err, timeout=600)
    if r["timed_out"] or os.waitstatus_to_exitcode(r["status"]) != 0:
        raise SystemExit(f"{argv[0]} failed: {err.read_text(errors='replace')}")
    return out.read_bytes()


def main() -> int:
    with Launcher() as launcher:
        record(launcher)
    return 0


def record(launcher: Launcher) -> None:
    workdir = WORK / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    sets = {}
    for n, m in COMPARE_DATASETS:
        path = workdir / f"dataset-{n}x{m}.json"
        path.write_text(json.dumps(dataset_json(base_statements(n, m), n)), encoding="utf-8")
        rep = json.loads(run_cli(launcher, ["represent", "--input", str(path), "--pin", "z0"], workdir))
        sets[f"{n}x{m}"] = [[int(x) for x in u] for u in rep["utilities"]]
    UTILITY_SETS.parent.mkdir(exist_ok=True)
    rows = ",\n".join(
        f'  "{key}": [\n' + ",\n".join(f"    {json.dumps(u)}" for u in us) + "\n  ]" for key, us in sets.items()
    )
    UTILITY_SETS.write_text("{\n" + rows + "\n}\n", encoding="utf-8")

    digests = {}
    for name in WORKLOADS:
        for inv in generate(name, DEFAULT_SEED, workdir / name):
            digests[inv.id] = digest(run_cli(launcher, inv.argv, workdir))
            print(inv.id, digests[inv.id], file=sys.stderr)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
