"""Benchmark of the multiutility CLI, driven from outside the program.

Run from the root of a checkout:

    python3 perfbench/run.py --workload represent --seed 1 --seconds 25 --trace 0

The seed fixes the generated inputs (see workloads.py), which are written
under .perfbench/ before any timing starts.  With --trace 0 the benchmark is
a closed loop with one client: every invocation is a fresh
``python -m multiutility`` process, spawned through launcher.py and started
only after the previous one has been reaped, so times include interpreter
start-up and import.  Passes over
the workload's invocation list repeat (at least two) while one more fits in
--seconds, and the end-to-end metrics are medians over passes.  Times are
reported in units of a fixed reference computation (exact Fraction
elimination) that launcher.py times on the invocations' CPU every quarter
second of their run, so that a shared host running faster or slower moves
the reference and the program together and cancels out.  With --trace 1 the same
invocations run in this process through ``multiutility.cli.main``, once
plain and once under the layer wrappers of tracing.py, for the per-layer
metrics.  Every answer is rechecked (check.py); the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs the four workloads one after another.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from check import CheckError, check, load_digests
from tracing import Tracer
from workloads import DEFAULT_SEED, WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_SAMPLES = 11
# per-invocation limit in seconds; an invocation that reaches it counts as failed
TIMEOUT = 60
SETUP_MEASURE = {"outcomes": ["a", "b", "c"], "measure": {"a": "1/2", "b": "-1/3", "c": "-1/6"}}
SETUP_STDOUT = b'{\n  "alpha": "1/2",\n  "p": {\n    "a": "1"\n  },\n  "q": {\n    "b": "2/3",\n    "c": "1/3"\n  }\n}\n'

END_TO_END_UNITS = {
    "wall_ref": "ref",
    "cpu_ref": "ref",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "verdicts_per_ref": "1/ref",
}
PER_LAYER_UNITS = {
    "cones.dual_s": "s",
    "cones.dual_rays": "count",
    "cones.from_generators_s": "s",
    "cones.generators_in": "count",
    "cones.rays_kept": "count",
    "cones.membership_s": "s",
    "cones.membership_calls": "count",
    "cones.membership_lp_ratio": "ratio",
    "cones.contains_s": "s",
    "cones.contains_calls": "count",
    "cones.canonical_rep_s": "s",
    "cones.verify_s": "s",
    "cones.self_s": "s",
    "preferences.query_s": "s",
    "preferences.agree_s": "s",
    "preferences.self_s": "s",
    "counterexample.build_s": "s",
    "counterexample.anchor_s": "s",
    "counterexample.cost_s": "s",
    "counterexample.self_s": "s",
    "linprog.solves": "count",
    "linprog.solve_s": "s",
    "linprog.cells": "count",
    "jsonio.parse_s": "s",
    "jsonio.emit_s": "s",
    "jsonio.bytes_out": "bytes",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tally:
    """Invocations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, inv_id: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {inv_id}: {error}", file=sys.stderr)


def timed_passes(seconds: float, minimum: int):
    """Yield once per pass: ``minimum`` times, then while one more pass, as
    long as the longest so far, still fits in ``seconds``."""
    start = last = time.perf_counter()
    longest = 0.0
    count = 0
    while True:
        yield
        count += 1
        now = time.perf_counter()
        longest = max(longest, now - last)
        last = now
        if count >= minimum and now - start + longest > seconds:
            return


# -- out of process -------------------------------------------------------------


class Launcher:
    """The launcher.py process, which spawns every CLI invocation.

    Spawning through it keeps this process's own memory out of the
    children's max RSS (see launcher.py).
    """

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: list[str], out: Path, err: Path, timeout: float = TIMEOUT, sample: bool = False) -> dict:
        """Run one CLI process to completion; return launcher.py's reply.

        With ``sample`` the reply's ``ref`` lists reference rounds timed
        while the process was stopped (see launcher.py).
        """
        request = {"argv": argv, "out": str(out), "err": str(err), "timeout": timeout, "sample": sample}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise SystemExit("perfbench: the launcher process exited")
        return json.loads(reply)


def measure_setup(launcher: Launcher, workdir: Path) -> float:
    """Median wall time of a trivial decompose process, after one warm-up."""
    path = workdir / "setup-measure.json"
    path.write_text(json.dumps(SETUP_MEASURE), encoding="utf-8")
    out, err = workdir / "setup.out", workdir / "setup.err"
    walls = []
    for i in range(SETUP_SAMPLES + 1):
        r = launcher.run(["decompose", "--input", str(path)], out, err)
        if r["timed_out"] or os.waitstatus_to_exitcode(r["status"]) != 0 or out.read_bytes() != SETUP_STDOUT:
            raise SystemExit(f"perfbench: the CLI does not run: {err.read_text(errors='replace')[-500:]}")
        if i:
            walls.append(r["wall"])
    return statistics.median(walls)


def run_pass(launcher: Launcher, invocations, workdir: Path, digests, tally: Tally) -> dict[str, float]:
    """Run every invocation once, sampling the reference during each.

    Returns the pass's wall and CPU time in seconds and in reference units
    (over the harmonic mean of the pass's reference rounds), its answers per
    reference unit and its peak RSS.
    """
    wall = cpu = rss = 0.0
    answers = 0
    refs = []
    out, err = workdir / "stdout", workdir / "stderr"
    for inv in invocations:
        r = launcher.run(inv.argv, out, err, sample=True)
        refs += r["ref"]
        wall += r["wall"]
        cpu += r["utime"] + r["stime"]
        rss = max(rss, r["maxrss_kb"] / 1024)
        code = os.waitstatus_to_exitcode(r["status"])
        error = None
        if r["timed_out"]:
            error = f"timed out after {TIMEOUT} s"
        elif code != 0:
            error = f"exit code {code}: {err.read_text(errors='replace')[-300:]}"
        else:
            try:
                answers += check(inv, out.read_bytes(), digests)
            except CheckError as exc:
                error = str(exc)
        tally.record(inv.id, error)
    # Rounds come at a fixed period of run time, and the program gets through
    # work at a rate inverse to the round time, so the harmonic mean of the
    # rounds is the round time the pass ran at on average.
    wall_ref = wall / statistics.harmonic_mean([w for w, _ in refs])
    return {
        "wall_ref": wall_ref,
        "cpu_ref": cpu / statistics.harmonic_mean([c for _, c in refs]),
        "peak_rss_mb": rss,
        "verdicts_per_ref": answers / wall_ref,
        "wall_s": wall,
        "cpu_s": cpu,
    }


def end_to_end(invocations, workdir: Path, seed: int, seconds: float, tally: Tally) -> dict:
    digests = load_digests(seed)
    passes = []
    with Launcher() as launcher:
        setup = measure_setup(launcher, workdir)
        # two passes at least, so that a median has more than one pass behind it
        for _ in timed_passes(seconds, minimum=2):
            passes.append(run_pass(launcher, invocations, workdir, digests, tally))
            print(f"pass {len(passes)}: " + " ".join(f"{k}={v:.4g}" for k, v in passes[-1].items()), file=sys.stderr)
    metrics = {key: statistics.median(p[key] for p in passes) for key in passes[0]}
    metrics["setup_s"] = setup
    for key in ("wall_s", "cpu_s"):
        print(f"{'':<10} {key:<28} {metrics[key]:>14.6g} s  (median pass, not normalized)", file=sys.stderr)
    return {key: metrics[key] for key in END_TO_END_UNITS}


# -- in process, traced ---------------------------------------------------------


def call_main(main, argv: list[str], tracer: Tracer | None) -> tuple[int, str, str]:
    """Run the CLI in this process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tracer.span("cli.main", main, argv) if tracer else main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed invocation, not the end of the run
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def traced(invocations, seed: int, seconds: float, tally: Tally) -> dict:
    sys.path.insert(0, str(SRC))
    from multiutility import cli

    digests = load_digests(seed)
    plain_walls, traced_walls, layer_metrics = [], [], []
    for _ in timed_passes(seconds, minimum=1):
        plain = []
        t0 = time.perf_counter()
        for inv in invocations:
            plain.append(call_main(cli.main, inv.argv, None))
        plain_walls.append(time.perf_counter() - t0)

        tracer = Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            runs = [call_main(cli.main, inv.argv, tracer) for inv in invocations]
            traced_walls.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        layer = tracer.metrics()
        layer["jsonio.bytes_out"] = sum(len(text.encode("utf-8")) for _, text, _ in runs)
        layer_metrics.append(layer)

        for inv, plain_run, traced_run in zip(invocations, plain, runs):
            for label, (code, text, err) in (("plain", plain_run), ("traced", traced_run)):
                error = None
                if code != 0:
                    error = f"{label} run exit code {code}: {err[-300:]}"
                elif text != plain_run[1]:
                    error = "traced stdout differs from the plain run"
                else:
                    try:
                        check(inv, text.encode("utf-8"), digests)
                    except CheckError as exc:
                        error = f"{label} run: {exc}"
                tally.record(inv.id, error)

    metrics = {key: statistics.median(m[key] for m in layer_metrics) for key in layer_metrics[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(plain_walls)
    return {key: metrics[key] for key in PER_LAYER_UNITS}


# -- entry point ------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "multiutility" / "__init__.py").is_file():
        print(f"perfbench: no multiutility sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    tally = Tally()
    results = {}
    for name in names:
        workdir = WORK / f"{name}-{args.seed}"
        shutil.rmtree(workdir, ignore_errors=True)
        invocations = generate(name, args.seed, workdir)
        before = (tally.attempted, tally.failed)
        if args.trace:
            values = traced(invocations, args.seed, args.seconds, tally)
        else:
            values = end_to_end(invocations, workdir, args.seed, args.seconds, tally)
        attempted, failed = tally.attempted - before[0], tally.failed - before[1]
        for key, value in values.items():
            print(f"{name:<10} {key:<28} {value:>14.6g} {units[key]}")
        print(f"{name:<10} {'failed_ratio':<28} {failed / attempted:>14.6g} ratio  ({failed} of {attempted})")
        results[name] = values

    if len(names) == 1:
        metrics = {key: {"value": v, "unit": units[key]} for key, v in results[names[0]].items()}
    else:
        metrics = {
            f"{name}.{key}": {"value": v, "unit": units[key]}
            for name, values in results.items()
            for key, v in values.items()
        }
    summary = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
