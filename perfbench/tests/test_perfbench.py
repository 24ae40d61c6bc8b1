"""Tests of the benchmark itself: generator, recheck and tracing wrappers.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""
import json
import os
import resource
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from check import CheckError, check, dot  # noqa: E402
import launcher  # noqa: E402
from launcher import REF_DETERMINANT, REF_MATRIX, determinant, reference_round  # noqa: E402
from run import SETUP_MEASURE, SETUP_STDOUT, Launcher, call_main  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import FALSE_PAIR_DATASET, WORKLOADS, base_statements, diff, generate, load_utility_sets  # noqa: E402

from multiutility import cli  # noqa: E402


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def by_id(invocations, inv_id):
    return next(inv for inv in invocations if inv.id == inv_id)


def small_classify(tmp_path):
    """The classify invocation at (10, 14), cut to twelve queries and no --verify."""
    inv = by_id(generate("classify", 0, tmp_path), "classify:10x14")
    queries = Path(inv.argv[inv.argv.index("--input") + 3])
    doc = json.loads(queries.read_text())
    doc["queries"] = doc["queries"][:12]
    queries.write_text(json.dumps(doc))
    inv.queries = inv.queries[:12]
    inv.argv.remove("--verify")
    return inv


def run_cli(inv) -> str:
    code, text, _ = call_main(cli.main, inv.argv, None)
    assert code == 0
    return text


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_gives_the_same_bytes_for_the_same_seed(tmp_path, workload):
    first = generate(workload, 7, tmp_path / "a")
    second = generate(workload, 7, tmp_path / "b")
    assert [inv.id for inv in first] == [inv.id for inv in second]
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


@pytest.mark.parametrize("workload", ["represent", "classify", "compare"])
def test_another_seed_gives_other_inputs(tmp_path, workload):
    generate(workload, 7, tmp_path / "a")
    generate(workload, 8, tmp_path / "b")
    assert tree_bytes(tmp_path / "a") != tree_bytes(tmp_path / "b")


@pytest.mark.parametrize("seed", range(5))
def test_false_pair_is_separated_by_a_statement(tmp_path, seed):
    inv = by_id(generate("compare", seed, tmp_path), "equal:10x14-false")
    first, second = (json.loads(Path(p).read_text())["utilities"] for p in inv.argv[2::2])
    extra = [u for u in second if u not in first]
    assert inv.expected_equal is False and len(extra) == 1
    # some statement difference is >= 0 on the first set and < 0 on the extra utility
    diffs = [diff(p, q) for p, q in base_statements(*FALSE_PAIR_DATASET)]
    assert any(all(dot(u, d) >= 0 for u in first) and dot(extra[0], d) < 0 for d in diffs)


def test_pin_pairs_come_from_the_recorded_sets(tmp_path):
    sets = load_utility_sets()
    assert {key: len(us) for key, us in sets.items()} == {"10x14": 13, "8x10": 17, "8x16": 53}
    for inv in generate("compare", 5, tmp_path):
        assert inv.expected_equal is (not inv.id.endswith("-false"))


def test_recheck_accepts_the_engine_and_rejects_a_corrupted_verdict(tmp_path):
    inv = small_classify(tmp_path)
    text = run_cli(inv)
    assert check(inv, text.encode(), {}) == 12
    doc = json.loads(text)
    flip = {"INDIFFERENT": "INCOMPARABLE", "INCOMPARABLE": "INDIFFERENT",
            "ENTAILED_ONLY": "REVERSE_ONLY", "REVERSE_ONLY": "ENTAILED_ONLY"}
    doc["verdicts"][3]["classification"] = flip[doc["verdicts"][3]["classification"]]
    with pytest.raises(CheckError, match="classification"):
        check(inv, json.dumps(doc).encode(), {})


def test_recheck_rejects_a_corrupted_separator(tmp_path):
    inv = small_classify(tmp_path)
    doc = json.loads(run_cli(inv))
    cert = next(
        v[side] for v in doc["verdicts"] for side in ("forward", "backward") if v[side]["verdict"] == "OUT"
    )
    cert["separator"] = [-x for x in cert["separator"]]
    with pytest.raises(CheckError, match="separator"):
        check(inv, json.dumps(doc).encode(), {})


def test_recheck_rejects_a_corrupted_utility(tmp_path):
    inv = by_id(generate("represent", 0, tmp_path), "represent:8x16")
    text = run_cli(inv)
    assert check(inv, text.encode(), {}) == 53
    doc = json.loads(text)
    doc["utilities"][0] = [str(-Fraction(x)) for x in doc["utilities"][0]]
    with pytest.raises(CheckError, match="violates a statement"):
        check(inv, json.dumps(doc).encode(), {})


def test_recheck_rejects_a_wrong_lab_row_and_a_digest_mismatch(tmp_path):
    (inv,) = generate("truncation", 0, tmp_path)
    good = "n,generators,anchor,cost\n" + "".join(f"{n},{2 ** n - 1},OUT,{n - 1}\n" for n in range(1, 13))
    assert check(inv, good.encode(), {}) == 12
    with pytest.raises(CheckError, match="row"):
        check(inv, good.replace("12,4095,OUT,11", "12,4095,OUT,10").encode(), {})
    with pytest.raises(CheckError, match="digest"):
        check(inv, good.encode(), {inv.id: "0" * 64})


def test_traced_run_leaves_stdout_byte_identical(tmp_path):
    invocations = [small_classify(tmp_path / "c"), by_id(generate("represent", 2, tmp_path / "r"), "represent:8x16")]
    plain = [run_cli(inv) for inv in invocations]
    originals = (cli.extract_representation, sys.modules["multiutility.preferences"].dual_cone)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.extract_representation is not originals[0]
        assert sys.modules["multiutility.preferences"].dual_cone is not originals[1]
        traced = [call_main(cli.main, inv.argv, tracer) for inv in invocations]
    finally:
        tracer.uninstall()
    assert (cli.extract_representation, sys.modules["multiutility.preferences"].dual_cone) == originals
    assert [(code, text) for code, text, _ in traced] == [(0, text) for text in plain]
    metrics = tracer.metrics()
    assert metrics["cones.membership_calls"] == 2 * 12
    assert metrics["cones.dual_rays"] > 0 and metrics["linprog.solves"] > 0
    assert 0 < metrics["cones.membership_lp_ratio"] <= 1
    assert metrics["cli.self_s"] > 0


def test_launcher_reports_the_child_peak_rss_not_this_process(tmp_path):
    ballast = bytearray(64 * 1024 * 1024)
    ballast[:: 4096] = b"x" * len(ballast[:: 4096])  # touch every page
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(SETUP_MEASURE))
    with Launcher() as launcher:
        r = launcher.run(["decompose", "--input", str(path)], tmp_path / "out", tmp_path / "err")
    assert (tmp_path / "out").read_bytes() == SETUP_STDOUT
    assert os.waitstatus_to_exitcode(r["status"]) == 0 and not r["timed_out"]
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert r["maxrss_kb"] < own_kb - 32 * 1024
    del ballast


def test_launcher_kills_an_invocation_at_its_timeout(tmp_path):
    with Launcher() as launcher:
        r = launcher.run(["counterexample", "--n", "12"], tmp_path / "out", tmp_path / "err", timeout=0.2)
    assert r["timed_out"] and os.waitstatus_to_exitcode(r["status"]) < 0


def test_reference_computation_is_exact_and_timed():
    assert determinant([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]) == -1
    assert determinant([[Fraction(2), Fraction(3)], [Fraction(4), Fraction(5)]]) == -2
    assert determinant(REF_MATRIX) == REF_DETERMINANT
    wall, cpu = reference_round()
    assert wall > 0 and cpu > 0


def test_sampled_invocation_is_stopped_for_reference_rounds_and_unharmed(tmp_path):
    argv = ["counterexample", "--n", "10", "--verify"]
    with Launcher() as launcher:
        plain = launcher.run(argv, tmp_path / "plain", tmp_path / "err")
        sampled = launcher.run(argv, tmp_path / "sampled", tmp_path / "err", sample=True)
    assert os.waitstatus_to_exitcode(sampled["status"]) == 0 and not sampled["timed_out"]
    assert (tmp_path / "sampled").read_bytes() == (tmp_path / "plain").read_bytes()
    assert plain["ref"] == [] and len(sampled["ref"]) >= 1
    assert all(wall > 0 and cpu > 0 for wall, cpu in sampled["ref"])


def test_launcher_leaves_no_child_when_sampling_fails(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(BENCH.parent / "src"))
    spawned = []
    spawn = os.posix_spawn

    def record_spawn(*args, **kwargs):
        spawned.append(spawn(*args, **kwargs))
        return spawned[-1]

    def fail():
        raise RuntimeError("reference failed")

    monkeypatch.setattr(os, "posix_spawn", record_spawn)
    monkeypatch.setattr(launcher, "reference_round", fail)
    argv = ["counterexample", "--n", "10"]
    with pytest.raises(RuntimeError):
        launcher.Runner().run_cli(argv, str(tmp_path / "out"), str(tmp_path / "err"), 60, True)
    # the child was stopped for the failed round; it must be killed and reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(spawned[0], os.WNOHANG)
