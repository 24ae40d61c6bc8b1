import io
import json
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from types import ModuleType

import pytest

import multiutility
from multiutility import Measure, _linalg, cli, cones, counterexample, preferences
from multiutility.cli import main
from test_measures import REJECTED_RATIONALS

CHAIN = {
    "outcomes": ["a", "b", "c"],
    "prefers": [
        {"p": {"a": 1}, "q": {"b": 1}},
        {"p": {"b": 1}, "q": {"c": 1}},
    ],
}


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_represent_frozen_output(tmp_path):
    data = write(tmp_path, "chain.json", CHAIN)
    code, out, err = run_cli("represent", "--input", data, "--pin", "c", "--verify")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert list(doc) == ["utilities", "cone", "pin"]
    assert doc["utilities"] == [["1", "0", "0"], ["1", "1", "0"]]
    assert doc["cone"] == {"dim": 3, "generators": [[0, 1, -1], [1, -1, 0]], "lineality": []}
    assert doc["pin"] == "c"


def test_represent_default_pin_is_first_outcome(tmp_path):
    data = write(tmp_path, "chain.json", CHAIN)
    code, out, _ = run_cli("represent", "--input", data)
    assert code == 0
    doc = json.loads(out)
    assert doc["pin"] == "a"
    assert all(row[0] == "0" for row in doc["utilities"])


def test_input_dash_reads_stdin(tmp_path, monkeypatch):
    data = write(tmp_path, "chain.json", CHAIN)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(CHAIN)))
    code, out, err = run_cli("represent", "--input", "-", "--pin", "c")
    assert code == 0 and err == ""
    _, from_file, _ = run_cli("represent", "--input", data, "--pin", "c")
    assert out == from_file


def test_query_entailed(tmp_path):
    data = write(tmp_path, "chain.json", CHAIN)
    pair = write(tmp_path, "pair.json", {"p": {"a": 1}, "q": {"c": 1}})
    code, out, err = run_cli("query", "--input", data, "--input", pair, "--verify")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["classification"] == "ENTAILED_ONLY"
    assert doc["forward"]["verdict"] == "IN"
    assert doc["forward"]["combination"] == [[0, "1"], [1, "1"]]
    assert doc["backward"]["verdict"] == "OUT"


def test_query_indifferent(tmp_path):
    data = write(tmp_path, "chain.json", CHAIN)
    pair = write(
        tmp_path,
        "pair.json",
        {"p": {"a": "1/2", "c": "1/2"}, "q": {"a": "1/2", "c": "1/2"}},
    )
    code, out, _ = run_cli("query", "--input", data, "--input", pair)
    assert code == 0
    assert json.loads(out)["classification"] == "INDIFFERENT"


def test_classify_batch_preserves_order(tmp_path):
    data = write(tmp_path, "chain.json", CHAIN)
    batch = write(
        tmp_path,
        "batch.json",
        {
            "queries": [
                {"p": {"a": 1}, "q": {"b": 1}},
                {"p": {"c": 1}, "q": {"b": 1}},
                {"p": {"b": 1}, "q": {"b": 1}},
            ]
        },
    )
    code, out, _ = run_cli("classify-batch", "--input", data, "--input", batch, "--verify")
    assert code == 0
    verdicts = [v["classification"] for v in json.loads(out)["verdicts"]]
    assert verdicts == ["ENTAILED_ONLY", "REVERSE_ONLY", "INDIFFERENT"]


def test_query_prints_the_verdict_of_a_one_pair_batch(tmp_path):
    data = write(tmp_path, "chain.json", CHAIN)
    lotteries = ({"a": 1}, {"b": 1}, {"c": 1}, {"a": "1/2", "c": "1/2"})
    for p in lotteries:
        for q in lotteries:
            pair = write(tmp_path, "pair.json", {"p": p, "q": q})
            batch = write(tmp_path, "batch.json", {"queries": [{"p": p, "q": q}]})
            for argv in (["--verify"], []):
                code, out, err = run_cli("query", "--input", data, "--input", pair, *argv)
                batch_code, batch_out, batch_err = run_cli("classify-batch", "--input", data, "--input", batch, *argv)
                assert code == batch_code == 0 and err == batch_err == ""
                (verdict,) = json.loads(batch_out)["verdicts"]
                assert out == json.dumps(verdict, indent=2) + "\n"


def test_equal_reps(tmp_path):
    a = write(tmp_path, "a.json", {"outcomes": ["a", "b"], "utilities": [["1", "0"]]})
    b = write(tmp_path, "b.json", {"outcomes": ["a", "b"], "utilities": [["2", "0"]]})
    c = write(tmp_path, "c.json", {"outcomes": ["a", "b"], "utilities": [["0", "1"]]})
    code, out, _ = run_cli("equal-reps", "--input", a, "--input", b)
    assert code == 0 and json.loads(out) == {"equal": True}
    code, out, _ = run_cli("equal-reps", "--input", a, "--input", c)
    assert code == 0 and json.loads(out) == {"equal": False}
    # utility sets over different outcome lists are not compared at all
    d = write(tmp_path, "d.json", {"outcomes": ["b", "a"], "utilities": [["0", "1"]]})
    code, out, err = run_cli("equal-reps", "--input", a, "--input", d)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == {
        "kind": "schema",
        "message": "utility sets must share one outcome list",
        "path": "outcomes",
    }


def test_monotone_check(tmp_path):
    doc = dict(CHAIN)
    doc["monotone"] = [["a", "b"], ["b", "c"]]
    data = write(tmp_path, "mono.json", doc)
    code, out, _ = run_cli("monotone-check", "--input", data, "--verify")
    assert code == 0
    assert json.loads(out) == {"all_increasing": True, "violations": []}


def test_monotone_check_reports_each_violating_utility(tmp_path, monkeypatch):
    # without the extension the chain's utilities are free to break a ranking pair
    monkeypatch.setattr(cli, "monotone_extend", lambda dataset, ranking: dataset)
    doc = dict(CHAIN)
    doc["monotone"] = [["a", "b"], ["b", "c"], ["c", "b"]]
    data = write(tmp_path, "mono.json", doc)
    assert run_cli("monotone-check", "--input", data) == (
        0,
        """{
  "all_increasing": false,
  "violations": [
    {
      "utility": [
        "0",
        "0",
        "-1"
      ],
      "pair": [
        "c",
        "b"
      ]
    }
  ]
}
""",
        "",
    )


def test_monotone_check_requires_section(tmp_path):
    data = write(tmp_path, "chain.json", CHAIN)
    code, _, err = run_cli("monotone-check", "--input", data)
    assert code == 1
    assert json.loads(err)["error"]["kind"] == "schema"


def test_decompose(tmp_path):
    data = write(
        tmp_path,
        "measure.json",
        {"outcomes": ["a", "b", "c"], "measure": {"a": "1/2", "c": "-1/2"}},
    )
    code, out, _ = run_cli("decompose", "--input", data, "--verify")
    assert code == 0
    assert json.loads(out) == {"alpha": "1/2", "p": {"a": "1"}, "q": {"c": "1"}}


def test_decompose_rejects_unbalanced(tmp_path):
    data = write(tmp_path, "measure.json", {"outcomes": ["a", "b"], "measure": {"a": "1/2"}})
    code, _, err = run_cli("decompose", "--input", data)
    assert code == 1
    assert json.loads(err)["error"]["kind"] == "validation"


LAB_CSV_12 = """\
n,generators,anchor,cost
1,1,OUT,0
2,3,OUT,1
3,7,OUT,2
4,15,OUT,3
5,31,OUT,4
6,63,OUT,5
7,127,OUT,6
8,255,OUT,7
9,511,OUT,8
10,1023,OUT,9
11,2047,OUT,10
12,4095,OUT,11
"""


def test_counterexample_csv():
    code, out, err = run_cli("counterexample", "--n", "4", "--verify")
    assert code == 0 and err == ""
    assert out == "n,generators,anchor,cost\n1,1,OUT,0\n2,3,OUT,1\n3,7,OUT,2\n4,15,OUT,3\n"
    # the full lab, rows 9-12 included, with and without the recheck
    for argv in (["--verify"], []):
        assert run_cli("counterexample", "--n", "12", *argv) == (0, LAB_CSV_12, "")


def test_counterexample_verify_rechecks_each_size_from_its_own_certificate(monkeypatch):
    built, certified = [], []
    build, anchor = counterexample.build_truncation, counterexample.anchor_membership

    def counted_build(n):
        built.append(n)
        return build(n)

    def counted_anchor(trunc):
        certified.append(trunc.n)
        return anchor(trunc)

    # count calls from every module that binds the functions, not only their home
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "multiutility"]:
        for attr, value in list(vars(module).items()):
            if value is build or value is anchor:
                monkeypatch.setattr(module, attr, counted_build if value is build else counted_anchor)
    assert run_cli("counterexample", "--n", "4", "--verify")[0] == 0
    assert built == certified == [1, 2, 3, 4]

    def fails_recheck(message):
        code, out, err = run_cli("counterexample", "--n", "4", "--verify")
        assert code == 1 and out == ""
        body = json.loads(err)["error"]
        assert body["kind"] == "verify" and body["message"] == message

    def certify_with(cert):
        monkeypatch.setattr(counterexample, "anchor_membership", lambda trunc: cert(trunc.n))

    # pays -2 + 2/|B| on g(B): 0 on singletons, -1 on g({b1, b2}) alone at n = 2
    certify_with(lambda n: cones.MembershipCertificate(cones.OUT, separator=(-1, *[1] * n, 1, *[-1] * n)))
    fails_recheck("anchor certificate at n=2 failed recheck")
    # pays 0 on the anchor
    certify_with(lambda n: cones.MembershipCertificate(cones.OUT, separator=(0,) * (2 * n + 2)))
    fails_recheck("anchor certificate at n=1 failed recheck")
    certify_with(lambda n: cones.MembershipCertificate(cones.IN, combination=()))
    fails_recheck("anchor certificate at n=1 failed recheck")
    # no separator, and one of the wrong length
    certify_with(lambda n: cones.MembershipCertificate(cones.OUT))
    fails_recheck("anchor certificate at n=1 failed recheck")
    certify_with(lambda n: cones.MembershipCertificate(cones.OUT, separator=(-1, *[n] * n, 1, *[-n] * n, 0)))
    fails_recheck("anchor certificate at n=1 failed recheck")

    monkeypatch.setattr(counterexample, "anchor_membership", anchor)
    monkeypatch.setattr(counterexample, "separation_cost", lambda trunc: Fraction(10 - trunc.n))
    fails_recheck("separation cost decreased at n=2")
    monkeypatch.setattr(counterexample, "separation_cost", lambda trunc: Fraction(0))
    fails_recheck("separation cost at n=2 violates its growth bound")


def test_counterexample_range():
    code, _, err = run_cli("counterexample", "--n", "0")
    assert code == 1
    assert json.loads(err)["error"]["kind"] == "validation"


def test_usage_wrong_input_count(tmp_path):
    data = write(tmp_path, "chain.json", CHAIN)
    code, _, err = run_cli("query", "--input", data)
    assert code == 2
    assert json.loads(err)["error"]["kind"] == "usage"


def test_usage_unknown_pin(tmp_path):
    data = write(tmp_path, "chain.json", CHAIN)
    code, _, err = run_cli("represent", "--input", data, "--pin", "zzz")
    assert code == 2
    assert json.loads(err)["error"]["kind"] == "usage"


def test_parse_error_carries_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"outcomes": ["a",\n "b" oops]}')
    code, _, err = run_cli("represent", "--input", str(path))
    assert code == 1
    body = json.loads(err)["error"]
    assert body["kind"] == "parse"
    assert body["line"] == 2 and "column" in body


@pytest.mark.parametrize(
    "content, reason",
    [(b"[" * 100_000 + b"]" * 100_000, "nested too deeply"), (b"\xff{}", "not UTF-8 (invalid start byte)")],
    ids=["deep", "latin"],
)
def test_undecodable_input_is_invalid_json(tmp_path, content, reason):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code, out, err = run_cli("represent", "--input", str(path))
    assert code == 1 and out == ""
    # not JSON, though without a position: kind parse, and no line or column keys
    assert json.loads(err)["error"] == {"kind": "parse", "message": f"invalid JSON in {path}: {reason}"}


@pytest.mark.parametrize("name", ["nonexistent.json", "."], ids=["missing", "directory"])
def test_unreadable_input_is_an_io_error(tmp_path, name):
    path = tmp_path / name
    code, out, err = run_cli("represent", "--input", str(path))
    assert code == 1 and out == ""
    body = json.loads(err)["error"]
    assert body["kind"] == "io" and set(body) == {"kind", "message"}
    assert body["message"].startswith(f"cannot read {path}: ")


def test_float_input_rejected_with_path(tmp_path):
    doc = {"outcomes": ["a", "b"], "prefers": [{"p": {"a": 0.5, "b": 0.5}, "q": {"b": 1}}]}
    data = write(tmp_path, "floats.json", doc)
    code, _, err = run_cli("represent", "--input", data)
    assert code == 1
    body = json.loads(err)["error"]
    assert body["kind"] == "schema"
    assert body["path"] == "prefers[0].p.a"


@pytest.mark.parametrize("text", list(REJECTED_RATIONALS.values()), ids=list(REJECTED_RATIONALS))
def test_rationals_outside_the_strict_grammar_are_schema_errors(tmp_path, text):
    doc = {"outcomes": ["a", "b"], "prefers": [{"p": {"a": text, "b": "1/2"}, "q": {"b": 1}}]}
    data = write(tmp_path, "lottery.json", doc)
    start = time.perf_counter()
    code, out, err = run_cli("represent", "--input", data)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    body = json.loads(err)["error"]
    assert body["kind"] == "schema" and body["path"] == "prefers[0].p.a"


def test_strict_rationals_are_still_accepted(tmp_path):
    for plus, minus in (("3/4", "-3/4"), ("2", "-2"), ("0", "0")):
        data = write(tmp_path, "m.json", {"outcomes": ["a", "b"], "measure": {"a": plus, "b": minus}})
        code, out, err = run_cli("decompose", "--input", data, "--verify")
        assert code == 0 and err == ""
        assert json.loads(out)["alpha"] == plus


def test_an_integer_past_the_digit_limit_is_a_parse_error(tmp_path, monkeypatch):
    text = '{"outcomes": ["a", "b"], "measure": {"a": %s, "b": -1}}' % ("7" * 5000)
    path = tmp_path / "long.json"
    path.write_text(text)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    for source in (str(path), "-"):
        code, out, err = run_cli("decompose", "--input", source)
        assert code == 1 and out == ""
        body = json.loads(err)["error"]
        assert body["kind"] == "parse" and set(body) == {"kind", "message"}
        assert body["message"].startswith(f"invalid JSON in {source}: an integer of 5000 digits is past ")
        assert "PYTHONINTMAXSTRDIGITS" in body["message"] and "set_int_max_str_digits" not in body["message"]


def test_an_answer_too_large_to_print_is_a_validation_error(tmp_path):
    # D1 and D2 are odd, two apart, so coprime; each has 3,001 digits, under the limit on input,
    # but the IN coefficient 2/(D1*D2) has a 6,001-digit denominator
    d1, d2 = 10**3000 + 1, 10**3000 + 3
    data = write(tmp_path, "ab.json", {"outcomes": ["a", "b"], "prefers": [{"p": {"a": 1}, "q": {"b": 1}}]})
    pair = {"p": {"a": f"1/{d1}", "b": f"{d1 - 1}/{d1}"}, "q": {"a": f"1/{d2}", "b": f"{d2 - 1}/{d2}"}}
    pair_path = tmp_path / "pair.json"
    pair_path.write_text(json.dumps(pair))
    start = time.perf_counter()
    code, out, err = run_cli("query", "--input", data, "--input", str(pair_path), "--verify")
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    body = json.loads(err)["error"]
    assert body["kind"] == "validation" and set(body) == {"kind", "message"}
    limit = sys.get_int_max_str_digits()
    assert body["message"].startswith(f"an integer of 6001 digits is past Python's limit of {limit} digits")
    assert "PYTHONINTMAXSTRDIGITS" in body["message"] and "set_int_max_str_digits" not in body["message"]


# D1 and D2 as above: 1/D1 + 1/D2 has a 6,001-digit denominator, past the limit, on inputs each under it
WIDE = {"a": f"1/{10**3000 + 1}", "b": f"1/{10**3000 + 3}"}


@pytest.mark.parametrize(
    "verb, doc, expected",
    [
        (
            "represent",
            {"outcomes": ["a", "b", "c"], "prefers": [{"p": WIDE, "q": {"c": 1}}]},
            {
                "kind": "schema",
                "message": "lottery mass must be exactly 1, got a rational of 6001 digits",
                "path": "prefers[0].p",
            },
        ),
        (
            "decompose",
            {"outcomes": ["a", "b"], "measure": WIDE},
            {"kind": "validation", "message": "entries must sum to 0, got a rational of 6001 digits"},
        ),
    ],
    ids=["lottery-mass", "zero-sum"],
)
def test_a_total_too_large_to_print_is_named_by_its_digits(tmp_path, verb, doc, expected):
    code, out, err = run_cli(verb, "--input", write(tmp_path, "in.json", doc))
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == expected


def test_unwritable_output_is_an_io_error(tmp_path):
    data = write(tmp_path, "chain.json", CHAIN)
    target = tmp_path / "missing" / "out.json"
    code, out, err = run_cli("represent", "--input", data, "--output", str(target))
    assert code == 1 and out == "" and not target.exists()
    body = json.loads(err)["error"]
    assert body["kind"] == "io" and body["message"].startswith(f"cannot write {target}: ")


@pytest.mark.parametrize("argv", [("represent", "--pin", "c", "--verify"), ("counterexample", "--n", "3")])
def test_output_file_gets_exactly_the_stdout_bytes(tmp_path, argv):
    if argv[0] == "represent":
        argv += ("--input", write(tmp_path, "chain.json", CHAIN))
    code, printed, err = run_cli(*argv)
    assert code == 0 and err == ""
    target = tmp_path / "out.txt"
    assert run_cli(*argv, "--output", str(target)) == (0, "", "")
    assert target.read_bytes() == printed.encode("utf-8")


def test_unknown_outcome_in_pair(tmp_path):
    data = write(tmp_path, "chain.json", CHAIN)
    pair = write(tmp_path, "pair.json", {"p": {"z": 1}, "q": {"a": 1}})
    code, _, err = run_cli("query", "--input", data, "--input", pair)
    assert code == 1
    assert json.loads(err)["error"]["kind"] == "schema"


def test_output_file_and_cross_process_determinism(tmp_path):
    data = write(tmp_path, "chain.json", CHAIN)
    blobs = []
    for name in ("one.json", "two.json"):
        target = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "multiutility",
                "represent",
                "--input",
                data,
                "--pin",
                "c",
                "--output",
                str(target),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == ""
        blobs.append(target.read_bytes())
    assert blobs[0] == blobs[1]
    assert json.loads(blobs[0])["pin"] == "c"


def test_module_entry_requires_verb():
    proc = subprocess.run(
        [sys.executable, "-m", "multiutility"], capture_output=True, text=True
    )
    assert proc.returncode == 2


def test_seed_flag_is_gone(tmp_path):
    data = write(tmp_path, "chain.json", CHAIN)
    with pytest.raises(SystemExit) as exc:
        run_cli("represent", "--input", data, "--seed", "0")
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["equal-reps", "--pin", "a"],
        ["equal-reps", "--verify"],
        ["decompose", "--pin", "a"],
        ["counterexample", "--n", "2", "--pin", "a"],
    ],
)
def test_flags_a_verb_does_not_offer_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2


def test_failed_recheck_is_an_internal_error(tmp_path, monkeypatch):
    monkeypatch.setattr(cones, "verify_membership", lambda *args: False)
    data = write(tmp_path, "chain.json", CHAIN)
    pair = write(tmp_path, "pair.json", {"p": {"a": 1}, "q": {"c": 1}})
    code, out, err = run_cli("query", "--input", data, "--input", pair)
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["kind"] == "internal"


def test_a_failed_lab_closed_form_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(counterexample, "verify_membership", lambda *args: False)
    code, out, err = run_cli("counterexample", "--n", "3")
    assert code == 1 and out == ""
    message = "anchor separator at n=1 failed its arithmetic recheck"
    assert json.loads(err)["error"] == {"kind": "internal", "message": message}


def test_represent_verify_checks_every_statement_exactly(tmp_path, monkeypatch):
    extract = cli.extract_representation

    def with_utility(values):
        return lambda dataset, pin: extract(dataset, pin)._replace(utilities=(values,))

    data = write(tmp_path, "chain.json", CHAIN)
    # a over b holds with equality, b over c strictly
    monkeypatch.setattr(cli, "extract_representation", with_utility((1, 1, 0)))
    assert run_cli("represent", "--input", data, "--pin", "c", "--verify")[0] == 0
    # a over b fails by 1
    monkeypatch.setattr(cli, "extract_representation", with_utility((2, 3, 0)))
    code, out, err = run_cli("represent", "--input", data, "--pin", "c", "--verify")
    assert code == 1 and out == ""
    body = json.loads(err)["error"]
    assert body["kind"] == "verify"
    assert body["message"] == (
        "statement Lottery({'a': '1'}) over Lottery({'b': '1'}) "
        "violated by extracted utility Utility(['2', '3', '0'])"
    )


def test_package_exports_no_submodules():
    assert "membership" in multiutility.__all__ and "CertificateError" in multiutility.__all__
    assert not [n for n in multiutility.__all__ if isinstance(getattr(multiutility, n), ModuleType)]


def test_classify_batch_verify_subtracts_and_clears_each_vector_once(tmp_path, monkeypatch):
    # operation counts, not times: one p - q and one clearing per pair; the utilities are integers already
    dataset = {
        "outcomes": ["a", "b", "c", "d"],
        "prefers": [
            {"p": {"a": 1}, "q": {"b": "1/2", "c": "1/2"}},
            {"p": {"b": "2/3", "d": "1/3"}, "q": {"c": 1}},
            {"p": {"c": "1/4", "d": "3/4"}, "q": {"a": "1/3", "d": "2/3"}},
        ],
    }
    queries = [
        ({"a": 1}, {"c": 1}),
        ({"c": 1}, {"a": 1}),
        ({"a": "1/2", "d": "1/2"}, {"b": 1}),
        ({"d": 1}, {"a": "1/5", "b": "4/5"}),
        ({"b": 1}, {"b": 1}),
        ({"a": "1/3", "b": "1/3", "c": "1/3"}, {"d": 1}),
        ({"a": 1}, {"b": "1/2", "c": "1/2"}),
    ]
    batch = {"queries": [{"p": p, "q": q} for p, q in queries]}
    inside, reps = [], []
    subtractions, clears, raw_vectors = [], [], []

    extract, sub = cli.extract_representation, Measure.__sub__
    clear, coerce = _linalg.clear_denominators, cones._coerce_vector

    def tracked_extract(*args):
        inside.append(True)
        reps.append(extract(*args))
        inside.pop()
        return reps[-1]

    def counted_sub(self, other):
        if not inside:
            subtractions.append(1)
        return sub(self, other)

    def counted_clear(a):
        if not inside:
            clears.append(a)
        return clear(a)

    def counted_coerce(x, dim):
        if not inside and not isinstance(x, _linalg.Cleared):
            raw_vectors.append(x)
        return coerce(x, dim)

    monkeypatch.setattr(cli, "extract_representation", tracked_extract)
    monkeypatch.setattr(Measure, "__sub__", counted_sub)
    for module in (cli, preferences):
        monkeypatch.setattr(module, "clear_denominators", counted_clear)
    monkeypatch.setattr(cones, "_coerce_vector", counted_coerce)
    data, pairs = write(tmp_path, "d.json", dataset), write(tmp_path, "q.json", batch)
    code, out, err = run_cli("classify-batch", "--input", data, "--input", pairs, "--verify")
    assert code == 0 and err == ""
    verdicts = json.loads(out)["verdicts"]
    assert len(verdicts) == len(queries) and len({v["classification"] for v in verdicts}) >= 3
    (rep,) = reps
    assert len(rep.utilities) >= 2
    assert len(subtractions) == len(queries)
    # one difference per pair, and no utility
    assert len(clears) == len(queries)
    # both membership calls and both rechecks take the cleared difference as it is
    assert raw_vectors == []


def _swapped(verdict):
    return verdict._replace(forward=verdict.backward, backward=verdict.forward)


@pytest.mark.parametrize(
    "doctor, message",
    [
        # certificates for q - p instead of p - q
        (lambda query, rep, diff: query(rep, -diff), "forward certificate failed recheck"),
        (lambda query, rep, diff: _swapped(query(rep, diff)), "forward certificate failed recheck"),
        (
            lambda query, rep, diff: query(rep, diff)._replace(classification="INCOMPARABLE"),
            "utility-by-utility classification disagrees with cone verdict",
        ),
        # a forward that rechecks, and a backward certificate for p - q instead of q - p
        (
            lambda query, rep, diff: query(rep, diff)._replace(backward=query(rep, diff).forward),
            "backward certificate failed recheck",
        ),
    ],
    ids=["sign-flipped", "swapped", "misclassified", "backward"],
)
def test_verify_rechecks_the_verdict_against_the_input_pair(tmp_path, monkeypatch, doctor, message):
    # the CLI clears the input's p - q itself and rechecks the query's answer on it
    query = cli._query_cleared
    monkeypatch.setattr(cli, "_query_cleared", lambda rep, diff: doctor(query, rep, diff))
    data = write(tmp_path, "chain.json", CHAIN)
    pair = write(tmp_path, "pair.json", {"p": {"a": 1}, "q": {"c": 1}})
    assert run_cli("query", "--input", data, "--input", pair)[0] == 0
    code, out, err = run_cli("query", "--input", data, "--input", pair, "--verify")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == {"kind": "verify", "message": message}
