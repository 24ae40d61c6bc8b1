import json
from fractions import Fraction

import pytest

from multiutility import jsonio as J
from multiutility.cones import cone_from_generators, membership
from multiutility.measures import Lottery, OutcomeSpace, Utility
from multiutility.preferences import extract_representation, query

ABC = {"outcomes": ["a", "b", "c"]}


def chain_doc():
    return {
        "outcomes": ["a", "b", "c"],
        "prefers": [
            {"p": {"a": 1}, "q": {"b": 1}},
            {"p": {"b": 1}, "q": {"c": 1}},
        ],
    }


def test_rational_round_trip():
    for f in (Fraction(3, 4), Fraction(-2), Fraction(0), Fraction(22, 7)):
        assert J.parse_rational(J.rational_to_str(f)) == f
    assert J.rational_to_str(Fraction(5)) == "5"
    assert J.parse_rational(7) == 7
    assert J.parse_rational("-1/2") == Fraction(-1, 2)


def test_rational_rejections():
    for bad in (0.5, True, False, "x/y", "1/0", [1], None, {}):
        with pytest.raises(J.SchemaError):
            J.parse_rational(bad)
    err = None
    try:
        J.parse_rational(0.5, path="prefers[0].p.a")
    except J.SchemaError as e:
        err = e
    assert err.path == "prefers[0].p.a"
    assert "float" in err.message


def test_parse_space():
    sp = J.parse_space(["a", "b"])
    assert sp.outcomes == ("a", "b")
    for bad in ([], ["a", "a"], "ab", [1], None):
        with pytest.raises(J.SchemaError):
            J.parse_space(bad)


def test_parse_lottery_paths():
    sp = OutcomeSpace(["a", "b"])
    assert J.parse_lottery({"a": "1/2", "b": "1/2"}, sp, "p").dense() == (Fraction(1, 2), Fraction(1, 2))
    cases = [
        ({"a": "1/2"}, "mass"),
        ({"a": 2, "b": -1}, "nonneg"),
        ({"z": 1}, "unknown"),
        ([1, 0], "mapping"),
    ]
    for obj, _ in cases:
        with pytest.raises(J.SchemaError):
            J.parse_lottery(obj, sp, "prefers[3].q")
    try:
        J.parse_lottery({"a": "1/2"}, sp, "prefers[3].q")
    except J.SchemaError as e:
        assert e.path == "prefers[3].q"


def test_parse_dataset():
    d, m = J.parse_dataset(chain_doc())
    assert len(d.statements) == 2
    assert m is None
    doc = chain_doc()
    doc["monotone"] = [["a", "b"], ["b", "c"]]
    d, m = J.parse_dataset(doc)
    assert m.pairs == (("a", "b"), ("b", "c"))


def test_parse_dataset_errors_carry_paths():
    doc = chain_doc()
    doc["prefers"][1]["q"] = {"c": "3/4"}
    with pytest.raises(J.SchemaError) as exc:
        J.parse_dataset(doc)
    assert exc.value.path == "prefers[1].q"
    with pytest.raises(J.SchemaError):
        J.parse_dataset({"prefers": []})
    bad_monotone = chain_doc()
    bad_monotone["monotone"] = [["a"]]
    with pytest.raises(J.SchemaError):
        J.parse_dataset(bad_monotone)
    unknown = chain_doc()
    unknown["monotone"] = [["a", "z"]]
    with pytest.raises(J.SchemaError):
        J.parse_dataset(unknown)


@pytest.mark.parametrize(
    "item, path, message",
    [
        ([{"a": 1}], "prefers[1]", "expected an object, got list"),
        ({"q": {"c": 1}}, "prefers[1].p", "missing key"),
        ({"p": {"b": 1}}, "prefers[1].q", "missing key"),
        # both keys are looked up before either lottery is parsed
        ({"p": {"b": "1/2"}}, "prefers[1].q", "missing key"),
    ],
    ids=["not-an-object", "no-p", "no-q", "bad-p-and-no-q"],
)
def test_parse_dataset_statement_errors(item, path, message):
    doc = chain_doc()
    doc["prefers"][1] = item
    with pytest.raises(J.SchemaError) as exc:
        J.parse_dataset(doc)
    assert (exc.value.kind, exc.value.path, exc.value.message) == ("schema", path, message)
    assert str(exc.value) == f"{path}: {message}"


def test_parse_query_pair():
    sp = OutcomeSpace(["a", "b"])
    p, q = J.parse_query_pair({"p": {"a": 1}, "q": {"b": 1}}, sp)
    assert p == Lottery.point_mass(sp, "a")
    assert q == Lottery.point_mass(sp, "b")
    with pytest.raises(J.SchemaError):
        J.parse_query_pair({"p": {"a": 1}}, sp)


def test_parse_utility_set():
    sp, utils = J.parse_utility_set({"outcomes": ["a", "b"], "utilities": [["1", "0"], ["1/2", "-2"]]})
    assert sp.outcomes == ("a", "b")
    assert [u.values for u in utils] == [(1, 0), (Fraction(1, 2), -2)]
    with pytest.raises(J.SchemaError):
        J.parse_utility_set({"outcomes": ["a", "b"], "utilities": []})
    with pytest.raises(J.SchemaError):
        J.parse_utility_set({"outcomes": ["a", "b"], "utilities": [["1"]]})


def test_representation_shape():
    d, _ = J.parse_dataset(chain_doc())
    rep = extract_representation(d, "c")
    obj = J.representation_to_json(rep)
    assert set(obj) == {"utilities", "cone", "pin"}
    assert obj["pin"] == "c"
    assert obj["utilities"] == [["1", "0", "0"], ["1", "1", "0"]]
    assert all(isinstance(v, int) for row in obj["cone"]["generators"] for v in row)


def test_certificate_shapes():
    c = cone_from_generators([(1, -1)])
    out = J.certificate_to_json(membership(c, (-1, 1)))
    assert out == {"verdict": "OUT", "separator": [1, -1]}
    inn = J.certificate_to_json(membership(c, (2, -2)))
    assert inn["verdict"] == "IN"
    assert inn["combination"] == [[0, "2"]]


def test_verdict_shape():
    d, _ = J.parse_dataset(chain_doc())
    rep = extract_representation(d, "c")
    v = query(rep, Lottery.point_mass(d.space, "a"), Lottery.point_mass(d.space, "c"))
    obj = J.verdict_to_json(v)
    assert obj["classification"] == "ENTAILED_ONLY"
    assert obj["forward"]["verdict"] == "IN"
    assert obj["backward"]["verdict"] == "OUT"


def test_measure_to_json_sparse_and_sorted():
    sp = OutcomeSpace(["c", "a", "b"])
    m = J.measure_to_json(Lottery.from_values(sp, ["1/2", 0, "1/2"]))
    assert m == {"b": "1/2", "c": "1/2"}
    assert list(m) == sorted(m)


def test_utility_json_round_trip():
    sp = OutcomeSpace(["a", "b"])
    assert J.utility_to_json((-2, 12)) == ["-2", "12"]
    assert J.parse_utility(J.utility_to_json((-2, 12)), sp, "u") == Utility(sp, ["-2", 12])


def test_dump_json_deterministic():
    obj = {"zeta": 1, "alpha": [1, 2], "mid": {"b": "1/2"}}
    first = J.dump_json(obj)
    assert first == J.dump_json(json.loads(first))
    assert first.endswith("\n")


def test_output_past_the_digit_limit_names_its_digits():
    # counted exactly without printing: 10**5000 has 5,001 digits, 10**5000 - 1 has 5,000
    for value, digits in ((10**5000, 5001), (-(10**5000) + 1, 5000)):
        for emit, arg in (
            (J.dump_json, {"separator": [0, [1, value]]}),
            (J.rational_to_str, Fraction(1, value)),
            (J.utility_to_json, (0, value)),
        ):
            with pytest.raises(ValueError) as exc:
                emit(arg)
            assert str(exc.value).startswith(f"an integer of {digits} digits is past ")
            assert "PYTHONINTMAXSTRDIGITS" in str(exc.value)


def test_load_json_errors(tmp_path):
    with pytest.raises(J.SchemaError):
        J.load_json(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text('{"outcomes": ["a",\n  "b" broken]}')
    with pytest.raises(J.SchemaError) as exc:
        J.load_json(str(bad))
    assert exc.value.line == 2
    assert exc.value.column is not None
    good = tmp_path / "good.json"
    good.write_text('{"k": [1, 2]}')
    assert J.load_json(str(good)) == {"k": [1, 2]}
