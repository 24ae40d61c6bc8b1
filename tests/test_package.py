"""The package surface: what importing it loads, and how its records behave.

Importing ``multiutility`` loads no module of the package; each public name
loads its module on first use.  The records are named tuples: they compare
and hash by value, like the tuple of their fields, refuse assignment, and
print as ``Name(field=value, ...)``.
"""
import ast
import os
import subprocess
import sys
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest

import multiutility
from multiutility import (
    OPTIMAL,
    LPResult,
    Lottery,
    MembershipCertificate,
    MonotoneStructure,
    OutcomeSpace,
    PreferenceDataset,
    SpaceMismatchError,
    UnknownOutcomeError,
    build_truncation,
    decompose,
    extract_representation,
    query,
)

SPACE = OutcomeSpace(["a", "b", "c"])
A, B, C = (Lottery.point_mass(SPACE, z) for z in "abc")
DATASET = PreferenceDataset(SPACE, ((A, B), (B, C)))
REP = extract_representation(DATASET, "c")


def modules_loaded_by(statement):
    """Modules that ``statement`` adds to sys.modules in a fresh interpreter."""
    script = f"import sys\nbefore = set(sys.modules)\n{statement}\nprint(sorted(set(sys.modules) - before))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout))


def test_importing_the_package_loads_none_of_its_modules():
    assert [m for m in modules_loaded_by("import multiutility") if m.startswith("multiutility")] == ["multiutility"]


def test_the_cli_loads_no_dataclasses_or_inspect():
    loaded = modules_loaded_by("import multiutility.cli")
    assert "multiutility.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_star_import_binds_each_name_to_its_defining_module():
    names = {}
    exec("from multiutility import *", names)
    for name in multiutility.__all__:
        home = import_module(f"multiutility.{multiutility._HOME[name]}")
        assert names[name] is getattr(home, name), name
        if callable(names[name]):
            assert names[name].__module__ == home.__name__, name
    assert "_HOME" not in names and "__version__" not in names


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        multiutility.__getattr__("no_such_name")
    assert not hasattr(multiutility, "no_such_name")


RECORDS = {
    "MembershipCertificate": (
        MembershipCertificate("OUT", separator=(1, -1)),
        "MembershipCertificate(verdict='OUT', combination=None, separator=(1, -1))",
    ),
    "LPResult": (
        LPResult(OPTIMAL, Fraction(1, 2), (Fraction(1, 2), Fraction(0)), (Fraction(-1),)),
        "LPResult(status='OPTIMAL', objective=Fraction(1, 2), solution=(Fraction(1, 2), Fraction(0, 1)), "
        "duals=(Fraction(-1, 1),))",
    ),
    "QueryVerdict": (
        query(REP, A, C),
        "QueryVerdict(classification='ENTAILED_ONLY', forward=MembershipCertificate(verdict='IN', "
        "combination=((0, Fraction(1, 1)), (1, Fraction(1, 1))), separator=None), "
        "backward=MembershipCertificate(verdict='OUT', combination=None, separator=(0, -1, -1)))",
    ),
    "Decomposition": (
        decompose(A - B),
        "Decomposition(alpha=Fraction(1, 1), plus=Lottery({'a': '1'}), minus=Lottery({'b': '1'}))",
    ),
    "TruncatedConstruction": (
        build_truncation(1),
        "TruncatedConstruction(n=1, space=OutcomeSpace(['a', 'b1', 'h(a)', 'h(b1)']), "
        "anchor=Measure({'a': '1', 'h(a)': '-1'}), "
        "generators=(Measure({'a': '1', 'b1': '1', 'h(a)': '-1', 'h(b1)': '-1'}),), "
        "cone=PolyhedralCone(dim=4, rays=[(1, 1, -1, -1)], lineality=[]))",
    ),
    "PreferenceDataset": (
        DATASET,
        "PreferenceDataset(space=OutcomeSpace(['a', 'b', 'c']), "
        "statements=((Lottery({'a': '1'}), Lottery({'b': '1'})), (Lottery({'b': '1'}), Lottery({'c': '1'}))))",
    ),
    "MonotoneStructure": (
        MonotoneStructure(SPACE, (("a", "b"),)),
        "MonotoneStructure(space=OutcomeSpace(['a', 'b', 'c']), pairs=(('a', 'b'),))",
    ),
    "Representation": (
        REP,
        "Representation(space=OutcomeSpace(['a', 'b', 'c']), "
        "utilities=((1, 0, 0), (1, 1, 0)), "
        "cone=PolyhedralCone(dim=3, rays=[(0, 1, -1), (1, -1, 0)], lineality=[]), "
        "dual=PolyhedralCone(dim=3, rays=[(0, -1, -1), (0, 0, -1)], lineality=[(1, 1, 1)]), pin='c')",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_values(name):
    record, text = RECORDS[name]
    assert type(record).__name__ == name and repr(record) == text
    copy = type(record)(*record)
    assert copy == record and hash(copy) == hash(record) == hash(tuple(record))
    # equal to the tuple of its fields, unequal once one field differs
    assert record == tuple(record) and record != (*record[:-1], object())
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])


def test_validating_records_still_raise():
    other = OutcomeSpace(["a", "b"])
    with pytest.raises(SpaceMismatchError):
        PreferenceDataset(other, ((A, B),))
    with pytest.raises(SpaceMismatchError):
        DATASET._replace(space=other)
    with pytest.raises(UnknownOutcomeError):
        MonotoneStructure(SPACE, (("a", "z"),))
    with pytest.raises(UnknownOutcomeError):
        MonotoneStructure(SPACE, ())._replace(pairs=(("z", "a"),))
