"""The record classes keep their constructors, repr, equality, hashing,
immutability and validation messages: Chart, CheckResult, Densities and
SplitFields are immutable; Report and RunConfig are mutable and unhashable."""

import pytest

from premetric import Chart, CheckResult, Form, Report, StructuralError, basis_form
from premetric.config import RunConfig
from premetric.electrodynamics import Densities, SplitFields

CH = Chart(4)
ROW = ("conservation-0000", "en-mom", "d(sigma_u) = f_u + phi_u", False)
SPLIT_KINDS = {"E": (1, False), "B": (2, False), "H": (1, True), "D": (2, True),
               "j": (2, True), "rho": (3, True)}


def _split(**replaced):
    fields = {name: Form.zero(CH, degree, twist)
              for name, (degree, twist) in SPLIT_KINDS.items()}
    return SplitFields(**{**fields, **replaced})


def _densities(top):
    return Densities(Form.zero(CH, 3, True), top, top)


def _raises(error, make, message=None):
    with pytest.raises(error) as err:
        make()
    return message is None or str(err.value) == message


def _immutable(record, name):
    return _raises(AttributeError, lambda: setattr(record, name, None))


def _equal_and_hash_alike(make):
    a, b = make(), make()
    return a is not b and a == b and hash(a) == hash(b)


CASES = {
    "chart-repr": lambda: repr(Chart(4)) == "Chart(n=4, orientation=1, complex_mode=False)",
    "chart-keywords": lambda: Chart(4, complex_mode=True) == Chart(4, 1, True),
    "check-witness-keyword": lambda: CheckResult(*ROW, witness="w").witness == "w",
    "check-witness-default": lambda: CheckResult(*ROW).witness == "",
    "report-repr": lambda: repr(Report("check", 1))
    == "Report(command='check', seed=1, checks=[])",
    "report-fresh-checks": lambda: Report("check", 1).checks is not Report("check", 1).checks,
    "run-config-fields": lambda: tuple(vars(RunConfig())) == RunConfig._fields,
    "run-config-keywords": lambda: RunConfig(seed=3) == RunConfig(4, seed=3) != RunConfig(),
    "chart-eq-hash": lambda: _equal_and_hash_alike(lambda: Chart(5, -1)),
    "chart-dict-key": lambda: {Chart(4): "a", Chart(4, -1): "b"}[Chart(4, 1, False)] == "a",
    "check-eq-hash": lambda: _equal_and_hash_alike(lambda: CheckResult(*ROW, "w")),
    "check-differs": lambda: CheckResult(*ROW) != CheckResult(*ROW, "w"),
    "densities-eq-hash": lambda: _equal_and_hash_alike(
        lambda: _densities(basis_form(CH, (0, 1, 2, 3), twist=True))),
    "split-eq-hash": lambda: _equal_and_hash_alike(_split),
    "report-unhashable": lambda: _raises(TypeError, lambda: hash(Report("check", 1))),
    "run-config-unhashable": lambda: _raises(TypeError, lambda: hash(RunConfig())),
    "chart-immutable": lambda: _immutable(CH, "n"),
    "check-immutable": lambda: _immutable(CheckResult(*ROW), "passed"),
    "densities-immutable": lambda: _immutable(_densities(Form.zero(CH, 4, True)), "sigma"),
    "split-immutable": lambda: _immutable(_split(), "E"),
    "chart-dimension": lambda: _raises(
        StructuralError, lambda: Chart(9), "chart dimension must be in 2..8, got 9"),
    "chart-orientation": lambda: _raises(
        StructuralError, lambda: Chart(4, 0), "orientation must be +1 or -1, got 0"),
    "split-dimension": lambda: _raises(
        StructuralError, lambda: SplitFields(*[Form.zero(Chart(3), 1)] * 6),
        "3+1 split needs a 4-dimensional chart"),
    "split-chart": lambda: _raises(
        StructuralError, lambda: _split(D=Form.zero(Chart(4, -1), 2, True)),
        "D: chart mismatch"),
    "split-kind": lambda: _raises(
        StructuralError, lambda: _split(H=Form.zero(CH, 1)), "H must be a twisted 1-form"),
    "split-spatial": lambda: _raises(
        StructuralError, lambda: _split(j=basis_form(CH, (0, 1), twist=True)),
        "j must be spatial (no dx0 factor)"),
}


@pytest.mark.parametrize("case", CASES)
def test_record_classes_keep_their_behaviour(case):
    assert CASES[case]()
