"""The record classes keep their constructors, repr, equality, hashing,
immutability and validation messages: Chart, CheckResult, Densities,
FieldConfig, FieldPairZ, SplitFields and VectorField are immutable, and
copy, deepcopy and pickle give each an equal value; Report and RunConfig
are mutable and unhashable."""

import copy
import pickle

import pytest

from premetric import (Chart, CheckResult, FieldConfig, FieldPairZ, Form, Report,
                       StructuralError, VectorField, basis_form)
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


PAIR_F, PAIR_G = basis_form(CH, (0, 1)), basis_form(CH, (2, 3), twist=True)


def _pair(F=PAIR_F, G=PAIR_G, z=2):
    return FieldPairZ(F, G, z)


def _densities(top):
    return Densities(Form.zero(CH, 3, True), top, top)


def _config(chart=CH, F=None):
    F = basis_form(chart, (0, 1), coefficient=chart.variable(2)) if F is None else F
    return FieldConfig(F, basis_form(chart, (2, 3), twist=True, coefficient=chart.variable(0)))


def _field(chart=CH, components=None):
    return VectorField(chart, [chart.variable(1), chart.const_poly(2), chart.zero_poly(),
                               chart.zero_poly()] if components is None else components)


RECORDS = {
    "chart": lambda: Chart(5, -1, True),
    "check": lambda: CheckResult(*ROW, "w"),
    "densities": lambda: _densities(basis_form(CH, (0, 1, 2, 3), twist=True)),
    "pair": _pair,
    "split": _split,
    "config": _config,
    "field": _field,
}


def _raises(error, make, message=None):
    with pytest.raises(error) as err:
        make()
    return message is None or str(err.value) == message


def _immutable(record, name):
    return _raises(AttributeError, lambda: setattr(record, name, None))


def _equal_and_hash_alike(make):
    a, b = make(), make()
    return a is not b and a == b and hash(a) == hash(b)


def _copies_equal(make):
    value = make()
    return all(type(c) is type(value) and c == value
               for c in (copy.copy(value), copy.deepcopy(value),
                         pickle.loads(pickle.dumps(value))))


CASES = {
    "chart-repr": lambda: repr(Chart(4)) == "Chart(n=4, orientation=1, complex_mode=False)",
    "chart-keywords": lambda: Chart(4, complex_mode=True) == Chart(4, 1, True),
    "check-witness-keyword": lambda: CheckResult(*ROW, witness="w").witness == "w",
    "check-witness-default": lambda: CheckResult(*ROW).witness == "",
    "report-repr": lambda: repr(Report("check", 1))
    == "Report(command='check', seed=1, checks=[])",
    "report-fresh-checks": lambda: Report("check", 1).checks is not Report("check", 1).checks,
    "pair-repr": lambda: repr(_pair())
    == f"FieldPairZ(F={PAIR_F!r}, G={PAIR_G!r}, z=Fraction(2, 1))",
    "run-config-fields": lambda: tuple(vars(RunConfig())) == RunConfig._fields,
    "run-config-keywords": lambda: RunConfig(seed=3) == RunConfig(4, seed=3) != RunConfig(),
    "chart-eq-hash": lambda: _equal_and_hash_alike(lambda: Chart(5, -1)),
    "chart-dict-key": lambda: {Chart(4): "a", Chart(4, -1): "b"}[Chart(4, 1, False)] == "a",
    "check-eq-hash": lambda: _equal_and_hash_alike(lambda: CheckResult(*ROW, "w")),
    "check-differs": lambda: CheckResult(*ROW) != CheckResult(*ROW, "w"),
    "densities-eq-hash": lambda: _equal_and_hash_alike(
        lambda: _densities(basis_form(CH, (0, 1, 2, 3), twist=True))),
    "pair-eq-hash": lambda: _equal_and_hash_alike(_pair),
    "pair-differs": lambda: _pair() != _pair(z=3),
    "config-eq-hash": lambda: _equal_and_hash_alike(_config),
    "config-other-chart": lambda: _config() != _config(Chart(4, -1)),
    "field-eq-hash": lambda: _equal_and_hash_alike(_field),
    "field-other-chart": lambda: _field() != _field(Chart(4, -1)),
    "split-eq-hash": lambda: _equal_and_hash_alike(_split),
    "report-unhashable": lambda: _raises(TypeError, lambda: hash(Report("check", 1))),
    "run-config-unhashable": lambda: _raises(TypeError, lambda: hash(RunConfig())),
    "chart-immutable": lambda: _immutable(CH, "n"),
    "check-immutable": lambda: _immutable(CheckResult(*ROW), "passed"),
    "densities-immutable": lambda: _immutable(_densities(Form.zero(CH, 4, True)), "sigma"),
    "pair-immutable": lambda: _immutable(_pair(), "F"),
    "pair-chart-read-only": lambda: _immutable(_pair(), "chart"),
    "split-immutable": lambda: _immutable(_split(), "E"),
    "config-immutable": lambda: _immutable(_config(), "F"),
    "config-derived-immutable": lambda: _immutable(_config(), "dF"),
    "field-immutable": lambda: _immutable(_field(), "components"),
    "field-rates-immutable": lambda: _immutable(_field(), "rates"),
    "chart-dimension": lambda: _raises(
        StructuralError, lambda: Chart(9), "chart dimension must be in 2..8, got 9"),
    "chart-orientation": lambda: _raises(
        StructuralError, lambda: Chart(4, 0), "orientation must be +1 or -1, got 0"),
    "pair-dimension": lambda: _raises(
        StructuralError, lambda: _pair(F=basis_form(Chart(3), (0, 1))),
        "field pairs need n = 2p, got n=3, p=2"),
    "pair-twist": lambda: _raises(
        StructuralError, lambda: _pair(F=PAIR_G, G=PAIR_F),
        "F must be an untwisted 2-form"),
    "pair-zero-z": lambda: _raises(StructuralError, lambda: _pair(z=0), "z must be nonzero"),
    "pair-chart-mismatch": lambda: _raises(
        StructuralError, lambda: _pair() == _pair(F=basis_form(Chart(4, -1), (0, 1)),
                                                  G=Form.zero(Chart(4, -1), 2, True)),
        "chart mismatch"),
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
    "config-degree": lambda: _raises(
        StructuralError, lambda: FieldConfig(basis_form(CH, (0, 1, 2, 3)), Form.zero(CH, 0, True)),
        "field degree must satisfy 1 <= p <= n-1, got p=4"),
    "config-twist": lambda: _raises(
        StructuralError, lambda: _config(F=PAIR_G), "F must be an untwisted 2-form"),
    "field-length": lambda: _raises(
        StructuralError, lambda: _field(components=[CH.zero_poly()] * 3),
        "expected 4 components, got 3"),
    "field-component": lambda: _raises(
        StructuralError, lambda: _field(components=[1] + [CH.zero_poly()] * 3),
        "component 0 is not a Polynomial: 1"),
    **{f"{name}-copies": lambda make=make: _copies_equal(make) for name, make in RECORDS.items()},
}


@pytest.mark.parametrize("case", CASES)
def test_record_classes_keep_their_behaviour(case):
    assert CASES[case]()
