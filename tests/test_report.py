"""report.residual_check: the one way a claim becomes a report row.

A claim is a residual form that must vanish, or a pair (lhs, rhs) of forms
that must be equal; a FAIL row's witness comes from the first failing
claim's residual, lhs - rhs for a pair.
"""

import pytest

from premetric import Chart, Form, StructuralError, basis_form
from premetric.report import CheckResult, residual_check

CH = Chart(3)
ZERO = Form.zero(CH, 2, False)
A = basis_form(CH, (0, 1), coefficient=CH.variable(2))
B = basis_form(CH, (1, 2)).scale(3)


def test_vanishing_residuals_pass_with_an_empty_witness():
    for residuals in ((ZERO,), (ZERO, ZERO), (ZERO, Form.zero(CH, 3, True))):
        assert (residual_check("r", "tag", "desc", *residuals)
                == CheckResult("r", "tag", "desc", True, ""))


def test_the_witness_comes_from_the_first_nonzero_residual():
    assert residual_check("r", "tag", "desc", ZERO, B) == CheckResult(
        "r", "tag", "desc", False, "(3)*dx1^dx2")
    assert residual_check("r", "tag", "desc", A, B).witness == "(x2)*dx0^dx1"
    assert residual_check("r", "tag", "desc", B, A).witness == "(3)*dx1^dx2"


def test_an_equal_pair_passes_without_forming_its_difference(monkeypatch):
    def no_difference(self, other):
        raise AssertionError("an equal pair formed its difference")

    lhs = (A + B) - B
    monkeypatch.setattr(Form, "__sub__", no_difference)
    for claims in (((lhs, A),), ((A, A), ZERO), ((ZERO, Form.zero(CH, 2, False)),)):
        assert (residual_check("r", "tag", "desc", *claims)
                == CheckResult("r", "tag", "desc", True, ""))


def test_an_unequal_pair_fails_with_the_witness_of_its_difference():
    assert residual_check("r", "tag", "desc", (A, A), (A, A - B)).witness == "(3)*dx1^dx2"
    assert residual_check("r", "tag", "desc", (B, A), A).witness == "(-x2)*dx0^dx1"
    assert residual_check("r", "tag", "desc", (ZERO, B)).witness == "(-3)*dx1^dx2"
    assert residual_check("r", "tag", "desc", (A, -A)).witness == "(2*x2)*dx0^dx1"


@pytest.mark.parametrize("other, message", [
    (Form.zero(Chart(4), 2, False), "chart mismatch"),
    (Form.zero(CH, 1, False), "degree mismatch: 2 vs 1"),
    (Form.zero(CH, 2, True), "twist parity mismatch"),
])
def test_a_pair_of_different_shapes_raises_as_its_difference_would(other, message):
    with pytest.raises(StructuralError, match=f"^{message}$"):
        A - other
    with pytest.raises(StructuralError, match=f"^{message}$"):
        residual_check("r", "tag", "desc", (A, other))
