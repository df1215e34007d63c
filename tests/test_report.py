"""report.residual_check: the one way a residual form becomes a report row."""

from premetric import Chart, Form, basis_form
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
