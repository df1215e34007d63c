import random
from fractions import Fraction

import pytest

from premetric.errors import FormSyntaxError
from premetric.formexpr import (
    parse_form,
    parse_polynomial,
    parse_vector_field,
    print_form,
    poly_str,
)
from premetric.forms import Chart, basis_form
from premetric.randgen import random_form
from premetric.scalars import Polynomial, Scalar

CH4 = Chart(4)


# (text, n, degree) -- every case must parse, print canonically, and reparse
CORPUS = [
    ("x2 * dx0^dx1", 4, 2),
    ("dx1^dx1", 4, 2),
    ("(x0^2 - 1/3) * dx1^dx2 + dx0^dx3", 4, 2),
    ("dx0", 4, 1),
    ("0", 4, 2),
    ("1", 4, 0),
    ("-1/2", 4, 0),
    ("x0", 4, 0),
    ("x0^3*x1", 4, 0),
    ("x0 + x1 + x2 + x3", 4, 0),
    ("-dx0^dx1", 4, 2),
    ("dx3^dx1", 4, 2),
    ("dx2^dx1^dx0", 4, 3),
    ("dx0^dx1^dx2^dx3", 4, 4),
    ("2*dx0 - 3*dx1", 4, 1),
    ("1/2*dx0^dx2", 4, 2),
    ("7/3 * x1 * dx3", 4, 1),
    ("(x1)*dx0", 4, 1),
    ("((x1))*dx0", 4, 1),
    ("(x0 + x1)*dx0^dx1", 4, 2),
    ("(2*x0^2 - x1*x2 + 5)*dx1^dx3", 4, 2),
    ("(1/2 + x3^4)*dx0 + (x0 - 1)*dx1 + dx2", 4, 1),
    ("x0*x1*x2*x3*dx0^dx1^dx2", 4, 3),
    ("dx0^dx1 + dx1^dx0", 4, 2),
    ("dx0^dx1 + (-1)*dx0^dx1", 4, 2),
    ("(-x2)*dx0^dx3", 4, 2),
    ("3*dx1^dx0 + 2*dx0^dx1", 4, 2),
    ("(x0^2)^2*dx1", 4, 1),
    ("x1 * dx0 + x0 * dx1", 2, 1),
    ("(x0 - x1)*dx0^dx1", 2, 2),
    ("5", 3, 0),
    ("dx0^dx2 + dx1^dx2 + dx0^dx1", 3, 2),
    ("1/5 * x2^2 * dx2", 3, 1),
]


def test_corpus_roundtrip():
    assert len(CORPUS) >= 30
    for text, n, degree in CORPUS:
        chart = Chart(n)
        form = parse_form(text, chart, degree)
        assert form.degree == degree
        printed = print_form(form)
        again = parse_form(printed, chart, degree)
        assert again == form, text
        # printing is idempotent: canonical output reprints identically
        assert print_form(again) == printed, text


def test_print_canonicalizes():
    f = parse_form("3*dx1^dx0 + 2*dx0^dx1", CH4, 2)
    assert print_form(f) == "(-1)*dx0^dx1"
    g = parse_form("dx3^dx1", CH4, 2)
    assert print_form(g) == "(-1)*dx1^dx3"
    assert print_form(parse_form("dx1^dx1", CH4, 2)) == "0"


def test_parse_spec_examples():
    f = parse_form("x2 * dx0^dx1", CH4, 2)
    assert f == basis_form(CH4, (0, 1), coefficient=CH4.variable(2))
    z = parse_form("dx1^dx1", CH4, 2)
    assert z.is_zero() and z.degree == 2
    g = parse_form("(x0^2 - 1/3) * dx1^dx2 + dx0^dx3", CH4, 2)
    assert len(g.components) == 2
    assert parse_form(print_form(g), CH4, 2) == g


def test_twist_flag_passthrough():
    f = parse_form("dx0^dx1", CH4, 2, twist=True)
    assert f.twist
    assert f == basis_form(CH4, (0, 1), twist=True)


def test_degree_inference():
    f = parse_form("dx0^dx1 + dx2^dx3", CH4)
    assert f.degree == 2
    with pytest.raises(FormSyntaxError):
        parse_form("dx0 + dx1^dx2", CH4)


def test_error_positions():
    with pytest.raises(FormSyntaxError) as e:
        parse_form("dx0 +\n dx9", CH4, 1)
    assert e.value.line == 2 and e.value.column == 2
    with pytest.raises(FormSyntaxError) as e:
        parse_form("x0 * dx0 * dx1", CH4, 1)
    assert e.value.line == 1
    with pytest.raises(FormSyntaxError):
        parse_form("", CH4, 1)
    with pytest.raises(FormSyntaxError):
        parse_form("dx0 ^", CH4, 1)
    with pytest.raises(FormSyntaxError):
        parse_form("(x0", CH4, 0)
    with pytest.raises(FormSyntaxError):
        parse_form("x0 @ dx1", CH4, 1)
    with pytest.raises(FormSyntaxError):
        parse_form("1/0 * dx0", CH4, 1)
    with pytest.raises(FormSyntaxError):
        parse_form("x0^x1", CH4, 0)


def test_exponent_limit_is_a_positioned_syntax_error():
    from premetric.scalars import MAX_EXPONENT
    p = parse_polynomial(f"x1^{MAX_EXPONENT}", CH4)
    assert p.degree() == MAX_EXPONENT
    with pytest.raises(FormSyntaxError) as e:
        parse_form(f"dx0 +\n (x1 - 2)^{MAX_EXPONENT + 1}*dx2", CH4, 1)
    assert (e.value.line, e.value.column) == (2, 11)
    assert f"exceeds the limit {MAX_EXPONENT}" in e.value.message


def test_degree_mismatch_reported_per_term():
    with pytest.raises(FormSyntaxError) as e:
        parse_form("dx0^dx1 + dx2", CH4, 2)
    assert "degree" in str(e.value)
    with pytest.raises(FormSyntaxError):
        parse_form("dx1^dx1", CH4, 1)   # repeated index still has degree 2
    with pytest.raises(FormSyntaxError):
        parse_form("x0", CH4, 1)


def test_index_range_checks():
    with pytest.raises(FormSyntaxError):
        parse_form("dx4", CH4, 1)
    with pytest.raises(FormSyntaxError):
        parse_form("x4 * dx0", CH4, 1)
    with pytest.raises(FormSyntaxError):
        parse_form("dx2", Chart(2), 1)


def test_whitespace_insensitive():
    a = parse_form("x2*dx0^dx1", CH4, 2)
    b = parse_form("  x2 \n * dx0 ^ dx1 ", CH4, 2)
    assert a == b


def test_zero_form_matches_any_degree():
    for degree in range(4):
        z = parse_form("0", CH4, degree)
        assert z.is_zero() and z.degree == degree


def test_vector_field_parsing():
    u = parse_vector_field("dx0 + x1*dx2", CH4)
    assert u.components[0] == CH4.const_poly(1)
    assert u.components[2] == CH4.variable(1)
    assert u.components[1].is_zero() and u.components[3].is_zero()


def test_polynomial_parsing():
    p = parse_polynomial("x1^2 - 1/2", CH4)
    assert p == CH4.variable(1) * CH4.variable(1) - CH4.const_poly(Fraction(1, 2))
    assert parse_polynomial("0", CH4).is_zero()


def test_complex_mode_literals():
    chart = Chart(4, complex_mode=True)
    f = parse_form("(1 + 2*i)*dx0^dx1 + i*dx2^dx3", chart, 2)
    printed = print_form(f)
    assert parse_form(printed, chart, 2) == f
    with pytest.raises(FormSyntaxError):
        parse_form("i*dx0", CH4, 1)   # no imaginary unit on real charts


def test_random_roundtrip():
    rng = random.Random(501)
    for _ in range(40):
        n = rng.randint(2, 5)
        chart = Chart(n, complex_mode=bool(rng.randrange(2)))
        degree = rng.randint(0, n)
        form = random_form(rng, chart, degree, bool(rng.randrange(2)), 3)
        printed = print_form(form)
        again = parse_form(printed, chart, degree, twist=form.twist)
        assert again == form
        assert print_form(again) == printed


def test_poly_str_zero():
    assert poly_str(Polynomial.zero(3)) == "0"


def test_integer_literal_limit_is_a_positioned_syntax_error():
    from premetric.formexpr import MAX_LITERAL_DIGITS
    longest = "9" * MAX_LITERAL_DIGITS
    assert parse_polynomial(longest, CH4) == CH4.const_poly(int(longest))
    over = "1" * (MAX_LITERAL_DIGITS + 1)
    for text, column in ((f"{over}*dx0", 1), (f"dx0 + 1/{over}*dx1", 9),
                         (f"dx0 + x{over}*dx1", 7), (f"dx{over}", 1)):
        with pytest.raises(FormSyntaxError) as e:
            parse_form(text, CH4, 1)
        assert (e.value.line, e.value.column) == (1, column)
        assert (f"integer literal of {MAX_LITERAL_DIGITS + 1} digits exceeds "
                f"the limit {MAX_LITERAL_DIGITS}") in e.value.message


def test_only_ascii_digits_form_numbers():
    # str.isdigit() accepts superscripts and other scripts' digits, which
    # int() then refuses or reads differently
    for text in ("²*dx0", "x²*dx0", "dx٣", "٣*dx0"):
        with pytest.raises(FormSyntaxError) as e:
            parse_form(text, CH4, 1)
        assert e.value.line == 1


def test_term_pair_limit_is_a_positioned_syntax_error():
    import time
    from premetric.formexpr import MAX_TERM_PAIRS
    ch8 = Chart(8)
    start = time.monotonic()
    with pytest.raises(FormSyntaxError) as e:
        parse_polynomial("(x0+x1+x2+x3+x4+x5+x6+x7+1)^20", ch8)
    assert time.monotonic() - start < 1.0
    assert (e.value.line, e.value.column) == (1, 29)          # the exponent
    # (...)^9 has 12870 terms; times 9 is the first step past the limit
    assert e.value.message == (f"product of 12870 by 9 terms exceeds the limit "
                               f"of {MAX_TERM_PAIRS} term pairs")
    big = "(x0+x1+x2+x3+x4+x5+x6+x7+1)^5"                     # 1287 terms
    with pytest.raises(FormSyntaxError) as e:
        parse_form(f"dx0 + {big} * {big}*dx1", ch8, 1)
    assert (e.value.line, e.value.column) == (1, 37)          # the '*'
    assert "product of 1287 by 1287 terms" in e.value.message
    # below the limit, powers and products still expand in full
    assert len(parse_polynomial("(x0+x1+x2+x3+1/2)^12", CH4).nums) == 1820
    # every monomial of degree <= 5, plus x0 times each one of degree 5
    assert len(parse_polynomial(f"{big}*(x0+1)", ch8).nums) == 1287 + 792


def test_printer_refuses_what_the_parser_cannot_read():
    from premetric.errors import StructuralError
    from premetric.formexpr import MAX_LITERAL_DIGITS
    longest = 10 ** MAX_LITERAL_DIGITS - 1
    for value in (longest, Fraction(1, longest)):
        poly = CH4.const_poly(value) * CH4.variable(1)
        assert parse_polynomial(poly_str(poly), CH4) == poly
    for value in (10 ** MAX_LITERAL_DIGITS, Fraction(1, 10 ** MAX_LITERAL_DIGITS)):
        for poly in (CH4.const_poly(value), -CH4.const_poly(value),
                     Polynomial.constant(4, Scalar(1, value), True)):
            with pytest.raises(StructuralError) as e:
                poly_str(poly)
            assert f"more than {MAX_LITERAL_DIGITS} digits" in str(e.value)
