import json
import random
from fractions import Fraction
from pathlib import Path

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
from premetric.scalars import MAX_EXPONENT, Polynomial
from oracles import raw_factor

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


def test_complex_coefficients_print_one_pair_of_parentheses():
    # a round trip cannot tell "(1 + 2*i)*dx0" from "((1 + 2*i))*dx0",
    # so the printed text is pinned
    chart = Chart(4, complex_mode=True)
    for text, printed in (("(1 + 2*i)*dx0^dx1", "(1 + 2*i)*dx0^dx1"),
                          ("-(1/2 + i)*dx2^dx3", "(-(1/2 + i))*dx2^dx3"),
                          ("(x0 + i)*dx1", "(x0 + i)*dx1"),
                          ("((1 + i)*x0)*dx0^dx1", "((1 + i)*x0)*dx0^dx1"),
                          # opens and closes with a parenthesis, yet two groups
                          ("((1 + i)*x0 + 2 + i)*dx0", "((1 + i)*x0 + (2 + i))*dx0")):
        assert print_form(parse_form(text, chart)) == printed


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
                     Polynomial.constant(4, (1, value), True)):
            with pytest.raises(StructuralError) as e:
                poly_str(poly)
            assert f"more than {MAX_LITERAL_DIGITS} digits" in str(e.value)


# -- poly_str against an oracle written from Polynomial.terms -----------------


def _oracle_poly_str(p):
    """poly_str's bytes from the exponent tuples and Fractions of p.terms:
    monomials in descending exponent order, the sign of each coefficient's
    first nonzero part pulled out to the join, a unit body dropped before
    variables, and a mixed complex coefficient in one pair of
    parentheses."""
    terms = p.terms
    if not terms:
        return "0"
    out = ""
    for exps in sorted(terms, reverse=True):
        re, im = terms[exps] if p.complex_mode else (terms[exps], 0)
        neg = (re or im) < 0
        if neg:
            re, im = -re, -im
        if not im:
            body = str(re)
        else:
            unit = "i" if abs(im) == 1 else f"{abs(im)}*i"
            body = unit if not re else f"({re} {'+' if im > 0 else '-'} {unit})"
        variables = [f"x{k}" if e == 1 else f"x{k}^{e}" for k, e in enumerate(exps) if e]
        mono = "*".join(variables if body == "1" and variables else [body, *variables])
        if out:
            out += f" - {mono}" if neg else f" + {mono}"
        else:
            out = f"-{mono}" if neg else mono
    return out


def _grid_coefficient(rng, complex_mode):
    def rational():
        return rng.choice((1, -1, rng.randint(-50, 50) or 2,
                           Fraction(rng.randint(-30, 30) or 1, rng.randint(2, 12))))

    if not complex_mode:
        return rational()
    kind = rng.randrange(5)
    if kind == 0:
        return rational(), 0                  # pure real
    if kind == 1:
        return 0, rational()                  # pure imaginary
    if kind == 2:
        return 0, rng.choice((1, -1))         # +-i
    return rational(), rational()             # mixed


def test_poly_str_matches_an_oracle_from_terms():
    rng = random.Random("poly-str-oracle")
    for n in range(2, 9):
        for complex_mode in (False, True):
            assert poly_str(Polynomial.zero(n, complex_mode)) == "0"
            for _ in range(12):
                terms = {tuple(rng.choice((0, 0, 1, 2, rng.randint(3, MAX_EXPONENT),
                                           MAX_EXPONENT)) for _ in range(n)):
                         _grid_coefficient(rng, complex_mode)
                         for _ in range(rng.randint(1, 6))}
                p = Polynomial(n, terms, complex_mode)
                # a sum and a product leave a common factor for the first read
                q = p + p.scale(Fraction(rng.randint(1, 5), 6))
                r = p * Polynomial(n, {(0,) * n: _grid_coefficient(rng, complex_mode)},
                                   complex_mode)
                for poly in (p, q, r, p - p):
                    assert poly_str(poly) == _oracle_poly_str(poly)


# -- parse_polynomial against parse_form ---------------------------------------


LINEAR_LOCAL_POLY = Path(__file__).parent / "data" / "linear-local-poly.json"


def _chi_texts():
    raw = json.loads(LINEAR_LOCAL_POLY.read_text())
    return [text for row in raw["constitutive"]["chi"] for text in row]


@pytest.mark.parametrize("text", _chi_texts() + ["x0 - x0", "1/2*x1 - 1/2*x1", "0",
                                                 "(x0 + 1/2)^3 - x0^3"])
def test_parse_polynomial_is_the_degree_zero_component_of_parse_form(text):
    expected = parse_form(text, CH4, 0).components.get(()) or CH4.zero_poly()
    got = parse_polynomial(text, CH4)
    assert got == expected
    assert poly_str(got) == poly_str(expected)


@pytest.mark.parametrize("text", ["dx0", "x9", "1/0", "x0 +", "2*dx1^dx2"])
def test_parse_polynomial_refuses_as_parse_form_does(text):
    with pytest.raises(FormSyntaxError) as by_form:
        parse_form(text, CH4, 0)
    with pytest.raises(FormSyntaxError) as by_poly:
        parse_polynomial(text, CH4)
    assert ((by_poly.value.message, by_poly.value.line, by_poly.value.column)
            == (by_form.value.message, by_form.value.line, by_form.value.column))


def test_loading_a_polynomial_law_takes_no_gcd(monkeypatch):
    # the parser counts and sums raw slots, so reading a linear-local chi
    # of polynomial entries divides no common factor out
    from premetric import scalars
    from premetric.config import validate_config

    def refuse(self):
        raise AssertionError("loading the config reduced a polynomial")

    raw = json.loads(LINEAR_LOCAL_POLY.read_text())
    monkeypatch.setattr(scalars.Polynomial, "_reduce", refuse)
    cfg = validate_config(raw)
    assert any(raw_factor(p) > 1 for row in cfg.constitutive.chi for p in row)
