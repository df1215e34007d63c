"""Pinned parser diagnostics: every message and position, byte for byte.

Each malformed input below is stored with the exact FormSyntaxError
message and 1-based line:column it raises, or the exact StructuralError
message (which has no position) for exponents that leave the packed
monomial range.  The corpus covers the tokenizer (bad characters, `d`
without `x`, `x` without digits, over-long digit runs), atoms (zero
denominators, `i` on real charts, out-of-range indices, exponents over
127), the product exponent guard (including products that reach the
limit through a zero factor), the term-pair limit at `*` and at `^`
(counted on canonical operands, so summands that cancel do not count),
degree mismatches, multi-line input and trailing input, and the order in
which errors win when an input has several, and parentheses nested past
MAX_NESTING, which are refused at the `(` that passes the limit, before
the parser could recurse past Python's limit.  A second list pins the
canonical result of accepted inputs at the same edges.
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from premetric import cli
from premetric.config import validate_config
from premetric.errors import FormSyntaxError, StructuralError
from premetric.formexpr import MAX_LITERAL_DIGITS, MAX_NESTING, parse_form, print_form
from premetric.forms import Chart

OVER = "1" * (MAX_LITERAL_DIGITS + 1)
FAR = "9" * (MAX_LITERAL_DIGITS + 899)
S8 = "(x0+x1+x2+x3+x4+x5+x6+x7+1)"
A = S8 + "^5"                                  # 1287 terms
A0 = "(" + S8 + "^5 + x0^9 - x0^9)"           # the same 1287 terms


def nested(depth, body="x0"):
    return "(" * depth + body + ")" * depth


DEEP = nested(300)                             # past Python's recursion limit

# (text, n, complex_mode, expected_degree, error kind, message, line, column)
MALFORMED = [
    ("x0 @ dx1", 4, False, 1,
     'syntax', "unexpected character '@'", 1, 4),
    ("dx0 +\n  # dx1", 4, False, 1,
     'syntax', "unexpected character '#'", 2, 3),
    ("\tdx0\v", 4, False, 1,
     'syntax', "unexpected character '\\x0b'", 1, 5),
    ("dx0 ; dx1", 4, False, 1,
     'syntax', "unexpected character ';'", 1, 5),
    ("1.5*dx0", 4, False, 1,
     'syntax', "unexpected character '.'", 1, 2),
    ("dy0", 4, False, 1,
     'syntax', "expected 'dx<index>'", 1, 1),
    ("dx", 4, False, 1,
     'syntax', "expected 'dx<index>'", 1, 1),
    ("dxa", 4, False, 1,
     'syntax', "expected 'dx<index>'", 1, 1),
    ("d", 4, False, 1,
     'syntax', "expected 'dx<index>'", 1, 1),
    ("2*d x0", 4, False, 1,
     'syntax', "expected 'dx<index>'", 1, 3),
    ("Dx0", 4, False, 1,
     'syntax', "unexpected character 'D'", 1, 1),
    ("x", 4, False, 0,
     'syntax', "expected coordinate 'x<index>'", 1, 1),
    ("xx0", 4, False, 0,
     'syntax', "expected coordinate 'x<index>'", 1, 1),
    ("2*x + dx0", 4, False, None,
     'syntax', "expected coordinate 'x<index>'", 1, 3),
    ("x_1", 4, False, 0,
     'syntax', "expected coordinate 'x<index>'", 1, 1),
    ("²*dx0", 4, False, 1,
     'syntax', "unexpected character '²'", 1, 1),
    ("٣*dx0", 4, False, 1,
     'syntax', "unexpected character '٣'", 1, 1),
    ("x²*dx0", 4, False, 1,
     'syntax', "expected coordinate 'x<index>'", 1, 1),
    ("dx٣", 4, False, 1,
     'syntax', "expected 'dx<index>'", 1, 1),
    ("I*dx0", 4, True, 1,
     'syntax', "unexpected character 'I'", 1, 1),
    (OVER, 4, False, 0,
     'syntax', 'integer literal of 4301 digits exceeds the limit 4300', 1, 1),
    (OVER + "*dx0", 4, False, 1,
     'syntax', 'integer literal of 4301 digits exceeds the limit 4300', 1, 1),
    ("dx0 + 1/" + OVER + "*dx1", 4, False, 1,
     'syntax', 'integer literal of 4301 digits exceeds the limit 4300', 1, 9),
    ("dx0 + x" + OVER + "*dx1", 4, False, 1,
     'syntax', 'integer literal of 4301 digits exceeds the limit 4300', 1, 7),
    ("dx" + OVER, 4, False, 1,
     'syntax', 'integer literal of 4301 digits exceeds the limit 4300', 1, 1),
    ("dx0 +\n  " + FAR, 4, False, None,
     'syntax', 'integer literal of 5199 digits exceeds the limit 4300', 2, 3),
    ("x0^" + OVER, 4, False, 0,
     'syntax', 'integer literal of 4301 digits exceeds the limit 4300', 1, 4),
    ("1/0", 4, False, 0,
     'syntax', 'zero denominator', 1, 1),
    ("1/0*dx0", 4, False, 1,
     'syntax', 'zero denominator', 1, 1),
    ("dx0 + 3/00*dx1", 4, False, 1,
     'syntax', 'zero denominator', 1, 7),
    ("-(x0 + 1/0)", 4, False, 0,
     'syntax', 'zero denominator', 1, 8),
    ("(2 + i/0)*dx1", 4, True, 1,
     'syntax', "expected ')'", 1, 7),
    ("i", 4, False, 0,
     'syntax', 'imaginary unit needs a complex-mode chart', 1, 1),
    ("i*dx0", 4, False, 1,
     'syntax', 'imaginary unit needs a complex-mode chart', 1, 1),
    ("(1 + i)*dx0^dx1", 4, False, 2,
     'syntax', 'imaginary unit needs a complex-mode chart', 1, 6),
    ("dx0 - 2*x1*i*dx1", 4, False, 1,
     'syntax', 'imaginary unit needs a complex-mode chart', 1, 12),
    ("dx4", 4, False, 1,
     'syntax', 'index 4 out of range for n=4', 1, 1),
    ("x4", 4, False, 0,
     'syntax', 'index 4 out of range for n=4', 1, 1),
    ("x9 * dx0", 4, False, 1,
     'syntax', 'index 9 out of range for n=4', 1, 1),
    ("dx0^dx7", 4, False, 2,
     'syntax', 'index 7 out of range for n=4', 1, 5),
    ("x00004", 4, False, 0,
     'syntax', 'index 4 out of range for n=4', 1, 1),
    ("dx2", 2, False, 1,
     'syntax', 'index 2 out of range for n=2', 1, 1),
    ("x2", 2, False, 0,
     'syntax', 'index 2 out of range for n=2', 1, 1),
    ("dx0 + x99999999999999999999*dx1", 4, False, 1,
     'syntax', 'index 99999999999999999999 out of range for n=4', 1, 7),
    ("x0^128", 4, False, 0,
     'syntax', 'exponent 128 exceeds the limit 127', 1, 4),
    ("dx0 +\n (x1 - 2)^128*dx2", 4, False, 1,
     'syntax', 'exponent 128 exceeds the limit 127', 2, 11),
    ("2^128", 4, False, 0,
     'syntax', 'exponent 128 exceeds the limit 127', 1, 3),
    ("x0^0128", 4, False, 0,
     'syntax', 'exponent 128 exceeds the limit 127', 1, 4),
    ("i^999999", 4, True, 0,
     'syntax', 'exponent 999999 exceeds the limit 127', 1, 3),
    ("x0^100*x0^100", 4, False, 0,
     'structural', 'product exponent exceeds the limit 127', None, None),
    ("(x0^100)^2", 4, False, 0,
     'structural', 'product exponent exceeds the limit 127', None, None),
    ("x0^64*x0^64", 4, False, 0,
     'structural', 'product exponent exceeds the limit 127', None, None),
    ("x0^127*x0", 4, False, 0,
     'structural', 'product exponent exceeds the limit 127', None, None),
    ("x0*x0^127*dx1", 4, False, 1,
     'structural', 'product exponent exceeds the limit 127', None, None),
    ("x3^64^2", 4, False, 0,
     'syntax', 'unexpected trailing input', 1, 6),
    ("(x1^64)^2*dx0", 4, False, 1,
     'structural', 'product exponent exceeds the limit 127', None, None),
    ("(x0^64 + x1)^2", 4, False, 0,
     'structural', 'product exponent exceeds the limit 127', None, None),
    ("x0^100*(x0^100 + 1)", 4, False, 0,
     'structural', 'product exponent exceeds the limit 127', None, None),
    ("(x0 + 1)*x0^127", 4, False, 0,
     'structural', 'product exponent exceeds the limit 127', None, None),
    ("(x0^100 + x1)*(x1 + x0^28)", 4, False, 0,
     'structural', 'product exponent exceeds the limit 127', None, None),
    ("x0^100*x0^100*0", 4, False, 0,
     'structural', 'product exponent exceeds the limit 127', None, None),
    ("i*x2^100*x2^28*dx0", 4, True, 1,
     'structural', 'product exponent exceeds the limit 127', None, None),
    ("x0^100*x0^100 + x9", 4, False, 0,
     'structural', 'product exponent exceeds the limit 127', None, None),
    ("x9 + x0^100*x0^100", 4, False, 0,
     'syntax', 'index 9 out of range for n=4', 1, 1),
    ("x0^100*x0^100 + @", 4, False, 0,
     'syntax', "unexpected character '@'", 1, 17),
    (S8 + "^20", 8, False, 0,
     'syntax', 'product of 12870 by 9 terms exceeds the limit of 100000 term pairs', 1, 29),
    ("(x0+x1+x2+x3+x4+x5+x6+x7+1+x0^50-x0^50)^20", 8, False, 0,
     'syntax', 'product of 12870 by 9 terms exceeds the limit of 100000 term pairs', 1, 41),
    ("dx0 + " + A + " * " + A + "*dx1", 8, False, 1,
     'syntax', 'product of 1287 by 1287 terms exceeds the limit of 100000 term pairs', 1, 37),
    (A0 + "*" + A, 8, False, 0,
     'syntax', 'product of 1287 by 1287 terms exceeds the limit of 100000 term pairs', 1, 46),
    (A + "*(x0 + 1)*" + A, 8, False, 0,
     'syntax', 'product of 2079 by 1287 terms exceeds the limit of 100000 term pairs', 1, 39),
    ("x1*" + A + "*x2*" + A, 8, False, 0,
     'syntax', 'product of 1287 by 1287 terms exceeds the limit of 100000 term pairs', 1, 36),
    ("(" + A + "*(x0+x1) - " + A + "*x1)*" + A, 8, False, 0,
     'syntax', 'product of 1287 by 1287 terms exceeds the limit of 100000 term pairs', 1, 75),
    ("(" + S8 + "^6)^2", 8, True, 0,
     'syntax', 'product of 3003 by 3003 terms exceeds the limit of 100000 term pairs', 1, 33),
    ("dx0^dx1 + dx2", 4, False, 2,
     'syntax', 'degree mismatch: term has degree 1, expected 2', 1, 11),
    ("dx0 + dx1^dx2", 4, False, None,
     'syntax', 'degree mismatch: term has degree 2, expected 1', 1, 7),
    ("dx1^dx1", 4, False, 1,
     'syntax', 'degree mismatch: term has degree 2, expected 1', 1, 1),
    ("x0", 4, False, 1,
     'syntax', 'degree mismatch: term has degree 0, expected 1', 1, 1),
    ("x0*dx0 + x1", 4, False, 1,
     'syntax', 'degree mismatch: term has degree 0, expected 1', 1, 10),
    ("0 + x0", 4, False, 1,
     'syntax', 'degree mismatch: term has degree 0, expected 1', 1, 5),
    ("dx0 - 3", 4, False, None,
     'syntax', 'degree mismatch: term has degree 0, expected 1', 1, 7),
    ("x0 - x0 + dx1", 4, False, None,
     'syntax', 'degree mismatch: term has degree 1, expected 0', 1, 11),
    ("(x0 - x1)*dx0 + dx1^dx2", 4, False, None,
     'syntax', 'degree mismatch: term has degree 2, expected 1', 1, 17),
    ("dx0^dx0 + dx1", 4, False, 2,
     'syntax', 'degree mismatch: term has degree 1, expected 2', 1, 11),
    ("x0 + dx0 + x9", 4, False, 1,
     'syntax', 'index 9 out of range for n=4', 1, 12),
    ("dx0^dx1 + dx2 + 1/0", 4, False, 2,
     'syntax', 'zero denominator', 1, 17),
    ("dx0 +\n dx9", 4, False, 1,
     'syntax', 'index 9 out of range for n=4', 2, 2),
    ("dx0\n+\n\tx0^128", 4, False, 1,
     'syntax', 'exponent 128 exceeds the limit 127', 3, 5),
    ("\n\n  @", 4, False, 1,
     'syntax', "unexpected character '@'", 3, 3),
    ("1 +\r\n x5", 4, False, 0,
     'syntax', 'index 5 out of range for n=4', 2, 2),
    ("dx0 +\n\n   dx1^dx2", 4, False, 1,
     'syntax', 'degree mismatch: term has degree 2, expected 1', 3, 4),
    ("(x0 +\n x1)*dx0 + x2\n", 4, False, 1,
     'syntax', 'degree mismatch: term has degree 0, expected 1', 2, 12),
    ("dx0 dx1", 4, False, 1,
     'syntax', 'unexpected trailing input', 1, 5),
    ("x0 x1", 4, False, 0,
     'syntax', 'unexpected trailing input', 1, 4),
    ("dx0)", 4, False, 1,
     'syntax', 'unexpected trailing input', 1, 4),
    ("(x0))", 4, False, 0,
     'syntax', 'unexpected trailing input', 1, 5),
    ("2^3^4", 4, False, 0,
     'syntax', 'unexpected trailing input', 1, 4),
    ("1/x0", 4, False, 0,
     'syntax', 'unexpected trailing input', 1, 2),
    ("x0/2", 4, False, 0,
     'syntax', 'unexpected trailing input', 1, 3),
    ("dx0 ^", 4, False, 1,
     'syntax', 'unexpected trailing input', 1, 5),
    ("dx0^x1", 4, False, 1,
     'syntax', 'unexpected trailing input', 1, 4),
    ("x0 * dx0 * dx1", 4, False, 1,
     'syntax', 'unexpected trailing input', 1, 10),
    ("2*dx0^dx1*3", 4, False, 2,
     'syntax', 'unexpected trailing input', 1, 10),
    ("dx0 + 1/0 + @", 4, False, 1,
     'syntax', "unexpected character '@'", 1, 13),
    ("", 4, False, 1,
     'syntax', 'empty expression', 1, 1),
    ("   ", 4, False, None,
     'syntax', 'empty expression', 1, 4),
    ("\n", 4, False, 0,
     'syntax', 'empty expression', 2, 1),
    ("-", 4, False, 1,
     'syntax', 'expected a coefficient or basis factor', 1, 2),
    ("(x0", 4, False, 0,
     'syntax', "expected ')'", 1, 4),
    ("()", 4, False, 0,
     'syntax', 'expected a coefficient or basis factor', 1, 2),
    ("x0^", 4, False, 0,
     'syntax', 'expected integer exponent', 1, 4),
    ("x0^x1", 4, False, 0,
     'syntax', 'expected integer exponent', 1, 4),
    ("x0^-1", 4, False, 0,
     'syntax', 'expected integer exponent', 1, 4),
    ("x0^(2)", 4, False, 0,
     'syntax', 'expected integer exponent', 1, 4),
    ("x0^i", 4, True, 0,
     'syntax', 'expected integer exponent', 1, 4),
    ("*dx0", 4, False, 1,
     'syntax', 'expected a coefficient or basis factor', 1, 1),
    ("+dx0", 4, False, 1,
     'syntax', 'expected a coefficient or basis factor', 1, 1),
    ("dx0 + + dx1", 4, False, 1,
     'syntax', 'expected a coefficient or basis factor', 1, 7),
    ("2*", 4, False, 0,
     'syntax', 'expected a coefficient or basis factor', 1, 3),
    ("2**3", 4, False, 0,
     'syntax', 'expected a coefficient or basis factor', 1, 3),
    ("--x0", 4, False, 0,
     'syntax', 'expected a coefficient or basis factor', 1, 2),
    ("(-)", 4, False, 0,
     'syntax', 'expected a coefficient or basis factor', 1, 3),
    ("(x0 + )*dx1", 4, False, 1,
     'syntax', 'expected a coefficient or basis factor', 1, 7),
    ("(dx0)", 4, False, 1,
     'syntax', 'expected a coefficient or basis factor', 1, 2),
    ("x0*(dx1)", 4, False, 1,
     'syntax', 'expected a coefficient or basis factor', 1, 5),
    ("3/dx0", 4, False, 1,
     'syntax', 'unexpected trailing input', 1, 2),
    ("6/4*x0*4/6 - 2/2*x0 + dx1^dx0 + dx0^dx1", 4, False, None,
     'syntax', 'degree mismatch: term has degree 2, expected 0', 1, 23),
    ("x1*2/3*x1 - (2/3*x1^2 - 1/5)*dx2^dx3^dx0", 4, False, None,
     'syntax', 'degree mismatch: term has degree 3, expected 0', 1, 13),
    ("(x0 + 1)*(x0 - 1) - x0^2*dx1 + dx1", 4, False, 1,
     'syntax', 'degree mismatch: term has degree 0, expected 1', 1, 1),
    ("((((x1))))^2^dx0", 4, False, None,
     'syntax', 'unexpected trailing input', 1, 13),
    ("0*dx0 + x0", 4, False, None,
     'syntax', 'degree mismatch: term has degree 0, expected 1', 1, 9),
    ("(i - i)*dx0 + dx1^dx2", 4, True, None,
     'syntax', 'degree mismatch: term has degree 2, expected 1', 1, 15),
    (nested(MAX_NESTING + 1), 4, False, 0,
     'syntax', 'parentheses nested deeper than 100', 1, 101),
    (DEEP + "*dx0^dx1", 4, False, 2,
     'syntax', 'parentheses nested deeper than 100', 1, 101),
    ("dx0 + x1*" + "(" * 300 + "x0", 4, False, 1,
     'syntax', 'parentheses nested deeper than 100', 1, 110),
    ("(x0 + " * 101 + ")" * 101, 4, False, 0,
     'syntax', 'parentheses nested deeper than 100', 1, 601),
    (nested(150, "x0 + x9"), 4, False, 0,
     'syntax', 'parentheses nested deeper than 100', 1, 101),
]

# (text, n, complex_mode, expected_degree, degree, print_form of the result)
ACCEPTED = [
    ("0^0", 4, False, 0,
     0, '1'),
    ("(x0 - x0)^0*dx1", 4, False, 1,
     1, 'dx1'),
    ("0*x0^100*x0^100", 4, False, 0,
     0, '0'),
    ("x0^100*0*x0^100", 4, False, 0,
     0, '0'),
    ("(x0^100 - x0^100)*x0^100*x0^100", 4, False, 0,
     0, '0'),
    ("(x0 - x0)*" + A + "*" + A, 8, False, 0,
     0, '0'),
    ("x0^127*x1^127*x2^127*x3^127", 4, False, 0,
     0, 'x0^127*x1^127*x2^127*x3^127'),
    ("-0", 4, False, 3,
     3, '0'),
    ("(x0 - x0) + dx1", 4, False, None,
     1, 'dx1'),
    ("dx0^dx0^dx0^dx0^dx0", 4, False, None,
     5, '0'),
    ("6/4*x0*4/6*dx2^dx3 - 2/2*x0*dx2^dx3 + dx1^dx0 + dx0^dx1", 4, False, 2,
     2, '0'),
    ("x1*2/3*x1*dx0^dx2^dx3 - (2/3*x1^2 - 1/5)*dx2^dx3^dx0", 4, False, None,
     3, '(1/5)*dx0^dx2^dx3'),
    ("((x0 + 1)*(x0 - 1) - x0^2)*dx1 + dx1", 4, False, 1,
     1, '0'),
    ("(1 + 2*i)*(1 - 2*i)*dx0 + i*i*dx1 + i^4*dx2 + (i - i)*dx3", 4, True, 1,
     1, '(5)*dx0 + (-1)*dx1 + dx2'),
    ("-(x0 - i*x1)^3*dx0^dx1 + 1/2*i*x2*dx1^dx0", 4, True, 2,
     2, '(-x0^3 + 3*i*x0^2*x1 + 3*x0*x1^2 - i*x1^3 - 1/2*i*x2)*dx0^dx1'),
    ("(1/3)^5*x3^2*(2/5*x2 - 7)^2", 4, False, 0,
     0, '4/6075*x2^2*x3^2 - 28/1215*x2*x3^2 + 49/243*x3^2'),
    ("00012/0008*dx0 - 3/2*dx0", 4, False, 1,
     1, '0'),
    ("((((x1))))^2*dx0", 4, False, None,
     1, '(x1^2)*dx0'),
    (nested(MAX_NESTING) + "*dx1", 4, False, 1,
     1, '(x0)*dx1'),
    ("(" * MAX_NESTING + "x0" + ")" * MAX_NESTING + "*" + nested(MAX_NESTING, "x1 - 1"),
     4, False, 0, 0, 'x0*x1 - x0'),
]


@pytest.mark.parametrize("text,n,cm,degree,kind,message,line,column", MALFORMED)
def test_malformed_input_diagnostic(text, n, cm, degree, kind, message, line, column):
    chart = Chart(n, complex_mode=cm)
    if kind == "structural":
        with pytest.raises(StructuralError) as e:
            parse_form(text, chart, degree)
        assert str(e.value) == message
        return
    with pytest.raises(FormSyntaxError) as e:
        parse_form(text, chart, degree)
    assert (e.value.message, e.value.line, e.value.column) == (message, line, column)
    assert str(e.value) == f"{line}:{column}: {message}"


def test_corpus_size():
    assert len(MALFORMED) >= 60


@pytest.mark.parametrize("text,n,cm,degree,parsed_degree,printed", ACCEPTED)
def test_accepted_edge_input(text, n, cm, degree, parsed_degree, printed):
    form = parse_form(text, Chart(n, complex_mode=cm), degree)
    assert (form.degree, print_form(form)) == (parsed_degree, printed)


def test_nesting_past_the_limit_names_its_config_key():
    # a chi entry goes through parse_polynomial; the key leads the message
    chi = [[0] * 6 for _ in range(6)]
    chi[1][2] = DEEP
    with pytest.raises(FormSyntaxError) as err:
        validate_config({"n": 4, "p": 2,
                         "constitutive": {"kind": "linear-local", "chi": chi}})
    assert str(err.value) == ("constitutive.chi[1][2]: 1:101: "
                              "parentheses nested deeper than 100")
    assert (err.value.line, err.value.column) == (1, 101)


@pytest.mark.parametrize("key", ["F", "G", "J", "u", "alpha", "chi"])
@pytest.mark.parametrize("command", ["check", "split", "constitutive", "reciprocity"])
def test_nesting_past_the_limit_exits_two_from_every_command(tmp_path, key, command):
    raw = {"n": 4, "p": 2, "seed": 1, "samples": 1}
    if key == "alpha":
        raw["constitutive"] = {"kind": "axion", "Z0": 1, "alpha": DEEP}
        prefix = "constitutive.alpha"
    elif key == "chi":
        chi = [[0] * 6 for _ in range(6)]
        chi[0][0] = DEEP
        raw["constitutive"] = {"kind": "linear-local", "chi": chi}
        prefix = "constitutive.chi[0][0]"
    else:
        raw[key] = DEEP + ("*dx0" if key == "u" else "*dx0^dx1^dx2" if key == "J"
                           else "*dx0^dx1")
        prefix = key
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        status = cli.main([command, "--config", str(path)])
    assert (status, stdout.getvalue()) == (2, "")
    assert stderr.getvalue() == (f"premetric: error: {prefix}: 1:101: "
                                 "parentheses nested deeper than 100\n")


def test_nesting_past_the_limit_exits_two_without_a_traceback(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"n": 4, "p": 2, "F": DEEP + "*dx0^dx1"}), encoding="utf-8")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    r = subprocess.run([sys.executable, "-m", "premetric.cli", "check", "--config", str(path)],
                       capture_output=True, text=True, timeout=120, env=env)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == "premetric: error: F: 1:101: parentheses nested deeper than 100\n"
    assert "Traceback" not in r.stderr
