"""The expression parser against sympy's own parser.

Hypothesis writes form text in the grammar of docs/grammar.md: rational
and integer literals, `x<k>`, powers, `i` on complex charts, nested
parenthesised sums, products and basis words (repeated indices
included).  sympy's `parse_expr` reads each coefficient with `^` as `**`
and `i` as `I` (a literal `a/b` is parenthesised, since `a/b^k` is
`(a/b)^k` in the grammar); the basis word's sign and sorting come from an
inversion count written here.  The package's parse is then compared with
the sympy expansion coefficient by coefficient, reading the package's raw
(den, nums) storage.  sympy and hypothesis are test-only dependencies.
"""

import re
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from sympy.parsing.sympy_parser import parse_expr  # noqa: E402

st = hypothesis.strategies

from premetric.formexpr import parse_form  # noqa: E402
from premetric.forms import Chart  # noqa: E402
from premetric.scalars import FIELD_BITS  # noqa: E402

SYMBOLS = {f"x{k}": sympy.Symbol(f"x{k}") for k in range(8)}
LITERALS = st.one_of(st.integers(0, 12), st.integers(0, 10 ** 30))

# Two factors per product, exponents up to 2 and two levels of nested
# parentheses keep every exponent at most 64, inside the packed range.


@st.composite
def factor_text(draw, n, complex_mode, depth):
    kinds = ["int", "ratio", "var"] + ["i"] * complex_mode + ["sum"] * (depth < 2)
    kind = draw(st.sampled_from(kinds))
    if kind == "int":
        atom = str(draw(LITERALS))
    elif kind == "ratio":
        atom = f"{draw(LITERALS)}/{draw(st.integers(1, 40))}"
    elif kind == "var":
        atom = f"x{draw(st.integers(0, n - 1))}"
    elif kind == "i":
        atom = "i"
    else:
        atom = f"({draw(sum_text(n, complex_mode, depth + 1))})"
    if draw(st.booleans()):
        atom += f"^{draw(st.integers(0, 2))}"
    return atom


@st.composite
def product_text(draw, n, complex_mode, depth):
    count = draw(st.integers(1, 2))
    return "*".join(draw(factor_text(n, complex_mode, depth)) for _ in range(count))


@st.composite
def sum_text(draw, n, complex_mode, depth):
    text = "-" if draw(st.booleans()) else ""
    text += draw(product_text(n, complex_mode, depth))
    for _ in range(draw(st.integers(0, 2))):
        text += draw(st.sampled_from([" + ", " - "]))
        text += draw(product_text(n, complex_mode, depth))
    return text


@st.composite
def form_case(draw):
    """(n, complex_mode, p, text, terms); terms are (negated, coefficient
    text or None for a bare basis word, basis indices)."""
    n = draw(st.integers(2, 5))
    complex_mode = draw(st.booleans())
    p = draw(st.integers(0, n))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        basis = [draw(st.integers(0, n - 1)) for _ in range(p)]
        bare = p > 0 and draw(st.booleans())
        coeff = None if bare else draw(product_text(n, complex_mode, 0))
        terms.append((draw(st.booleans()), coeff, basis))
    parts = []
    for k, (negated, coeff, basis) in enumerate(terms):
        word = "^".join(f"dx{j}" for j in basis)
        body = "*".join(s for s in (coeff, word) if s)
        parts.append(("-" if negated else "+" if k else "") + body)
    return n, complex_mode, p, " ".join(parts), terms


def sympy_coefficient(text):
    text = re.sub(r"([0-9]+)/([0-9]+)", r"(\1/\2)", text)
    return parse_expr(text.replace("^", "**").replace("i", "I"),
                      local_dict=SYMBOLS)


def sorted_with_sign(indices):
    """(sorted indices, sign of the sorting permutation), sign 0 on repeats."""
    if len(set(indices)) != len(indices):
        return None, 0
    inversions = sum(a > b for k, a in enumerate(indices) for b in indices[k + 1:])
    return tuple(sorted(indices)), (-1) ** inversions


def expected_components(n, terms):
    xs = [SYMBOLS[f"x{k}"] for k in range(n)]
    components = {}
    for negated, coeff, basis in terms:
        idx, sign = sorted_with_sign(basis)
        if not sign:
            continue
        value = sympy.Integer(1) if coeff is None else sympy_coefficient(coeff)
        if negated:
            sign = -sign
        components[idx] = components.get(idx, 0) + sign * value
    out = {}
    for idx, expr in components.items():
        coeffs = {}
        for monom, c in sympy.Poly(sympy.expand(expr), *xs).as_dict(native=False).items():
            re_part, im_part = c.as_real_imag()
            coeffs[monom] = (Fraction(int(re_part.p), int(re_part.q)),
                             Fraction(int(im_part.p), int(im_part.q)))
        coeffs = {m: c for m, c in coeffs.items() if c != (0, 0)}
        if coeffs:
            out[idx] = coeffs
    return out


def package_coefficients(poly):
    """{exponent tuple: (re, im)} read from the raw (den, nums) storage."""
    mask = (1 << FIELD_BITS) - 1
    out = {}
    for key, num in poly.nums.items():
        exps = tuple((key >> (FIELD_BITS * (poly.n - 1 - k))) & mask
                     for k in range(poly.n))
        re_num, im_num = num if poly.complex_mode else (num, 0)
        out[exps] = (Fraction(re_num, poly.den), Fraction(im_num, poly.den))
    return out


@hypothesis.settings(max_examples=200, deadline=None,
                     suppress_health_check=[hypothesis.HealthCheck.too_slow])
@hypothesis.given(form_case())
def test_parse_matches_sympy(case):
    n, complex_mode, p, text, terms = case
    form = parse_form(text, Chart(n, complex_mode=complex_mode), p)
    assert form.degree == p
    got = {idx: package_coefficients(poly) for idx, poly in form.components.items()}
    assert got == expected_components(n, terms), text


def test_oracle_reads_the_grammar_not_python():
    # a/b^k is (a/b)^k, and i is the imaginary unit
    assert sympy_coefficient("3/4^2") == sympy.Rational(9, 16)
    assert sympy_coefficient("2*i^2") == -2
    assert expected_components(2, [(True, "x1", [1, 0])]) == {
        (0, 1): {(0, 1): (Fraction(1), Fraction(0))}}
