"""Surface syntax for forms: a small expression language and its printer.

Grammar (whitespace-insensitive)::

    expr    := '-'? term (('+' | '-') term)*
    term    := coeff ('*' basis)? | basis
    coeff   := factor ('*' factor)*          -- sums must be parenthesized
    basis   := DX ('^' DX)*
    factor  := atom ('^' INT)?
    atom    := INT ('/' INT)? | VAR | 'i' | '(' poly ')'
    poly    := '-'? coeff (('+' | '-') coeff)*

DX is ``dx<k>``, VAR is ``x<k>``, and ``i`` is the imaginary unit (accepted
only on complex-mode charts).  At the top level '+' and '-' separate form
terms, so a coefficient with more than one monomial has to be written in
parentheses: ``(x0^2 - 1/3) * dx1^dx2``.  A repeated basis index such as
``dx1^dx1`` is legal and denotes the zero term; it still counts as a
degree-2 term for the degree check.  A bare constant zero term matches any
expected degree, so the canonical rendering "0" of a zero form reparses at
every degree.

print_form emits one component per strictly increasing index tuple in
sorted order, joined by " + ", with every non-unit coefficient
parenthesized; parsing the result reproduces the form exactly, and
printing after a parse canonicalizes the input.
"""

import re
from functools import lru_cache
from math import gcd

from .errors import FormSyntaxError, StructuralError
from .forms import Form, VectorField, sort_indices
from .scalars import (MAX_EXPONENT, Polynomial, _check_guard, _high_mask,
                      _shift, _unpack, monomial_sum)

# longest decimal digit run accepted, and printed; Python's int() and str()
# refuse longer strings by default
MAX_LITERAL_DIGITS = 4300
_PRINT_LIMIT = 10 ** MAX_LITERAL_DIGITS
# most term pairs one product (or one step of a power) may multiply out
MAX_TERM_PAIRS = 100_000
# deepest parenthesis nesting accepted; each level is four parser frames,
# so a deeper input is refused well inside Python's recursion limit
MAX_NESTING = 100

# One match per token or blank run; the group that matched is the kind:
# 1 an integer, 2 dx<k>, 3 x<k>, 4 an operator or i, 5 a character that
# starts no token.  Digits are ASCII only.
_TOKEN = re.compile(r"([0-9]+)|dx([0-9]+)|x([0-9]+)|([-+*/^()i])|[ \t\r\n]+|(.)",
                    re.DOTALL)
_KINDS = (None, "int", "dx", "x")


def _fail(text, message, offset):
    """Raise FormSyntaxError at the 1-based line:column of text[offset]."""
    column = offset - text.rfind("\n", 0, offset)
    raise FormSyntaxError(message, text.count("\n", 0, offset) + 1, column)


def _tokenize(text):
    """Tokens (kind, value, offset): kind "int", "dx" or "x" with an int
    value, an operator character or "i", and "" at the end of the text."""
    tokens = []
    append = tokens.append
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        if group is None:
            continue
        s = m[group]
        if group == 4:
            append((s, None, m.start()))
        elif group == 5:
            _fail(text, "expected 'dx<index>'" if s == "d" else
                  "expected coordinate 'x<index>'" if s == "x" else
                  f"unexpected character {s!r}", m.start())
        elif len(s) > MAX_LITERAL_DIGITS:
            _fail(text, f"integer literal of {len(s)} digits exceeds the limit "
                        f"{MAX_LITERAL_DIGITS}", m.start())
        else:
            append((_KINDS[group], int(s), m.start()))
    append(("", None, len(text)))
    return tokens


class _Parser:
    """Recursive descent over the token list.

    A coefficient is a monomial (num, den, key) or a canonical Polynomial.
    The monomial is num/den times the packed monomial key, num an int or,
    on a complex chart, an (re, im) pair, not reduced; zero is num 0 with
    key 0.  A sum of several coefficients becomes a Polynomial, and so does
    a product involving one.
    """

    def __init__(self, text, chart):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.n = chart.n
        self.complex_mode = cm = chart.complex_mode
        self.zero = (0, 0) if cm else 0
        self.one = ((1, 0) if cm else 1), 1, 0
        self.high = _high_mask(chart.n)

    def fail(self, message, tok=None):
        _fail(self.text, message, (tok or self.tokens[self.pos])[2])

    # -- form level ----------------------------------------------------------

    def parse_form(self, expected_degree):
        tokens = self.tokens
        negate = tokens[0][0] == "-"
        if negate:
            self.pos = 1
        elif not tokens[0][0]:
            self.fail("empty expression")
        terms = [self.term(negate)]
        while (op := tokens[self.pos][0]) == "+" or op == "-":
            self.pos += 1
            terms.append(self.term(op == "-"))
        if tokens[self.pos][0]:
            self.fail("unexpected trailing input")

        degree = expected_degree
        for _, _, deg, tok, polymorphic in terms:
            if polymorphic:
                continue  # a bare 0 matches every degree
            if degree is None:
                degree = deg
            elif deg != degree:
                self.fail(f"degree mismatch: term has degree {deg}, expected {degree}",
                          tok)
        if degree is None:
            degree = 0

        groups = {}
        for indices, coeff, *_ in terms:
            if indices is not None:  # None: zero (repeated index or bare 0)
                groups.setdefault(indices, []).append(coeff)
        return degree, {idx: cs[0] if len(cs) == 1 and type(cs[0]) is Polynomial
                        else self.sum(cs) for idx, cs in groups.items()}

    def term(self, negate):
        """(indices or None for zero, coefficient, syntactic degree, first
        token, whether the term is a bare zero matching every degree)."""
        tok = self.tokens[self.pos]
        if tok[0] == "dx":
            coeff, polymorphic = self.one, False
            indices, sign, deg = self.basis()
        else:
            coeff = self.factors()
            if self.tokens[self.pos][0] == "*":
                # the '*' before a basis; factors() stopped here
                self.pos += 1
                indices, sign, deg = self.basis()
                polymorphic = False
            else:
                indices, sign, deg = (), 1, 0
                polymorphic = not self.size(coeff)
        if sign == 0 or not self.size(coeff):
            indices = None
        elif negate != (sign < 0):
            coeff = self.neg(coeff)
        return indices, coeff, deg, tok, polymorphic

    def basis(self):
        """The basis word that starts at the current token, a dx."""
        tokens, n, raw = self.tokens, self.n, []
        while True:
            tok = tokens[self.pos]
            if not 0 <= tok[1] < n:
                self.fail(f"index {tok[1]} out of range for n={n}", tok)
            raw.append(tok[1])
            if tokens[self.pos + 1][0] != "^" or tokens[self.pos + 2][0] != "dx":
                break
            self.pos += 2
        self.pos += 1
        # repeated index wedges to zero; sort_indices reports that as sign 0
        indices, sign = sort_indices(raw)
        return indices, sign, len(raw)

    # -- coefficient level -----------------------------------------------------

    def factors(self):
        tokens = self.tokens
        acc = self.factor()
        while tokens[self.pos][0] == "*" and tokens[self.pos + 1][0] != "dx":
            tok = tokens[self.pos]
            self.pos += 1
            acc = self.product(acc, self.factor(), tok)
        return acc

    def factor(self):
        a = self.atom()
        if self.tokens[self.pos][0] != "^":
            return a
        tok = self.tokens[self.pos + 1]
        if tok[0] != "int":
            self.fail("expected integer exponent", tok)
        if tok[1] > MAX_EXPONENT:
            self.fail(f"exponent {tok[1]} exceeds the limit {MAX_EXPONENT}", tok)
        self.pos += 2
        if not tok[1]:
            return self.one
        # a^k is a times k - 1 products by a; the first step, 1 times a,
        # multiplies nothing but is still refused past the pair limit
        self.check_pairs(1, self.size(a), tok)
        base = a
        for _ in range(tok[1] - 1):
            a = self.product(a, base, tok)
        return a

    def product(self, a, b, tok):
        """a * b, refused at tok when it would multiply out more than
        MAX_TERM_PAIRS pairs of terms."""
        if type(a) is tuple and type(b) is tuple:
            (an, ad, ak), (bn, bd, bk) = a, b
            num = ((an[0] * bn[0] - an[1] * bn[1], an[0] * bn[1] + an[1] * bn[0])
                   if self.complex_mode else an * bn)
            if num == self.zero:
                return num, 1, 0
            if (ak | bk) & self.high:
                _check_guard((ak,), (bk,), self.n)
            return num, ad * bd, ak + bk
        self.check_pairs(self.size(a), self.size(b), tok)
        return self.as_poly(a) * self.as_poly(b)

    def check_pairs(self, sa, sb, tok):
        """Refuse at tok a product of sa by sb terms past MAX_TERM_PAIRS."""
        if sa * sb > MAX_TERM_PAIRS:
            self.fail(f"product of {sa} by {sb} terms exceeds the limit of "
                      f"{MAX_TERM_PAIRS} term pairs", tok)

    def atom(self):
        tok = kind, value, _ = self.tokens[self.pos]
        self.pos += 1
        if kind == "int":
            tokens, den = self.tokens, 1
            if tokens[self.pos][0] == "/" and tokens[self.pos + 1][0] == "int":
                den = tokens[self.pos + 1][1]
                self.pos += 2
                if den == 0:
                    self.fail("zero denominator", tok)
            return (value, 0) if self.complex_mode else value, den, 0
        if kind == "x":
            if not 0 <= value < self.n:
                self.fail(f"index {value} out of range for n={self.n}", tok)
            return self.one[0], 1, 1 << _shift(self.n, value)
        if kind == "i":
            if not self.complex_mode:
                self.fail("imaginary unit needs a complex-mode chart", tok)
            return (0, 1), 1, 0
        if kind == "(":
            if self.depth == MAX_NESTING:
                self.fail(f"parentheses nested deeper than {MAX_NESTING}", tok)
            self.depth += 1
            p = self.poly()
            self.depth -= 1
            if self.tokens[self.pos][0] != ")":
                self.fail("expected ')'")
            self.pos += 1
            return p
        self.fail("expected a coefficient or basis factor", tok)

    def poly(self):
        tokens = self.tokens
        negate = tokens[self.pos][0] == "-"
        if negate:
            self.pos += 1
        terms = [self.neg(self.factors()) if negate else self.factors()]
        while (op := tokens[self.pos][0]) == "+" or op == "-":
            self.pos += 1
            terms.append(self.neg(self.factors()) if op == "-" else self.factors())
        return terms[0] if len(terms) == 1 else self.sum(terms)

    # -- coefficients ----------------------------------------------------------

    def size(self, c):
        """Number of terms of c; zeros are dropped at once, so the raw keys
        count them without a gcd."""
        return (0 if c[0] == self.zero else 1) if type(c) is tuple else len(c._nums)

    def neg(self, c):
        if type(c) is not tuple:
            return -c
        num, den, key = c
        return ((-num[0], -num[1]) if self.complex_mode else -num), den, key

    def as_poly(self, c):
        if type(c) is not tuple:
            return c
        return monomial_sum(self.n, self.complex_mode, (c,))

    def sum(self, terms):
        """Sum of coefficients, one monomial_sum over all their monomials,
        which takes a Polynomial's raw, possibly unreduced, slots."""
        monomials = []
        for c in terms:
            if type(c) is tuple:
                monomials.append(c)
            else:
                den = c._den
                monomials.extend((v, den, k) for k, v in c._nums.items())
        return monomial_sum(self.n, self.complex_mode, monomials)


def parse_form(text, chart, expected_degree=None, twist=False):
    """Parse expression text into a canonical Form on the chart.

    expected_degree, when given, is enforced on every term; otherwise the
    common degree of the terms is inferred.  Raises FormSyntaxError with a
    1-based line:column position on bad input.
    """
    degree, components = _Parser(text, chart).parse_form(expected_degree)
    return Form(chart, degree, twist, components)


def parse_vector_field(text, chart):
    """Parse ``sum_k u^k * dxk`` notation into the vector field sum_k u^k d/dx_k."""
    one_form = parse_form(text, chart, expected_degree=1)
    comps = [one_form.components.get((k,)) or chart.zero_poly()
             for k in range(chart.n)]
    return VectorField(chart, comps)


def parse_polynomial(text, chart):
    """Parse a bare coefficient expression (a 0-form body), with no Form
    built around the parser's component."""
    p = _Parser(text, chart).parse_form(0)[1].get(())
    return chart.zero_poly() if p is None or p.is_zero() else p


# -- printing -----------------------------------------------------------------


def _ratio(num: int, den: int) -> str:
    """num/den in lowest terms; the integer alone when den divides num.

    Either part longer than MAX_LITERAL_DIGITS is refused, so that every
    printed form parses back.
    """
    g = gcd(num, den)
    num, den = num // g, den // g
    if num >= _PRINT_LIMIT or den >= _PRINT_LIMIT:
        raise StructuralError(
            f"coefficient with more than {MAX_LITERAL_DIGITS} digits cannot "
            "be printed")
    return str(num) if den == 1 else f"{num}/{den}"


def _coeff_str(c, den):
    """(negative, body) for the complex coefficient c/den, with the sign
    pulled out to the monomial join; c is an (re, im) numerator pair."""
    re, im = c
    neg = re < 0 if re else im < 0
    if neg:
        re, im = -re, -im
    if not im:
        return neg, _ratio(re, den)
    unit = "i" if abs(im) == den else f"{_ratio(abs(im), den)}*i"
    if not re:
        return neg, unit
    return neg, f"({_ratio(re, den)} {'+' if im > 0 else '-'} {unit})"


@lru_cache(maxsize=None)
def _var_text(n):
    """table[k][e] is the text of x_k^e, "" for e = 0."""
    return tuple(("", f"x{k}", *(f"x{k}^{e}" for e in range(2, MAX_EXPONENT + 1)))
                 for k in range(n))


def poly_str(p: Polynomial) -> str:
    """Canonical polynomial rendering: monomials in descending exponent order.

    Reads the raw slots with no gcd: _ratio reduces each coefficient, and
    numeric key order is exponent-tuple order.
    """
    if p.is_zero():
        return "0"
    n, den, complex_mode, table = p.n, p._den, p.complex_mode, _var_text(p.n)
    bits = []
    for key, c in sorted(p._nums.items(), reverse=True):
        if complex_mode:
            neg, body = _coeff_str(c, den)
        else:
            neg, body = c < 0, _ratio(abs(c), den)
        vars_part = [t[e] for t, e in zip(table, _unpack(key, n)) if e]
        if body != "1" or not vars_part:
            vars_part.insert(0, body)
        mono = "*".join(vars_part)
        if bits:
            bits.append(f" - {mono}" if neg else f" + {mono}")
        else:
            bits.append(f"-{mono}" if neg else mono)
    return "".join(bits)


def print_form(form: Form) -> str:
    """Canonical rendering; parse_form(print_form(f)) == f on the same chart."""
    if form.is_zero():
        return "0"
    one = Polynomial.constant(form.chart.n, 1, form.chart.complex_mode)
    parts = []
    for idx in sorted(form.components):
        poly = form.components[idx]
        basis = "^".join(f"dx{k}" for k in idx)
        if not idx:
            parts.append(poly_str(poly))
        elif poly == one:
            parts.append(basis)
        else:
            body = poly_str(poly)
            # a coefficient's own parentheses never nest, so the first ")"
            # closes the "(" at the start only when it is the last character
            if not (body.startswith("(") and body.index(")") == len(body) - 1):
                body = f"({body})"
            parts.append(f"{body}*{basis}")
    return " + ".join(parts)
