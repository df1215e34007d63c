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

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import FormSyntaxError, StructuralError
from .forms import Chart, Form, VectorField, sort_indices
from .scalars import MAX_EXPONENT, Polynomial, _unpack

_OPS = "+-*/^()"
_DIGITS = frozenset("0123456789")
# longest decimal digit run accepted, and printed; Python's int() and str()
# refuse longer strings by default
MAX_LITERAL_DIGITS = 4300
_PRINT_LIMIT = 10 ** MAX_LITERAL_DIGITS
# most term pairs one product (or one step of a power) may multiply out
MAX_TERM_PAIRS = 100_000


class _Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind, value, line, column):
        self.kind = kind      # one of: INT DX VAR I OP END
        self.value = value
        self.line = line
        self.column = column

    def __repr__(self):
        return f"_Token({self.kind}, {self.value!r}, {self.line}:{self.column})"


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)

    def number(kind, start):
        """Append a token for the ASCII digit run at text[start:]; return
        the index after it."""
        j = start
        while j < n and text[j] in _DIGITS:
            j += 1
        if j - start > MAX_LITERAL_DIGITS:
            raise FormSyntaxError(
                f"integer literal of {j - start} digits exceeds the limit "
                f"{MAX_LITERAL_DIGITS}", line, col)
        tokens.append(_Token(kind, int(text[start:j]), line, col))
        return j

    while i < n:
        c = text[i]
        j = i + 1
        if c == "\n":
            line, col, i = line + 1, 1, j
            continue
        if c in _DIGITS:
            j = number("INT", i)
        elif c == "d":
            if text[i + 1:i + 2] != "x" or text[i + 2:i + 3] not in _DIGITS:
                raise FormSyntaxError("expected 'dx<index>'", line, col)
            j = number("DX", i + 2)
        elif c == "x":
            if text[i + 1:i + 2] not in _DIGITS:
                raise FormSyntaxError("expected coordinate 'x<index>'", line, col)
            j = number("VAR", i + 1)
        elif c == "i":
            tokens.append(_Token("I", None, line, col))
        elif c in _OPS:
            tokens.append(_Token("OP", c, line, col))
        elif c not in " \t\r":
            raise FormSyntaxError(f"unexpected character {c!r}", line, col)
        col += j - i
        i = j
    tokens.append(_Token("END", None, line, col))
    return tokens


class _Term:
    __slots__ = ("indices", "poly", "deg", "tok", "polymorphic")

    def __init__(self, indices, poly, deg, tok, polymorphic):
        self.indices = indices    # None when the term evaluates to zero
        self.poly = poly
        self.deg = deg            # syntactic degree, used for the degree check
        self.tok = tok
        self.polymorphic = polymorphic


class _Parser:
    def __init__(self, text, chart):
        self.chart = chart
        self.tokens = _tokenize(text)
        self.pos = 0

    # -- token plumbing ------------------------------------------------------

    def peek(self, ahead=0):
        k = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[k]

    def next(self):
        tok = self.tokens[self.pos]
        if tok.kind != "END":
            self.pos += 1
        return tok

    def expect_op(self, op):
        tok = self.next()
        if tok.kind != "OP" or tok.value != op:
            raise FormSyntaxError(f"expected {op!r}", tok.line, tok.column)
        return tok

    def at_op(self, *ops):
        tok = self.peek()
        return tok.kind == "OP" and tok.value in ops

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise FormSyntaxError(message, tok.line, tok.column)

    # -- form level ----------------------------------------------------------

    def parse_form(self, expected_degree):
        terms = []
        negate = False
        if self.at_op("-"):
            self.next()
            negate = True
        elif self.peek().kind == "END":
            self.fail("empty expression")
        terms.append(self.term(negate))
        while self.at_op("+", "-"):
            op = self.next().value
            terms.append(self.term(op == "-"))
        end = self.peek()
        if end.kind != "END":
            self.fail("unexpected trailing input", end)

        degree = expected_degree
        for t in terms:
            if t.polymorphic:
                continue  # a bare 0 matches every degree
            if degree is None:
                degree = t.deg
            elif t.deg != degree:
                self.fail(f"degree mismatch: term has degree {t.deg}, expected {degree}",
                          t.tok)
        if degree is None:
            degree = 0

        components = {}
        for t in terms:
            if t.indices is None:
                continue  # evaluated to zero (repeated index or bare 0)
            cur = components.get(t.indices)
            s = t.poly if cur is None else cur + t.poly
            if s.is_zero():
                components.pop(t.indices, None)
            else:
                components[t.indices] = s
        return degree, components

    def term(self, negate):
        tok = self.peek()
        if tok.kind == "DX":
            indices, sign, deg = self.basis()
            coeff = Polynomial.constant(self.chart.n, 1, self.chart.complex_mode)
            polymorphic = False
        else:
            coeff = self.factors()
            indices, sign, deg = (), 1, 0
            if self.at_op("*"):
                # the '*' before a basis; factors() already stopped here
                self.next()
                indices, sign, deg = self.basis()
                polymorphic = False
            else:
                polymorphic = coeff.is_zero()
        if sign == 0 or coeff.is_zero():
            return _Term(None, coeff, deg, tok, polymorphic)
        if negate:
            coeff = -coeff
        if sign < 0:
            coeff = -coeff
        return _Term(indices, coeff, deg, tok, polymorphic)

    def basis(self):
        raw = []
        while True:
            tok = self.next()
            if tok.kind != "DX":
                self.fail("expected 'dx<index>'", tok)
            if not 0 <= tok.value < self.chart.n:
                self.fail(f"index {tok.value} out of range for n={self.chart.n}", tok)
            raw.append(tok.value)
            if self.at_op("^") and self.peek(1).kind == "DX":
                self.next()
                continue
            break
        # repeated index wedges to zero; sort_indices reports that as sign 0
        indices, sign = sort_indices(raw)
        return indices, sign, len(raw)

    # -- coefficient level -----------------------------------------------------

    def factors(self):
        acc = self.factor()
        while self.at_op("*") and self.peek(1).kind != "DX":
            tok = self.next()
            acc = self.product(acc, self.factor(), tok)
        return acc

    def factor(self):
        a = self.atom()
        if self.at_op("^"):
            self.next()
            tok = self.next()
            if tok.kind != "INT":
                self.fail("expected integer exponent", tok)
            if tok.value > MAX_EXPONENT:
                self.fail(f"exponent {tok.value} exceeds the limit {MAX_EXPONENT}", tok)
            base, a = a, self.chart.const_poly(1)
            for _ in range(tok.value):
                a = self.product(a, base, tok)
        return a

    def product(self, a, b, tok):
        """a * b, refused at tok when it would multiply out more than
        MAX_TERM_PAIRS pairs of terms."""
        pairs = len(a.nums) * len(b.nums)
        if pairs > MAX_TERM_PAIRS:
            self.fail(f"product of {len(a.nums)} by {len(b.nums)} terms exceeds "
                      f"the limit of {MAX_TERM_PAIRS} term pairs", tok)
        return a * b

    def atom(self):
        tok = self.next()
        cm = self.chart.complex_mode
        n = self.chart.n
        if tok.kind == "INT":
            value = Fraction(tok.value)
            if self.at_op("/") and self.peek(1).kind == "INT":
                self.next()
                den = self.next().value
                if den == 0:
                    self.fail("zero denominator", tok)
                value = Fraction(tok.value, den)
            return Polynomial.constant(n, value, cm)
        if tok.kind == "VAR":
            if not 0 <= tok.value < n:
                self.fail(f"index {tok.value} out of range for n={n}", tok)
            return Polynomial.variable(n, tok.value, cm)
        if tok.kind == "I":
            if not cm:
                self.fail("imaginary unit needs a complex-mode chart", tok)
            return Polynomial.constant(n, (0, 1), cm)
        if tok.kind == "OP" and tok.value == "(":
            p = self.poly()
            self.expect_op(")")
            return p
        self.fail("expected a coefficient or basis factor", tok)

    def poly(self):
        negate = self.at_op("-")
        if negate:
            self.next()
        acc = self.factors()
        if negate:
            acc = -acc
        while self.at_op("+", "-"):
            op = self.next().value
            t = self.factors()
            acc = acc - t if op == "-" else acc + t
        return acc


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
    comps = [one_form.components.get((k,), chart.zero_poly())
             for k in range(chart.n)]
    return VectorField(chart, comps)


def parse_polynomial(text, chart):
    """Parse a bare coefficient expression (a 0-form body)."""
    form = parse_form(text, chart, expected_degree=0)
    return form.components.get((), chart.zero_poly())


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


def _coeff_str(c, den, complex_mode):
    """(negative, body) for the coefficient c/den, with the sign pulled out
    to the monomial join; c is a numerator or an (re, im) numerator pair."""
    if not complex_mode:
        return c < 0, _ratio(abs(c), den)
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


def poly_str(p: Polynomial) -> str:
    """Canonical polynomial rendering: monomials in descending exponent order.

    Reads the packed keys directly: numeric key order is exponent-tuple
    order.
    """
    if p.is_zero():
        return "0"
    bits = []
    for key in sorted(p.nums, reverse=True):
        neg, body = _coeff_str(p.nums[key], p.den, p.complex_mode)
        vars_part = [f"x{k}" if e == 1 else f"x{k}^{e}"
                     for k, e in enumerate(_unpack(key, p.n)) if e]
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
            if not _fully_parenthesized(body):
                body = f"({body})"
            parts.append(f"{body}*{basis}")
    return " + ".join(parts)


def _fully_parenthesized(s: str) -> bool:
    if not (s.startswith("(") and s.endswith(")")):
        return False
    depth = 0
    for k, c in enumerate(s):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return k == len(s) - 1
    return False
