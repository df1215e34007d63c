"""The accumulation kernels against a term-by-term fold.

Every form operation builds each output component with one call to
`scalars.term_sum`, whose finished terms are products, scaled polynomials
and partial derivatives, each with its multiplier read by the adder that
made it; `combine` does so for a whole linear combination of wedges, and
Polynomial's own `+`, `-` and `partial` are term_sum calls too.  Each is
compared here with the fold the kernel replaced,
written out in this file: one Polynomial product, partial derivative or
scaling per term, summed with `+`.  `term_sum` with every kind of term in
one call, each adder's terms, `+`, `-`, `partial` and
`scalars.monomial_sum`, which builds every polynomial given as loose
monomials, are also compared with folds over plain Fractions, which share
no code with the kernel.  The generated polynomials mix denominators, run in both
scalar modes, and include inputs that cancel to the zero form.  The
exponent guard must still fire when the products that reach past the
limit cancel, and a derivative of a product must see the product's
exponents before it lowers them; it reads a product's factors, and raises
exactly when a brute-force look at every pair of their keys finds an
exponent past the limit.  A kernel leaves its result's common
factor for the first read, so values built along routes that leave different factors must
still compare, hash and read as one canonical value.  A derivative must
leave key fields above the n coordinate fields alone.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

from premetric.electrodynamics import LinearLocal  # noqa: E402
from premetric.errors import StructuralError  # noqa: E402
from premetric.forms import (Chart, Form, VectorField, _built,  # noqa: E402
                             _contract_terms, _d_terms, _top_d_terms, _Top, _wedge_table,
                             _wedge_terms, combine, contract, ext_d, wedge)
from premetric.hodge import MetricSpec, hodge  # noqa: E402
from premetric.randgen import random_polynomial  # noqa: E402
from premetric import scalars  # noqa: E402
from premetric.scalars import (MAX_EXPONENT, Polynomial, _pack,  # noqa: E402
                               monomial_sum, term_sum)

EXAMPLES = settings(max_examples=30, deadline=None)
COEFF = st.fractions(min_value=-9, max_value=9, max_denominator=12)


# a common factor for every coefficient of a polynomial, so that its
# denominator and content share 2, 3 and 5 with the multipliers' parts
FACTORS = (1, 30, Fraction(1, 30), Fraction(6, 35), Fraction(35, 6))


def polys(n, complex_mode):
    coeff = st.tuples(COEFF, COEFF) if complex_mode else COEFF
    exps = st.tuples(*[st.integers(0, 3)] * n)

    def build(terms, f):
        return Polynomial(n, {e: (c[0] * f, c[1] * f) if complex_mode else c * f
                              for e, c in terms.items()}, complex_mode)

    return st.builds(build, st.dictionaries(exps, coeff, max_size=3),
                     st.sampled_from(FACTORS))


def forms(chart, p, twist):
    return st.builds(
        lambda comps: Form(chart, p, twist, comps),
        st.dictionaries(st.sampled_from(list(combinations(range(chart.n), p))),
                        polys(chart.n, chart.complex_mode), max_size=5))


@st.composite
def charts(draw):
    return Chart(draw(st.integers(2, 4)), complex_mode=draw(st.booleans()))


@st.composite
def form_pairs(draw):
    chart = draw(charts())
    p, q = draw(st.integers(0, chart.n)), draw(st.integers(0, chart.n))
    return (draw(forms(chart, p, draw(st.booleans()))),
            draw(forms(chart, q, draw(st.booleans()))))


@st.composite
def form_and_field(draw):
    chart = draw(charts())
    a = draw(forms(chart, draw(st.integers(0, chart.n)), draw(st.booleans())))
    u = VectorField(chart, [draw(polys(chart.n, chart.complex_mode))
                            for _ in range(chart.n)])
    return a, u


# -- the term-by-term fold -----------------------------------------------------


def inversions(seq):
    return sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
               if seq[i] > seq[j])


def signed(sign, poly):
    return -poly if sign < 0 else poly


def fold_into(out, idx, term):
    out[idx] = out[idx] + term if idx in out else term


def nonzero(out):
    return {idx: p for idx, p in out.items() if not p.is_zero()}


def const(chart, m):
    return Polynomial.constant(chart.n, m, chart.complex_mode)


def finished(terms):
    """(m, a, b) triples as term_sum's finished terms (num, d, a, b): m read
    as num/dm, d = dm times the raw dens of a and of b's Polynomial; b is a
    Polynomial, None, an int or a pair (c, k) as term_sum reads it."""
    out = []
    for m, a, b in terms:
        m = Fraction(m)
        d = m.denominator * a._den
        if isinstance(b, Polynomial):
            d *= b._den
        elif isinstance(b, tuple):
            d *= b[0]._den
        out.append((m.numerator, d, a, b))
    return out


def summed(n, mode, terms):
    """term_sum of the (m, a, b) triples."""
    return term_sum(n, mode, finished(terms))


def fold_wedge(a, b):
    out = {}
    for ia, pa in a.components.items():
        for ib, pb in b.components.items():
            if set(ia) & set(ib):
                continue
            fold_into(out, tuple(sorted(ia + ib)),
                      signed(-1 if inversions(ia + ib) % 2 else 1, pa * pb))
    return nonzero(out)


def fold_ext_d(a):
    out = {}
    for idx, poly in a.components.items():
        for k in range(a.chart.n):
            if k not in idx:
                odd = sum(1 for i in idx if i < k) % 2
                fold_into(out, tuple(sorted(idx + (k,))),
                          signed(-1 if odd else 1, poly.partial(k)))
    return nonzero(out)


def fold_contract(u, a):
    out = {}
    for idx, poly in a.components.items():
        for j, i in enumerate(idx):
            fold_into(out, idx[:j] + idx[j + 1:],
                      signed(-1 if j % 2 else 1, u.components[i] * poly))
    return nonzero(out)


def fold_hodge(metric, a):
    # g^-1, its minors and sqrt|det g| come from sympy, not from the metric
    sympy = pytest.importorskip("sympy")
    chart, p = a.chart, a.degree
    g = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                      for row in metric.g])
    g_inv, root = g.inv(), sympy.sqrt(abs(g.det()))
    out = {}
    for k_idx in combinations(range(chart.n), p):
        j_idx = tuple(i for i in range(chart.n) if i not in k_idx)
        volume = (Fraction(int(root.p), int(root.q)) * chart.orientation
                  * (-1 if inversions(k_idx + j_idx) % 2 else 1))
        raised = None
        for i_idx, poly in a.components.items():
            minor = g_inv.extract(list(k_idx), list(i_idx)).det()
            if minor:
                term = poly * const(chart, Fraction(int(minor.p), int(minor.q)))
                raised = term if raised is None else raised + term
        if raised is not None:
            out[j_idx] = raised * const(chart, volume)
    return nonzero(out)


# -- properties ----------------------------------------------------------------


@EXAMPLES
@given(form_pairs())
def test_wedge_is_the_fold(pair):
    a, b = pair
    assert wedge(a, b).components == fold_wedge(a, b)


@pytest.mark.parametrize("mode", [False, True])
def test_wedge_summands_walk_disjoint_partners_like_the_fold(mode):
    # each component of a walks its row of disjoint partners and looks
    # them up in b: a sparse b against full rows, a full b against
    # one-entry rows and rows past top degree; at n = 4 a 1-form's row
    # against 1-forms has three entries, against 3-forms one, and a
    # 2-form's row against 3-forms none
    chart = Chart(4, complex_mode=mode)
    rng = random.Random(f"wedge-walk:{mode}")

    def dense(p, twist, indices=None):
        indices = list(combinations(range(4), p)) if indices is None else indices
        return Form(chart, p, twist, {
            idx: random_polynomial(rng, 4, 2, mode) + chart.variable(idx[0])
            for idx in indices})

    def fold_sum(terms):
        out = {}
        for m, a, b in terms:
            for idx, poly in fold_wedge(a, b).items():
                fold_into(out, idx, poly * const(chart, m))
        return nonzero(out)

    half = Fraction(1, 2)
    assert [len(_wedge_table(4, p, q)[tuple(range(p))])
            for p, q in ((1, 1), (1, 3), (2, 3))] == [3, 1, 0]
    one = [(half, dense(1, False), dense(1, True, [(2,)])),
           (-half, dense(1, False), dense(1, True, [(0,)]))]
    full = [(half, dense(1, False), dense(3, True)),
            (-half, dense(1, False), dense(3, True))]
    past = [(half, dense(2, False), dense(3, True)),
            (-half, dense(2, False), dense(3, True))]
    for terms in (one, full):
        total = combine(*[(m, wedge, a, b) for m, a, b in terms])
        assert total.components == fold_sum(terms) != {}
        assert (total.degree, total.twist) == (terms[0][1].degree + terms[0][2].degree, True)
    total = combine(*[(m, wedge, a, b) for m, a, b in past])
    assert (total.degree, total.twist, total.components) == (5, True, {})


@EXAMPLES
@given(st.data())
def test_wedge_summands_are_the_combination_of_their_wedges(data):
    # total degrees run past n, where every wedge is the zero form
    chart = data.draw(charts())
    degree = data.draw(st.integers(0, 2 * chart.n))
    twist = data.draw(st.booleans())
    terms = []
    for _ in range(data.draw(st.integers(1, 4))):
        p = data.draw(st.integers(max(0, degree - chart.n), min(degree, chart.n)))
        ta = data.draw(st.booleans())
        terms.append((data.draw(COEFF), data.draw(forms(chart, p, ta)),
                      data.draw(forms(chart, degree - p, ta != twist))))
    total = combine(*[(m, wedge, a, b) for m, a, b in terms])
    expect = combine(*[(m, wedge(a, b)) for m, a, b in terms])
    assert (total.degree, total.twist) == (degree, twist)
    assert total.components == expect.components
    if degree > chart.n:
        assert total.components == {}


@EXAMPLES
@given(form_and_field())
def test_ext_d_and_contract_are_the_fold(case):
    a, u = case
    assert ext_d(a).components == fold_ext_d(a)
    assert contract(u, a).components == fold_contract(u, a)


@EXAMPLES
@given(st.data())
def test_hodge_is_the_fold(data):
    chart = data.draw(charts())
    chart = Chart(chart.n, data.draw(st.sampled_from((1, -1))), chart.complex_mode)
    squares = st.sampled_from((1, -1, 4, Fraction(-1, 4), Fraction(9, 4)))
    metric = MetricSpec.diagonal(chart, [data.draw(squares) for _ in range(chart.n)])
    a = data.draw(forms(chart, data.draw(st.integers(0, chart.n)), False))
    assert hodge(metric, a).components == fold_hodge(metric, a)


@EXAMPLES
@given(st.data())
def test_combine_and_linear_local_are_the_fold(data):
    chart = data.draw(charts())
    p = data.draw(st.integers(0, chart.n))
    terms = [(data.draw(COEFF), data.draw(forms(chart, p, True)))
             for _ in range(data.draw(st.integers(1, 4)))]
    out = {}
    for m, form in terms:
        for idx, poly in form.components.items():
            fold_into(out, idx, poly * const(chart, m))
    assert combine(*terms).components == nonzero(out)

    if 1 <= p <= chart.n - 1:
        F = terms[0][1]
        F = Form(chart, p, False, F.components)
        law = LinearLocal(chart, p, [[data.draw(polys(chart.n, chart.complex_mode))
                                      for _ in combinations(range(chart.n), p)]
                                     for _ in combinations(range(chart.n), chart.n - p)])
        out = {}
        for jdx, row in zip(law.rows, law.chi):
            for entry, idx in zip(row, law.cols):
                if idx in F.components:
                    fold_into(out, jdx, entry * F.components[idx])
        assert law.apply(F).components == nonzero(out)


@EXAMPLES
@given(st.data())
def test_polynomial_kernels_are_the_fold(data):
    chart = data.draw(charts())
    n, mode = chart.n, chart.complex_mode
    terms = [(data.draw(COEFF), data.draw(polys(n, mode)),
              data.draw(st.none() | polys(n, mode)))
             for _ in range(data.draw(st.integers(0, 5)))]
    total = Polynomial.zero(n, mode)
    for m, a, b in terms:
        total = total + const(chart, m) * (a if b is None else a * b)
    assert summed(n, mode, terms) == total

    derivs = [(m, a, data.draw(st.integers(0, n - 1))) for m, a, _ in terms]
    total = Polynomial.zero(n, mode)
    for m, a, i in derivs:
        total = total + const(chart, m) * a.partial(i)
    assert summed(n, mode, derivs) == total


@EXAMPLES
@given(form_pairs())
def test_full_cancellation_gives_the_canonical_zero(pair):
    a, b = pair
    assert combine((1, a), (-1, a)).components == {}
    assert combine((Fraction(1, 3), a), (Fraction(-1, 3), a)).components == {}
    if a.degree % 2:
        # every dx_i ^ dx_j term of a ^ a meets its dx_j ^ dx_i partner
        assert wedge(a, a).components == {}
    n, mode = a.chart.n, a.chart.complex_mode
    for pa in a.components.values():
        for pb in b.components.values():
            zero = summed(n, mode, [(Fraction(2, 7), pa, pb), (Fraction(-2, 7), pb, pa)])
            assert zero.is_zero() and zero.den == 1


def fraction_poly(p):
    """exponent tuple -> (re, im) Fractions of p, in either mode."""
    return {e: c if p.complex_mode else (c, Fraction(0)) for e, c in p.terms.items()}


def fraction_term_fold(terms):
    """The sum of the (m, a, b) triples over plain Fractions: m*a*b, m*a,
    m * d(a)/dx_b or m * d(a*c)/dx_k as b is a Polynomial, None, an int or
    a pair (c, k)."""
    out = {}

    def add(e, re, im, k=None):
        if k is not None:
            if not e[k]:
                return
            re, im, e = re * e[k], im * e[k], e[:k] + (e[k] - 1,) + e[k + 1:]
        r, i = out.get(e, (0, 0))
        out[e] = r + re, i + im

    for m, a, b in terms:
        b, k = b if isinstance(b, tuple) else (b, None)
        for ea, (ar, ai) in fraction_poly(a).items():
            if b is None:
                add(ea, m * ar, m * ai)
            elif isinstance(b, int):
                add(ea, m * ar, m * ai, b)
            else:
                for eb, (br, bi) in fraction_poly(b).items():
                    add(tuple(x + y for x, y in zip(ea, eb)),
                        m * (ar * br - ai * bi), m * (ar * bi + ai * br), k)
    return {e: c for e, c in out.items() if c != (0, 0)}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mixed_term_sum_is_the_fraction_fold(data):
    # products, scaled polynomials, partial derivatives and derivatives
    # of products in one call, with zero multipliers, zero polynomials
    # and, sometimes, every term again with the opposite sign
    chart = data.draw(charts())
    n, mode = chart.n, chart.complex_mode
    second = (st.none() | polys(n, mode) | st.integers(0, n - 1)
              | st.tuples(polys(n, mode), st.integers(0, n - 1)))
    terms = [(data.draw(st.integers(-3, 3) | COEFF), data.draw(polys(n, mode)),
              data.draw(second)) for _ in range(data.draw(st.integers(0, 6)))]
    if data.draw(st.booleans()):
        terms += [(-m, a, b) for m, a, b in terms]
    total = summed(n, mode, terms)
    assert fraction_poly(total) == fraction_term_fold(terms)
    assert_canonical(total)


@EXAMPLES
@given(st.data())
def test_add_sub_and_partial_are_the_fraction_fold(data):
    # +, - and partial are term_sum calls over the operands' raw slots,
    # which may carry a common factor
    chart = data.draw(charts())
    n, mode = chart.n, chart.complex_mode
    a, b = (data.draw(routed_polys(n, mode, data.draw(polys(n, mode)))) for _ in range(2))
    i = data.draw(st.integers(0, n - 1))
    for got, terms in ((a + b, [(1, a, None), (1, b, None)]),
                       (a - b, [(1, a, None), (-1, b, None)]),
                       (a - a, [(1, a, None), (-1, a, None)]),
                       (a.partial(i), [(1, a, i)])):
        assert fraction_poly(got) == fraction_term_fold(terms)
        assert_canonical(got)


@pytest.mark.parametrize("mode", [False, True])
def test_term_sum_lone_term_shortcuts(mode, monkeypatch):
    rng = random.Random(f"lone:{mode}")
    a, b = (random_polynomial(rng, 3, 3, mode) for _ in range(2))
    a = a + Polynomial.variable(3, 1, mode)
    zero = Polynomial.zero(3, mode)
    products = []
    real_mul = Polynomial.__mul__
    monkeypatch.setattr(Polynomial, "__mul__",
                        lambda p, q: products.append(q) or real_mul(p, q))
    # m = 1 and no derivative: the factor itself, or one plain product
    assert summed(3, mode, [(1, a, None)]) is a
    assert summed(3, mode, [(Fraction(1), a, None)]) is a
    assert products == []
    assert summed(3, mode, [(1, a, b)]) == real_mul(a, b)
    assert len(products) == 1
    # any other lone term, or more than one term, goes through the accumulator
    del products[:]
    assert summed(3, mode, [(1, a, 1)]) == a.partial(1) != a
    assert summed(3, mode, [(1, a, (b, 1))]) == real_mul(a, b).partial(1)
    assert summed(3, mode, [(1, a, (zero, 1)), (0, a, (b, 0))]).is_zero()
    assert summed(3, mode, [(1, a, b), (0, a, 1)]) == real_mul(a, b)
    assert summed(3, mode, [(-1, a, None)]) == -a
    assert summed(3, mode, [(Fraction(2, 3), a, b)]) == real_mul(a, b).scale(Fraction(2, 3))
    # the shortcut is keyed on m == 1, not on its numerator
    half = Fraction(1, 2)
    assert summed(3, mode, [(half, a, None)]) == a.scale(half) != a
    assert summed(3, mode, [(half, a, b)]) == real_mul(a, b).scale(half)
    assert summed(3, mode, [(Fraction(-1), a, None)]) == -a
    assert products == [] and term_sum(3, mode, []) == zero


@st.composite
def monomial_lists(draw):
    """(n, mode, monomials): unreduced dens, keys from a small pool so that
    they repeat, and sometimes every monomial again negated."""
    n, mode = draw(st.integers(1, 3)), draw(st.booleans())
    num = st.integers(-12, 12)
    monomials = draw(st.lists(st.tuples(
        st.tuples(num, num) if mode else num, st.integers(1, 36),
        st.tuples(*[st.integers(0, 1)] * n)), max_size=8))
    if draw(st.booleans()):
        monomials += [((-v[0], -v[1]) if mode else -v, 2 * d, e)
                      for v, d, e in monomials for _ in range(2)]
    return n, mode, monomials


def fraction_fold(monomials, mode):
    out = {}
    for v, d, e in monomials:
        re, im = v if mode else (v, 0)
        r, i = out.get(e, (0, 0))
        out[e] = r + Fraction(re, d), i + Fraction(im, d)
    return {e: c if mode else c[0] for e, c in out.items() if c != (0, 0)}


@EXAMPLES
@given(monomial_lists())
def test_monomial_sum_is_the_fraction_fold(case):
    n, mode, monomials = case
    p = monomial_sum(n, mode, [(v, d, _pack(e)) for v, d, e in monomials])
    assert dict(p.terms) == fraction_fold(monomials, mode)
    parts = [x for v in p.nums.values() for x in (v if mode else (v,))]
    assert p.den > 0 and gcd(p.den, *parts) == 1
    assert (0, 0) not in p.nums.values() and 0 not in p.nums.values()


@pytest.mark.parametrize("mode", [False, True])
def test_monomial_sum_that_cancels_is_the_canonical_zero(mode):
    one, two = ((3, -1), (-6, 2)) if mode else (3, -6)
    key = _pack((2, 1))
    zero = monomial_sum(2, mode, [(one, 4, key), (two, 8, key), (one, 12, 0),
                                  (two, 24, 0)])
    assert zero.den == 1 and zero.nums == {}
    assert monomial_sum(2, mode, []).den == 1


# -- the derivative of a product -------------------------------------------------
#
# d of an (n-1)-form of products is taken from its unsummed terms: the term
# (m, a, (b, k)) is m * d(a * b)/dx_k, and each product is read once.


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_derivative_of_a_product_is_the_derivative_of_the_built_product(data):
    # int, negative and Fraction multipliers, inputs that may carry a common
    # factor, and all four term kinds in one call
    n, mode = data.draw(st.integers(2, 6)), data.draw(st.booleans())
    multiplier = st.integers(-3, 3) | COEFF

    def poly():
        return data.draw(routed_polys(n, mode, data.draw(polys(n, mode))))

    fused, built = [], []
    for _ in range(data.draw(st.integers(1, 4))):
        m, a, b, k = data.draw(multiplier), poly(), poly(), data.draw(st.integers(0, n - 1))
        fused.append((m, a, (b, k)))
        built.append((m, a * b, k))
    others = [(data.draw(multiplier), poly(),
               data.draw(st.none() | polys(n, mode) | st.integers(0, n - 1)))
              for _ in range(data.draw(st.integers(0, 3)))]
    assert summed(n, mode, fused) == summed(n, mode, built)
    total = summed(n, mode, others + fused)
    assert total == summed(n, mode, others + built)
    assert_canonical(total)


@EXAMPLES
@given(st.data())
def test_d_of_unsummed_terms_is_d_of_the_built_form(data):
    # an (n-1)-form of wedge and contraction terms, differentiated from its
    # terms and from the same form built by wedge, contract and combine
    chart = data.draw(charts())
    n, twist = chart.n, data.draw(st.booleans())
    p = data.draw(st.integers(0, n - 1))
    a, b = data.draw(forms(chart, p, False)), data.draw(forms(chart, n - 1 - p, twist))
    c = data.draw(forms(chart, n, twist))
    u = VectorField(chart, [data.draw(polys(n, chart.complex_mode)) for _ in range(n)])
    ma, mc, m = data.draw(COEFF), data.draw(COEFF), data.draw(st.sampled_from((1, -1)))
    top = _Top(chart, twist, _contract_terms(_wedge_terms({}, ma, a, b), mc, u, c))
    fused = combine((m, ext_d, top))
    built = combine((ma, wedge(a, b)), (mc, contract(u, c)))
    assert (fused.degree, fused.twist) == (n, twist)
    assert fused.components == combine((m, ext_d(built))).components


# -- the exponent guard ----------------------------------------------------------


def test_exponent_guard_fires_even_when_the_terms_cancel():
    chart = Chart(3)
    big, rest = 100, MAX_EXPONENT + 1 - 100
    x_big = Polynomial(3, {(big, 0, 0): 1})
    x_rest = Polynomial(3, {(rest, 0, 0): 1})
    # (x^big dx0 + x^big dx1) ^ (x^rest dx0 + x^rest dx1): both products
    # reach x0^128 in the dx0^dx1 slot and cancel
    a = Form(chart, 1, False, {(0,): x_big, (1,): x_big})
    b = Form(chart, 1, False, {(0,): x_rest, (1,): x_rest})
    with pytest.raises(StructuralError, match="exceeds the limit"):
        wedge(a, b)
    # a ^ b reaches x0^128 in the dx0^dx1 slot twice; the sum of the two
    # wedges cancels but still raises
    with pytest.raises(StructuralError, match="exceeds the limit"):
        combine((1, wedge, a, b), (-1, wedge, a, b))
    # u _| (x^rest dx0^dx1 + x^rest dx1^dx2) with u = (x^big, 0, x^big):
    # the dx1 slot gets x^128 - x^128
    u = VectorField(chart, [x_big, chart.zero_poly(), x_big])
    c = Form(chart, 2, False, {(0, 1): x_rest, (1, 2): x_rest})
    with pytest.raises(StructuralError, match="exceeds the limit"):
        contract(u, c)
    # one below the limit the same shapes cancel to zero
    x_low = Polynomial(3, {(rest - 1, 0, 0): 1})
    assert wedge(a, Form(chart, 1, False, {(0,): x_low, (1,): x_low})).is_zero()
    assert contract(u, Form(chart, 2, False, {(0, 1): x_low, (1, 2): x_low})).is_zero()
    low = Form(chart, 1, False, {(0,): x_low, (1,): x_low})
    assert combine((1, wedge, a, low), (-1, wedge, a, low)).is_zero()


@pytest.mark.parametrize("mode", [False, True])
def test_exponent_guard_fires_in_a_mixed_sum(mode, monkeypatch):
    # x0^big * x0^rest - x0^rest * x0^big cancels beside scaled and
    # derivative terms of valid polynomials, and still raises
    big, rest = 100, MAX_EXPONENT + 1 - 100
    one = (1, 0) if mode else 1
    x_big, x_rest = (Polynomial(2, {(e, 1): one}, mode) for e in (big, rest))
    others = [(Fraction(1, 3), x_big, None), (2, x_rest, 0), (-1, x_big, 1)]
    with pytest.raises(StructuralError, match="exceeds the limit"):
        summed(2, mode, [*others, (1, x_big, x_rest), (-1, x_rest, x_big)])
    low = Polynomial(2, {(rest - 1, 0): one}, mode)
    assert (summed(2, mode, [*others, (1, x_big, low), (-1, low, x_big)])
            == summed(2, mode, others))
    # the guard reads each product's factors: the exact check runs once for
    # each product or derivative-of-a-product term with an exponent of 64
    # or more in a factor, and for no other term, whatever its keys sum to
    calls = []
    real = scalars._check_guard
    monkeypatch.setattr(scalars, "_check_guard",
                        lambda *args: calls.append(args) or real(*args))
    summed(2, mode, others)
    assert calls == []
    small = Polynomial(2, {(63, 1): one}, mode)
    summed(2, mode, [*others, (1, small, small), (1, small, (small, 0))])
    assert calls == []
    summed(2, mode, [*others, (1, x_big, low)])
    assert calls == [(x_big._nums, low._nums, 2)]
    calls.clear()
    summed(2, mode, [*others, (1, low, x_big), (1, small, low), (-1, low, (x_big, 1))])
    assert calls == [(low._nums, x_big._nums, 2)] * 2


@pytest.mark.parametrize("mode", [False, True])
def test_exponent_guard_sees_a_derivative_of_a_product_before_it_lowers_it(mode):
    # x0^64 * x0^64 reaches x0^128, which d/dx0 would lower to the valid
    # x0^127; x1^64 * x1^64 has no x0, so d/dx0 drops it.  Both raise, as
    # (a * a).partial(0) does, in term_sum and through d of a 1-form at n = 2
    one = (1, 0) if mode else 1
    chart = Chart(2, complex_mode=mode)
    for exps in ((64, 0), (0, 64)):
        a = Polynomial(2, {exps: one}, mode)
        with pytest.raises(StructuralError, match="exceeds the limit"):
            (a * a).partial(0)
        with pytest.raises(StructuralError, match="exceeds the limit"):
            summed(2, mode, [(1, a, (a, 0))])
        groups = _wedge_terms({}, 1, Form(chart, 0, False, {(): a}),
                              Form(chart, 1, True, {(1,): a}))
        with pytest.raises(StructuralError, match="exceeds the limit"):
            combine((1, ext_d, _Top(chart, True, groups)))
    # one below the limit the fused term is the derivative of the product
    a, low = (Polynomial(2, {(e, 0): one}, mode) for e in (64, 63))
    assert summed(2, mode, [(1, a, (low, 0))]) == (a * low).partial(0) != a


# Exponents that leave some fields of a key at 64 or more without passing
# the limit in a product, and ones that pass it: 63 + 64 and 100 + 27
# stay at 127, 64 + 64 and 100 + 28 reach 128.
GUARD_EXPONENTS = (0, 1, 2, 27, 28, 63, 64, 100, 127)


def guard_polys(n, mode):
    coeff = st.tuples(COEFF, COEFF) if mode else COEFF
    exps = st.tuples(*[st.sampled_from(GUARD_EXPONENTS)] * n)
    return st.builds(lambda terms: Polynomial(n, terms, mode),
                     st.dictionaries(exps, coeff, max_size=3))


def overflows(a, b):
    """Brute force: does some key of a plus some key of b have an exponent
    past the limit in some field?"""
    return any(x + y > MAX_EXPONENT for ea in a.terms for eb in b.terms
               for x, y in zip(ea, eb))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_exponent_guard_is_the_brute_force_pair_check(data):
    # products and derivatives of products beside scaled and differentiated
    # terms: the sum raises exactly when some pair of a product's keys
    # passes the limit in some field, whether or not the pair cancels, a
    # zero multiplier drops it or d/dx_k would lower or drop it
    n, mode = data.draw(st.integers(2, 3)), data.draw(st.booleans())
    multiplier = st.integers(-2, 2) | COEFF
    second = (st.none() | st.integers(0, n - 1) | guard_polys(n, mode)
              | st.tuples(guard_polys(n, mode), st.integers(0, n - 1)))
    terms = [(data.draw(multiplier), data.draw(guard_polys(n, mode)), data.draw(second))
             for _ in range(data.draw(st.integers(1, 4)))]
    if data.draw(st.booleans()):
        terms += [(-m, a, b) for m, a, b in terms]
    factors = [(a, b[0] if isinstance(b, tuple) else b) for _, a, b in terms
               if isinstance(b, (Polynomial, tuple))]
    if any(overflows(a, c) for a, c in factors):
        with pytest.raises(StructuralError) as err:
            summed(n, mode, terms)
        assert str(err.value) == f"product exponent exceeds the limit {MAX_EXPONENT}"
    else:
        assert fraction_poly(summed(n, mode, terms)) == fraction_term_fold(terms)
    for a, c in factors:
        if overflows(a, c):
            with pytest.raises(StructuralError, match="^product exponent exceeds"):
                a * c
        else:
            assert fraction_poly(a * c) == fraction_term_fold([(1, a, c)])


@pytest.mark.parametrize("mode", [False, True])
@pytest.mark.parametrize("ea,eb,raises", [
    ((100, 0), (0, 100), False),   # x0^100 * x1^100: high fields, apart
    ((64, 0), (63, 0), False),     # x0^127
    ((100, 127), (27, 0), False),  # x0^127 * x1^127
    ((64, 0), (64, 0), True),
    ((100, 3), (28, 0), True),
    ((0, 127), (5, 1), True),
])
def test_exponent_guard_on_named_factors(mode, ea, eb, raises):
    one = (1, 0) if mode else 1
    a, b = Polynomial(2, {ea: one, (1, 1): one}, mode), Polynomial(2, {eb: one}, mode)
    for terms in ([(1, a, b)], [(1, b, (a, 0))], [(3, a, None), (1, a, (b, 1)), (-1, b, 0)]):
        if raises:
            with pytest.raises(StructuralError, match="^product exponent exceeds the limit 127$"):
                summed(2, mode, terms)
        else:
            assert fraction_poly(summed(2, mode, terms)) == fraction_term_fold(terms)
    if raises:
        with pytest.raises(StructuralError, match="^product exponent exceeds the limit 127$"):
            a * b
    else:
        assert fraction_poly(a * b) == fraction_term_fold([(1, a, b)])


@EXAMPLES
@given(st.data())
def test_key_bits_are_the_or_of_the_raw_keys_and_touch_no_raw_slot(data):
    # a factor, canonical or loose, keeps the OR of its raw keys from the
    # first product it is in; reading it changes no raw slot
    n, mode = data.draw(st.integers(2, 4)), data.draw(st.booleans())
    a, b = (data.draw(routed_polys(n, mode, data.draw(guard_polys(n, mode))))
            for _ in range(2))
    assert a._bits is None and b._bits is None
    raw = [(p._den, p._nums, dict(p._nums), p._loose, p._canon) for p in (a, b)]
    try:
        summed(n, mode, [(1, a, (b, 0))])
    except StructuralError:
        pass
    for p, (den, nums, copy, loose, canon) in zip((a, b), raw):
        ored = 0
        for k in nums:
            ored |= k
        assert p._bits == ored
        assert (p._den, p._nums, p._loose, p._canon) == (den, nums, loose, canon)
        assert p._nums is nums and p._nums == copy


def test_unsummed_d_takes_a_unit_multiplier():
    chart = Chart(3)
    x = chart.variable(2)
    top = _Top(chart, False, {(0, 1): [(1, 1, x, x)]})
    built = Form(chart, 2, False, {(0, 1): x * x})
    assert top.degree == 2
    assert combine((-1, ext_d, top)) == -ext_d(built) != Form.zero(chart, 3)
    for m in (2, Fraction(1, 2), Fraction(-3)):
        with pytest.raises(StructuralError, match="^d of unsummed terms takes m = \\+-1, got"):
            combine((m, ext_d, top))


# -- finished terms ---------------------------------------------------------------
#
# Each form adder reads its multiplier once per call as integers num/dm and
# emits finished terms (num, d, a, b), d being dm times the raw dens of the
# term's factors; term_sum sums them as the Fraction fold sums the (m, a, b)
# triples they stand for.


def sign_of(indices):
    return -1 if inversions(indices) % 2 else 1


def constant_of(poly):
    """The rational constant term of poly, its real part in complex mode."""
    if poly.complex_mode:
        return poly.terms.get((0,) * poly.n, (0, 0))[0]
    return poly.terms.get((0,) * poly.n, 0)


def adder_triples(kind, m, *args):
    """The (m, a, b) triples of one adder's terms, by output index, written
    from the definitions: m * (a ^ b), m * (u _| a), m * d(a), or m * d of
    the (n-1)-form a ^ b left unsummed."""
    out = {}
    if kind in ("wedge", "top-d"):
        a, b = args
        n = a.chart.n
        for ia, pa in a.components.items():
            for ib, pb in b.components.items():
                if set(ia) & set(ib):
                    continue
                idx, c = tuple(sorted(ia + ib)), sign_of(ia + ib) * m
                if kind == "wedge":
                    out.setdefault(idx, []).append((c, pa, pb))
                else:
                    k, = set(range(n)) - set(idx)
                    out.setdefault(tuple(range(n)), []).append(
                        (sign_of((k,) + idx) * c, pa, (pb, k)))
    elif kind == "contract":
        u, a = args
        for idx, pa in a.components.items():
            for pos, i in enumerate(idx):
                rest, c, ui = idx[:pos] + idx[pos + 1:], (-1) ** pos * m, u.components[i]
                out.setdefault(rest, []).append(
                    (c, pa, ui) if u.rates is None else (c * constant_of(ui), pa, None))
    else:
        a, = args
        for idx, pa in a.components.items():
            for k in set(range(a.chart.n)) - set(idx):
                out.setdefault(tuple(sorted(idx + (k,))), []).append(
                    (sign_of((k,) + idx) * m, pa, k))
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_each_adder_sums_as_the_fraction_fold_of_its_triples(data):
    # int, negative and Fraction multipliers, factors that may carry a
    # common factor, a polynomial or a rational-constant field, both modes
    chart = data.draw(charts())
    n, mode = chart.n, chart.complex_mode
    m = data.draw(st.integers(-3, 3) | COEFF)

    def form(p):
        f = data.draw(forms(chart, p, data.draw(st.booleans())))
        return Form(chart, p, f.twist, {idx: data.draw(routed_polys(n, mode, c))
                                        for idx, c in f.components.items()})

    p = data.draw(st.integers(0, n - 1))
    a, b, c, e = form(p), form(n - 1 - p), form(data.draw(st.integers(1, n))), form(p)
    if data.draw(st.booleans()):
        u = VectorField(chart, [data.draw(polys(n, mode)) for _ in range(n)])
    else:
        u = VectorField(chart, [chart.const_poly(data.draw(st.integers(-2, 2) | COEFF))
                                for _ in range(n)])
    unit = data.draw(st.sampled_from((1, -1)))
    top = _Top(chart, False, _wedge_terms({}, 1, a, b))
    for groups, triples in (
            (_wedge_terms({}, m, a, b), adder_triples("wedge", m, a, b)),
            (_contract_terms({}, m, u, c), adder_triples("contract", m, u, c)),
            (_d_terms({}, m, e), adder_triples("d", m, e)),
            (_top_d_terms({}, unit, top), adder_triples("top-d", unit, a, b))):
        want = {idx: fold for idx, terms in triples.items() if (fold := fraction_term_fold(terms))}
        got = {idx: fraction_poly(term_sum(n, mode, terms)) for idx, terms in groups.items()}
        assert {idx: fold for idx, fold in got.items() if fold} == want
        built = _built(chart, 0, False, groups).components
        assert {idx: fraction_poly(poly) for idx, poly in built.items()} == want
    # combine adds the terms of its plain summands itself
    assert {idx: fraction_poly(poly) for idx, poly in combine((m, e)).components.items()} == {
        idx: fold for idx, poly in e.components.items()
        if (fold := fraction_term_fold([(m, poly, None)]))}


@pytest.mark.parametrize("mode", [False, True])
def test_lone_unit_terms_are_the_factor_or_one_product(mode, monkeypatch):
    chart = Chart(3, complex_mode=mode)
    rng = random.Random(f"lone-finished:{mode}")
    x0, x2 = chart.variable(0), chart.variable(2)
    F = Form(chart, 1, False, {(i,): random_polynomial(rng, 3, 2, mode) + chart.variable(i)
                               for i in range(3)})
    loose = x0.scale(Fraction(1, 2)) + x0.scale(Fraction(1, 2))
    assert loose._loose and loose._den == 2
    products = []
    real_mul = Polynomial.__mul__
    monkeypatch.setattr(Polynomial, "__mul__",
                        lambda p, q: products.append((p, q)) or real_mul(p, q))
    # a lone linear term with multiplier 1 is the factor object itself
    assert term_sum(3, mode, [(1, loose._den, loose, None)]) is loose
    summed = combine((1, F))
    assert all(summed.components[idx] is poly for idx, poly in F.components.items())
    assert products == []
    # a lone product with multiplier 1 goes through Polynomial.__mul__: a
    # law with one nonzero chi entry per row makes one product per row
    law = LinearLocal(chart, 1, [[x2, 0, 0], [0, 0, 2], [0, Fraction(1, 3), 0]])
    G = law.apply(F)
    assert products == [
        (law.chi[0][0], F.components[(0,)]), (law.chi[1][2], F.components[(2,)]),
        (law.chi[2][1], F.components[(1,)])]
    assert G.components[(0, 1)] == real_mul(x2, F.components[(0,)])
    # a multiplier other than 1, or a derivative, goes through the accumulator
    del products[:]
    half = combine((Fraction(1, 2), F))
    assert all(half.components[idx] != poly for idx, poly in F.components.items())
    assert term_sum(3, mode, [(1, 2 * loose._den, loose, None)]) == loose.scale(Fraction(1, 2))
    assert term_sum(3, mode, [(1, loose._den, loose, 0)]) == loose.partial(0)
    scaled = combine((Fraction(1, 2), wedge, Form(chart, 0, False, {(): x2}), F))
    assert scaled.components[(0,)] == real_mul(x2, F.components[(0,)]).scale(Fraction(1, 2))
    assert products == []


# -- scaling by a number -------------------------------------------------------
#
# Form.scale and Polynomial.scale turn the number into one integer
# multiplier and scale every component in one pass.  The reference is a
# Fraction product per term, read straight off (den, nums).


def multipliers(complex_mode):
    """ints and Fractions with 0 and +-1, and ones whose parts share 2, 3
    and 5 with the FACTORS of polys; in complex mode also (re, im) pairs:
    int pairs, real and imaginary ones, ones with different part
    denominators and 1+i: (1+i)^2 = 2i has content 2, though each factor
    has content 1."""
    plain = st.sampled_from((0, 1, -1, 4, -6, Fraction(-2, 3), Fraction(6, 35))) | COEFF
    if complex_mode:
        return plain | st.tuples(COEFF, COEFF) | st.sampled_from(
            ((0, 0), (1, 0), (-1, 0), (0, 1), (0, 6), (0, -6), (4, 0), (1, 1),
             (0, Fraction(5, 6)), (Fraction(6, 35), 0), (Fraction(1, 2), Fraction(-2, 3)),
             (Fraction(3, 4), Fraction(5, 6))))
    return plain


def fraction_terms(p):
    """key -> coefficient, a Fraction or a (re, im) pair of Fractions."""
    if p.complex_mode:
        return {k: (Fraction(r, p.den), Fraction(i, p.den))
                for k, (r, i) in p.nums.items()}
    return {k: Fraction(v, p.den) for k, v in p.nums.items()}


def fold_scale(p, s):
    re, im = s if isinstance(s, tuple) else (s, 0)
    out = {}
    for k, c in fraction_terms(p).items():
        if p.complex_mode:
            v = (c[0] * re - c[1] * im, c[0] * im + c[1] * re)
            if v != (0, 0):
                out[k] = v
        elif c * re:
            out[k] = c * re
    return out


def assert_canonical(p):
    assert p.den > 0
    parts = [p.den]
    for v in p.nums.values():
        assert v not in (0, (0, 0))
        parts.extend(v if p.complex_mode else (v,))
    assert gcd(*parts) == 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_scaling_is_the_fold(data):
    chart = data.draw(charts())
    n, mode = chart.n, chart.complex_mode
    s = data.draw(multipliers(mode))
    p = data.draw(st.just(Polynomial.zero(n, mode)) | polys(n, mode))
    q = p.scale(s)
    assert_canonical(q)
    assert fraction_terms(q) == fold_scale(p, s)
    if (s if isinstance(s, tuple) else (s, 0)) == (1, 0):
        assert q is p

    a = data.draw(forms(chart, data.draw(st.integers(0, n)), data.draw(st.booleans())))
    pseudo = data.draw(st.booleans())
    b = a.scale(s, pseudo=pseudo)
    assert b.twist == (a.twist != pseudo)
    expected = {idx: fold_scale(poly, s) for idx, poly in a.components.items()}
    assert {idx: fraction_terms(poly) for idx, poly in b.components.items()} == {
        idx: terms for idx, terms in expected.items() if terms}
    for poly in b.components.values():
        assert_canonical(poly)


def test_scaling_errors_keep_their_messages():
    real, gauss = Chart(3), Chart(3, complex_mode=True)
    x, z = real.variable(0), gauss.variable(0)
    mismatch = "^real/complex scalar mode mismatch$"
    # however simple its parts, a pair is refused on a real chart
    for s in ((1, 2), (0, 0), (0, 1), (0, -1), (1, 0)):
        with pytest.raises(StructuralError, match=mismatch):
            x.scale(s)
        with pytest.raises(StructuralError, match=mismatch):
            Polynomial.constant(3, s)
        # the mode is checked before the zero and empty-form shortcuts
        for form in (Form(real, 1, False, {(0,): x}), Form(real, 1, False)):
            with pytest.raises(StructuralError, match=mismatch):
                form.scale(s)
    assert z.scale((0, 1)) == Polynomial(3, {(1, 0, 0): (0, 1)}, True)
    assert z.scale(2) == z.scale((2, 0))
    for chart in (real, gauss):
        p = chart.variable(0)
        form = Form(chart, 1, False, {(0,): p})
        # a bool is refused as a number, by both, and never read as 0 or 1
        for s in (True, False):
            for obj in (form, p):
                with pytest.raises(StructuralError, match=f"^not an exact rational: {s}$"):
                    obj.scale(s)
        for s, shown in ((0.5, "0.5"), (1.0, "1.0"), ("1", "'1'")):
            with pytest.raises(StructuralError, match=f"^not an exact rational: {shown}$"):
                p.scale(s)
            with pytest.raises(StructuralError, match=f"^cannot scale a form by {shown}$"):
                form.scale(s)
    for s, shown in (((True, 0), "True"), ((0, True), "True"), ((0, 1.0), "1.0"),
                     ((1, "1"), "'1'")):
        with pytest.raises(StructuralError, match=f"^not an exact rational: {shown}$"):
            z.scale(s)


# The unit multipliers take short paths: an int skips the Fraction, a
# form scaled by 1 shares its component map, and +-i swaps the parts of
# each numerator.  Each is compared with a route that takes none of them.


@st.composite
def chart_form(draw, complex_mode=None):
    chart = draw(charts())
    if complex_mode is not None:
        chart = Chart(chart.n, complex_mode=complex_mode)
    return draw(forms(chart, draw(st.integers(0, chart.n)), draw(st.booleans())))


@EXAMPLES
@given(chart_form())
def test_scaling_a_form_by_one_shares_its_components(a):
    for pseudo in (False, True):
        b = a.scale(1, pseudo=pseudo)
        assert b.components is a.components
        assert (b.chart, b.degree) == (a.chart, a.degree)
        assert b.twist == (a.twist != pseudo)
    assert a.scale(Fraction(1), pseudo=True).components == a.components


@EXAMPLES
@given(chart_form(complex_mode=True), st.sampled_from((1, -1)), st.booleans())
def test_scaling_by_plus_or_minus_i_is_the_polynomial_product(a, s, pseudo):
    # the constant polynomial +-i goes through the product kernel instead
    b = a.scale((0, s), pseudo=pseudo)
    assert b == a.scale(a.chart.const_poly((0, s)), pseudo=pseudo)
    assert b.twist == (a.twist != pseudo)
    for poly in b.components.values():
        assert_canonical(poly)
    for poly in a.components.values():
        q = poly.scale((0, s))
        assert q == poly * Polynomial.constant(poly.n, (0, s), True)
        assert q.scale((0, -s)) == poly


@EXAMPLES
@given(chart_form(), st.integers(-40, 40) | st.sampled_from((10**30, -(10**30))))
def test_an_int_multiplier_is_its_fraction(a, k):
    assert a.scale(k) == a.scale(Fraction(k))
    assert a.scale(k, pseudo=True) == a.scale(Fraction(k), pseudo=True)
    if a.chart.complex_mode:
        assert a.scale((k, 0)) == a.scale((Fraction(k), Fraction(0)))
        assert a.scale((0, k)) == a.scale((Fraction(0), Fraction(k)))
    for poly in a.components.values():
        q = poly.scale(k)
        assert q == poly.scale(Fraction(k))
        if k:
            assert_canonical(q)
        else:
            assert q.is_zero()


@EXAMPLES
@given(chart_form())
def test_a_zero_multiplier_gives_the_zero_form(a):
    zeros = [0, Fraction(0)] + ([(0, 0), (Fraction(0), 0)] if a.chart.complex_mode else [])
    for s in zeros:
        for pseudo in (False, True):
            b = a.scale(s, pseudo=pseudo)
            assert b.is_zero() and b.twist == (a.twist != pseudo)
            assert b == Form.zero(a.chart, a.degree, b.twist)


# -- reduction on read -----------------------------------------------------------
#
# A kernel drops zeros but leaves the common factor of den and the numerators
# to the first read of den or nums.  Values built along routes that leave
# different factors must be one value to every observer.


def loose_pairs():
    """Fresh (built, canonical) pairs of one value: the built one carries a
    common factor of den and numerators in its slots, the other has none."""
    x0, x1 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    a, b = x0.scale(2), x1.scale(4) + x0.scale(6)
    half = Fraction(1, 2)
    gauss = Polynomial(2, {(1, 0): (half, -half)}, True)
    return [
        (x0.scale(half) * x1.scale(2), x0 * x1),
        (summed(2, False, [(half, a, None), (half, b, None)]), a.scale(half) + b.scale(half)),
        # (1 + i) * (1 - i)/2 * x0 = x0
        (gauss.scale((1, 1)), Polynomial.variable(2, 0, True)),
    ]


OBSERVERS = {
    "eq": lambda p, q: p == q and q == p and not p != q,
    "hash": lambda p, q: hash(p) == hash(q),
    "set": lambda p, q: len({p, q}) == 1,
    "den-nums": lambda p, q: (p.den, p.nums) == (q.den, q.nums),
    "terms": lambda p, q: dict(p.terms) == dict(q.terms),
}


@pytest.mark.parametrize("observer", OBSERVERS)
def test_a_common_factor_is_divided_out_on_read(observer):
    for built, canonical in loose_pairs():
        assert built._loose and built._den != canonical._den
        assert OBSERVERS[observer](built, canonical)
        assert_canonical(built)
        assert_canonical(canonical)


def test_a_sum_that_cancels_reads_as_the_canonical_zero():
    for built, canonical in loose_pairs():
        for zero in (built - canonical, canonical - built):
            assert zero.is_zero() and zero.den == 1 and zero.nums == {}
            assert zero == Polynomial.zero(2, canonical.complex_mode)


def test_a_read_between_adding_and_summing_leaves_the_terms_valid():
    # a finished term holds its factors' raw dens; a read of .den between
    # the adders and the sum (==, printing, or a tracer reading .terms)
    # keeps the canonical copy beside the raw slots, which stay as they are
    half = Fraction(1, 2)

    def loose(p):
        q = p.scale(half) + p.scale(half)  # p over twice its den
        assert q._loose and q._den == 2 * p.den
        return q

    def terms():
        """Fresh factors, most of them loose, and the adders' terms over them:
        d of a _Top of wedge and contraction terms, and d of a 2-form."""
        chart = Chart(3)
        x = [chart.variable(i) for i in range(3)]
        a = Form(chart, 1, False, {(0,): loose(x[1] * x[2] + x[0]), (1,): x[0]})
        b = Form(chart, 1, True, {(1,): loose(x[2].scale(3)), (2,): loose(x[0] * x[0])})
        c = Form(chart, 3, True, {(0, 1, 2): loose(x[0] * x[1])})
        e = Form(chart, 2, True, {(0, 2): loose(x[1] * x[1]), (1, 2): loose(x[0])})
        u = VectorField(chart, [loose(x[2]), loose(x[0] * x[1]), x[1].scale(5)])
        top = _Top(chart, True, _contract_terms(_wedge_terms({}, 1, a, b), half, u, c))
        return top.groups, _d_terms(_top_d_terms({}, -1, top), 3, e)

    def built(groups):
        return [_built(Chart(3), p, True, group).components for p, group in zip((2, 3), groups)]

    unread = built(terms())
    read = terms()
    factors = [f for groups in read for group in groups.values() for _, _, a, b in group
               for f in (a, b[0] if isinstance(b, tuple) else b) if isinstance(f, Polynomial)]
    raw = [(f._den, f._nums) for f in factors]
    reduced = [f.den != den for f, (den, _) in zip(factors, raw)]
    assert any(reduced) and not all(reduced)
    assert built(read) == unread
    assert [(f._den, f._nums) for f in factors] == raw
    assert all(not p.is_zero() for sums in unread for p in sums.values())


@st.composite
def routed_polys(draw, n, mode, base):
    """base along a route that may leave a common factor: unchanged, k*base
    times the constant 1/k, (1/k) * (k*base) in one term_sum, or
    base + r - r in one term_sum for a drawn r."""
    k = draw(st.integers(2, 12))
    route = draw(st.integers(0, 3))
    if route == 1:
        return base.scale(k) * Polynomial.constant(n, Fraction(1, k), mode)
    if route == 2:
        return summed(n, mode, [(Fraction(1, k), base.scale(k), None)])
    if route == 3:
        r = draw(polys(n, mode))
        return summed(n, mode, [(1, base, None), (1, r, None), (-1, r, None)])
    return base


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_equality_is_a_zero_difference_along_every_route(data):
    chart = data.draw(charts())
    n, mode = chart.n, chart.complex_mode
    base = data.draw(polys(n, mode))
    other = data.draw(st.just(base) | polys(n, mode))
    p = data.draw(routed_polys(n, mode, base))
    q = data.draw(routed_polys(n, mode, other))
    same = (p - q).is_zero()  # before == reduces either of them
    assert (p == q) is same and (q == p) is same
    if same:
        assert hash(p) == hash(q)
    assert_canonical(p)
    assert_canonical(q)


def test_derivatives_leave_fields_above_the_coordinates_untouched():
    # a key field above the n coordinate fields (here bit 24 at n = 3) is a
    # constant to partial and ext_d: d/dx0 of 3*h*x0^2*x1 is 6*h*x0*x1
    n, h = 3, 1 << 24
    x0, x1 = 1 << scalars._shift(n, 0), 1 << scalars._shift(n, 1)
    p = scalars._make(n, False, 1, {h + 2 * x0 + x1: 3, 2 * h: 5})
    assert p.partial(0)._nums == {h + x0 + x1: 6} and p.partial(0)._den == 1
    assert p.partial(1)._nums == {h + 2 * x0: 3}
    assert p.partial(2).is_zero()
    assert summed(n, False, [(1, p, (Polynomial.variable(n, 0), 0))])._nums == {
        h + 2 * x0 + x1: 9, 2 * h: 5}
    d = ext_d(Form(Chart(n), 0, False, {(): p}))
    assert {idx: c._nums for idx, c in d.components.items()} == {
        (0,): {h + x0 + x1: 6}, (1,): {h + 2 * x0: 3}}
