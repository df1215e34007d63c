"""The accumulation kernels against a term-by-term fold.

Every form operation builds each output component with one call to
`scalars.poly_sum`, whose terms are products, scaled polynomials and
partial derivatives; `wedge_sum` does so for a whole linear combination
of wedges.  Each is compared here with the fold the kernel replaced,
written out in this file: one Polynomial product, partial derivative or
scaling per term, summed with `+`.  `poly_sum` with all three kinds of
term in one call, and `scalars.monomial_sum`, which builds every
polynomial given as loose monomials, are also compared with folds over
plain Fractions.  The generated polynomials mix denominators, run in both
scalar modes, and include inputs that cancel to the zero form.  The
exponent guard must still fire when the products that reach past the
limit cancel.
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
from premetric.forms import (Chart, Form, VectorField, combine, contract,  # noqa: E402
                             ext_d, wedge, wedge_sum)
from premetric.hodge import MetricSpec, hodge  # noqa: E402
from premetric.randgen import random_polynomial  # noqa: E402
from premetric import scalars  # noqa: E402
from premetric.scalars import (MAX_EXPONENT, Polynomial, _pack,  # noqa: E402
                               monomial_sum, poly_sum)

EXAMPLES = settings(max_examples=30, deadline=None)
COEFF = st.fractions(min_value=-9, max_value=9, max_denominator=12)


def polys(n, complex_mode):
    coeff = st.tuples(COEFF, COEFF) if complex_mode else COEFF
    exps = st.tuples(*[st.integers(0, 3)] * n)
    return st.builds(lambda terms: Polynomial(n, terms, complex_mode),
                     st.dictionaries(exps, coeff, max_size=3))


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
    chart, p = a.chart, a.degree
    minors = metric.compound(p)
    out = {}
    for k_idx in combinations(range(chart.n), p):
        j_idx = tuple(i for i in range(chart.n) if i not in k_idx)
        volume = (metric.sqrt_abs_det * chart.orientation
                  * (-1 if inversions(k_idx + j_idx) % 2 else 1))
        raised = None
        for i_idx, poly in a.components.items():
            if (k_idx, i_idx) in minors:
                term = poly * const(chart, minors[k_idx, i_idx])
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


@EXAMPLES
@given(st.data())
def test_wedge_sum_is_the_combination_of_its_wedges(data):
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
    total = wedge_sum(*terms)
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
    assert poly_sum(n, mode, terms) == total

    derivs = [(m, a, data.draw(st.integers(0, n - 1))) for m, a, _ in terms]
    total = Polynomial.zero(n, mode)
    for m, a, i in derivs:
        total = total + const(chart, m) * a.partial(i)
    assert poly_sum(n, mode, derivs) == total


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
            zero = poly_sum(n, mode, [(Fraction(2, 7), pa, pb),
                                      (Fraction(-2, 7), pb, pa)])
            assert zero.is_zero() and zero.den == 1


def fraction_poly(p):
    """exponent tuple -> (re, im) Fractions of p, in either mode."""
    return {e: c if p.complex_mode else (c, Fraction(0)) for e, c in p.terms.items()}


def fraction_term_fold(terms):
    """The sum of poly_sum's terms over plain Fractions: m*a*b, m*a or
    m * d(a)/dx_b as b is a Polynomial, None or an int."""
    out = {}

    def add(e, re, im):
        r, i = out.get(e, (0, 0))
        out[e] = r + re, i + im

    for m, a, b in terms:
        for ea, (ar, ai) in fraction_poly(a).items():
            if b is None:
                add(ea, m * ar, m * ai)
            elif isinstance(b, int):
                if ea[b]:
                    e = ea[:b] + (ea[b] - 1,) + ea[b + 1:]
                    add(e, m * ea[b] * ar, m * ea[b] * ai)
            else:
                for eb, (br, bi) in fraction_poly(b).items():
                    add(tuple(x + y for x, y in zip(ea, eb)),
                        m * (ar * br - ai * bi), m * (ar * bi + ai * br))
    return {e: c for e, c in out.items() if c != (0, 0)}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mixed_poly_sum_is_the_fraction_fold(data):
    # products, scaled polynomials and partial derivatives in one call,
    # with zero multipliers, zero polynomials and, sometimes, every term
    # again with the opposite sign
    chart = data.draw(charts())
    n, mode = chart.n, chart.complex_mode
    second = st.none() | polys(n, mode) | st.integers(0, n - 1)
    terms = [(data.draw(st.integers(-3, 3) | COEFF), data.draw(polys(n, mode)),
              data.draw(second)) for _ in range(data.draw(st.integers(0, 6)))]
    if data.draw(st.booleans()):
        terms += [(-m, a, b) for m, a, b in terms]
    total = poly_sum(n, mode, terms)
    assert fraction_poly(total) == fraction_term_fold(terms)
    assert_canonical(total)


@pytest.mark.parametrize("mode", [False, True])
def test_poly_sum_lone_term_shortcuts(mode, monkeypatch):
    rng = random.Random(f"lone:{mode}")
    a, b = (random_polynomial(rng, 3, 3, mode) for _ in range(2))
    a = a + Polynomial.variable(3, 1, mode)
    zero = Polynomial.zero(3, mode)
    products = []
    real_mul = Polynomial.__mul__
    monkeypatch.setattr(Polynomial, "__mul__",
                        lambda p, q: products.append(q) or real_mul(p, q))
    # m = 1 and no derivative: the factor itself, or one plain product;
    # zero terms are dropped first
    assert poly_sum(3, mode, [(1, a, None)]) is a
    assert poly_sum(3, mode, [(0, b, None), (Fraction(1), a, None), (2, zero, b),
                              (1, b, zero)]) is a
    assert products == []
    assert poly_sum(3, mode, [(1, a, b), (0, a, 1)]) == real_mul(a, b)
    assert len(products) == 1
    # any other lone term goes through the accumulator
    del products[:]
    assert poly_sum(3, mode, [(1, a, 1)]) == a.partial(1) != a
    assert poly_sum(3, mode, [(-1, a, None)]) == -a
    assert poly_sum(3, mode, [(Fraction(2, 3), a, b)]) == real_mul(a, b).scale(Fraction(2, 3))
    assert products == [] and poly_sum(3, mode, []) == zero


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
        wedge_sum((1, a, b), (-1, a, b))
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
    assert wedge_sum((1, a, low), (-1, a, low)).is_zero()


@pytest.mark.parametrize("mode", [False, True])
def test_exponent_guard_fires_in_a_mixed_sum(mode, monkeypatch):
    # x0^big * x0^rest - x0^rest * x0^big cancels beside scaled and
    # derivative terms of valid polynomials, and still raises
    big, rest = 100, MAX_EXPONENT + 1 - 100
    one = (1, 0) if mode else 1
    x_big, x_rest = (Polynomial(2, {(e, 1): one}, mode) for e in (big, rest))
    others = [(Fraction(1, 3), x_big, None), (2, x_rest, 0), (-1, x_big, 1)]
    with pytest.raises(StructuralError, match="exceeds the limit"):
        poly_sum(2, mode, [*others, (1, x_big, x_rest), (-1, x_rest, x_big)])
    low = Polynomial(2, {(rest - 1, 0): one}, mode)
    assert (poly_sum(2, mode, [*others, (1, x_big, low), (-1, low, x_big)])
            == poly_sum(2, mode, others))
    # no product term: the keys stay in range and the guard is not run
    calls = []
    real = scalars._check_guard
    monkeypatch.setattr(scalars, "_check_guard",
                        lambda *args: calls.append(args) or real(*args))
    poly_sum(2, mode, others)
    assert calls == []
    poly_sum(2, mode, [*others, (1, x_big, low)])
    assert len(calls) == 1


# -- scaling by a number -------------------------------------------------------
#
# Form.scale and Polynomial.scale turn the number into one integer
# multiplier and scale every component in one pass.  The reference is a
# Fraction product per term, read straight off (den, nums).


def multipliers(complex_mode):
    """ints and Fractions with 0 and +-1; in complex mode also (re, im)
    pairs, among them ones with different part denominators."""
    plain = st.sampled_from((0, 1, -1, Fraction(-2, 3))) | COEFF
    if complex_mode:
        return plain | st.tuples(COEFF, COEFF) | st.sampled_from(
            ((0, 0), (1, 0), (-1, 0), (0, 1), (Fraction(1, 2), Fraction(-2, 3)),
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
    p = data.draw(polys(n, mode))
    q = p.scale(s)
    assert_canonical(q)
    assert fraction_terms(q) == fold_scale(p, s)

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
    for s in ((1, 2), (0, 0)):
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
    with pytest.raises(StructuralError, match="^not an exact rational: 0.5$"):
        x.scale(0.5)
    with pytest.raises(StructuralError, match="^cannot scale a form by 0.5$"):
        Form(real, 1, False, {(0,): x}).scale(0.5)
