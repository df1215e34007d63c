"""The accumulation kernels against a term-by-term fold.

Every form operation builds each output component with one call to
`scalars.poly_sum` or `scalars.partial_sum`.  Each is compared here with
the fold the kernels replaced, written out in this file: one Polynomial
product, partial derivative or scaling per term, summed with `+`.  The
generated polynomials mix denominators, run in both scalar modes, and
include inputs that cancel to the zero form.  The exponent guard must
still fire when the products that reach past the limit cancel.
"""

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
                             ext_d, wedge)
from premetric.hodge import MetricSpec, hodge  # noqa: E402
from premetric.scalars import (MAX_EXPONENT, Polynomial, Scalar,  # noqa: E402
                               partial_sum, poly_sum)

EXAMPLES = settings(max_examples=30, deadline=None)
COEFF = st.fractions(min_value=-9, max_value=9, max_denominator=12)


def polys(n, complex_mode):
    coeff = (st.builds(Scalar, COEFF, COEFF) if complex_mode
             else st.builds(Scalar, COEFF))
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
    assert partial_sum(n, mode, derivs) == total


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


# -- scaling by a number -------------------------------------------------------
#
# Form.scale and Polynomial.scale turn the number into one integer
# multiplier and scale every component in one pass.  The reference is a
# Fraction product per term, read straight off (den, nums).


def multipliers(complex_mode):
    """ints, Fractions and Scalars, pseudo-tagged or not, with 0 and +-1;
    Gaussian ones with different part denominators."""
    plain = st.sampled_from((0, 1, -1, Fraction(-2, 3)))
    if complex_mode:
        parts = st.tuples(COEFF, COEFF) | st.sampled_from(
            ((0, 0), (1, 0), (-1, 0), (0, 1), (Fraction(1, 2), Fraction(-2, 3)),
             (Fraction(3, 4), Fraction(5, 6))))
        scalars = st.builds(lambda re_im, pseudo: Scalar(*re_im, pseudo=pseudo),
                            parts, st.booleans())
    else:
        scalars = st.builds(lambda re, pseudo: Scalar(re, pseudo=pseudo),
                            COEFF | st.sampled_from((0, 1, -1)), st.booleans())
    return plain | scalars


def fraction_terms(p):
    """key -> coefficient, a Fraction or a (re, im) pair of Fractions."""
    if p.complex_mode:
        return {k: (Fraction(r, p.den), Fraction(i, p.den))
                for k, (r, i) in p.nums.items()}
    return {k: Fraction(v, p.den) for k, v in p.nums.items()}


def fold_scale(p, s):
    re, im = (s.re, s.im or 0) if isinstance(s, Scalar) else (Fraction(s), 0)
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
    q = p.scale(s.as_plain() if isinstance(s, Scalar) else s)
    assert_canonical(q)
    assert fraction_terms(q) == fold_scale(p, s)

    a = data.draw(forms(chart, data.draw(st.integers(0, n)), data.draw(st.booleans())))
    pseudo = data.draw(st.sampled_from((None, False, True)))
    b = a.scale(s, pseudo=pseudo)
    flip = (isinstance(s, Scalar) and s.pseudo) if pseudo is None else pseudo
    assert b.twist == (a.twist != flip)
    expected = {idx: fold_scale(poly, s) for idx, poly in a.components.items()}
    assert {idx: fraction_terms(poly) for idx, poly in b.components.items()} == {
        idx: terms for idx, terms in expected.items() if terms}
    for poly in b.components.values():
        assert_canonical(poly)


def test_scaling_errors_keep_their_messages():
    real, gauss = Chart(3), Chart(3, complex_mode=True)
    x, z = real.variable(0), gauss.variable(0)
    mismatch = "^real/complex scalar mode mismatch$"
    for chart, poly, s in ((real, x, Scalar(1, 2)), (gauss, z, Scalar(2))):
        with pytest.raises(StructuralError, match=mismatch):
            poly.scale(s)
        with pytest.raises(StructuralError, match=mismatch):
            Form(chart, 1, False, {(0,): poly}).scale(s)
    with pytest.raises(StructuralError, match=mismatch):
        z.scale(Scalar(0))
    for poly, s in ((x, Scalar(2, pseudo=True)), (z, Scalar(0, 1, pseudo=True))):
        with pytest.raises(StructuralError, match="^scale polynomials by plain values"):
            poly.scale(s)
    with pytest.raises(StructuralError, match="^not an exact rational: 0.5$"):
        x.scale(0.5)
    with pytest.raises(StructuralError, match="^cannot scale a form by 0.5$"):
        Form(real, 1, False, {(0,): x}).scale(0.5)
