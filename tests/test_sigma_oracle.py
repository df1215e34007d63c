"""Sigma_u from the shared F ^ G, and contraction along constant fields.

densities() builds sigma_u from the terms of F ^ (u _| G) and of
-(-1)^p/2 * u _| (F ^ G), reading the n-form F ^ G that FieldConfig
computes once; the graded Leibniz rule equates that with the paper's
(F ^ u _| G - (-1)^p u _| F ^ G) / 2.  A field of rational constants
contracts by scaling each component instead of multiplying it by a
constant polynomial.  Both routes are checked here against oracles that
share neither: the paper's form built with combine's wedge summands from the dense
contraction of tests/oracles.py, which multiplies every component out.
"""

import random
from fractions import Fraction

import pytest

from oracles import dense_contract
from premetric import forms
from premetric.electrodynamics import FieldConfig, densities
from premetric.forms import (Chart, VectorField, combine, contract, coordinate_field,
                             wedge)
from premetric.randgen import random_form, random_vector_field

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

KINDS = ("polynomial", "coordinate", "fractional", "negative", "zero", "imaginary")
RATIONAL = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def cases(draw):
    n = draw(st.integers(2, 6))
    chart = Chart(n, complex_mode=draw(st.booleans()))
    p = draw(st.integers(1, n - 1))
    kind = draw(st.sampled_from(KINDS if chart.complex_mode else KINDS[:-1]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if kind == "polynomial":
        comps = list(random_vector_field(rng, chart).components)
        x0 = chart.variable(0)
        u = VectorField(chart, [comps[0] + x0 * x0, *comps[1:]])
    elif kind == "coordinate":
        u = coordinate_field(chart, draw(st.integers(0, n - 1)))
    else:
        rates = {"fractional": RATIONAL,
                 "negative": st.one_of(st.just(0), RATIONAL.map(lambda c: -abs(c) or -1)),
                 "zero": st.just(0),
                 "imaginary": st.tuples(RATIONAL, RATIONAL)}[kind]
        values = draw(st.lists(rates, min_size=n, max_size=n))
        if kind == "imaginary" and not any(im for _, im in values):
            values[0] = (values[0][0], Fraction(1, 3))
        u = VectorField(chart, [chart.const_poly(c) for c in values])
    F = random_form(rng, chart, p, False)
    G = random_form(rng, chart, n - p, True)
    return chart, kind, u, FieldConfig(F, G), rng


@settings(max_examples=120, deadline=None)
@given(cases())
def test_sigma_is_the_paper_form_and_constant_fields_contract_by_scaling(case):
    chart, kind, u, cfg, rng = case
    F, G, p = cfg.F, cfg.G, cfg.p
    assert cfg.FG == wedge(F, G)

    half = Fraction(1, 2)
    paper = combine((half, wedge, F, dense_contract(u, G)),
                    (-half * (-1) ** p, wedge, dense_contract(u, F), G))
    d = densities(u, cfg)
    assert d.sigma == paper
    assert (d.sigma.degree, d.sigma.twist) == (chart.n - 1, True)
    assert d.residual().is_zero()

    # a field of rational constants (a coordinate field, fractional,
    # negative or zero rates) scales; any other field, a complex constant
    # with an imaginary part included, keeps its products
    scaled = kind not in ("polynomial", "imaginary")
    assert (u.rates is not None) == scaled
    for degree in range(1, chart.n + 1):
        a = random_form(rng, chart, degree, rng.randrange(2) == 1)
        assert contract(u, a) == dense_contract(u, a)
        terms = [t for group in forms._contract_terms({}, 1, u, a).values() for t in group]
        assert all((b is None) == scaled for *_, b in terms)
