"""Deterministic random field generation for the property suites.

The generator contract is frozen so reports are reproducible byte for byte
(see docs/conventions.md): a single `random.Random(seed)` Mersenne Twister
stream, consumed in a fixed order.  Per component: one draw decides
inclusion (probability 1/2), then 1-3 monomials are drawn, each with a
uniform exponent tuple of total degree <= the bound and a coefficient
num/den with num in [-9, 9] without 0 and den in [1, 9].
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .forms import Form, VectorField
from .scalars import Polynomial, Scalar


@lru_cache(maxsize=None)
def exponent_tuples(n, degree_bound):
    """All exponent tuples of length n with total degree <= degree_bound,
    in lexicographic order; cached, so the pool is built once per
    (n, degree_bound)."""
    out = []

    def rec(prefix, remaining):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e)

    rec([], degree_bound)
    return tuple(out)


_NUMERATORS = tuple(k for k in range(-9, 10) if k != 0)


def _draw_coefficient(rng, complex_mode):
    def q():
        num = rng.choice(_NUMERATORS)
        den = rng.randint(1, 9)
        return Fraction(num, den)

    if complex_mode:
        return Scalar(q(), q())
    return Scalar(q())


def random_polynomial(rng, n, degree_bound, complex_mode=False):
    """1-3 uniformly chosen monomials with small rational coefficients."""
    pool = exponent_tuples(n, degree_bound)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = pool[rng.randrange(len(pool))]
        coeff = _draw_coefficient(rng, complex_mode)
        cur = terms.get(exps)
        terms[exps] = coeff if cur is None else cur + coeff
    return Polynomial(n, {e: c for e, c in terms.items() if not c.is_zero()},
                      complex_mode)


def random_form(rng, chart, degree, twist, degree_bound=2):
    """Each increasing component included with probability 1/2."""
    comps = {}
    for idx in combinations(range(chart.n), degree):
        if rng.randrange(2):
            poly = random_polynomial(rng, chart.n, degree_bound, chart.complex_mode)
            if not poly.is_zero():
                comps[idx] = poly
    return Form(chart, degree, twist, comps)


def random_vector_field(rng, chart, degree_bound=2):
    comps = []
    for _ in range(chart.n):
        if rng.randrange(2):
            comps.append(random_polynomial(rng, chart.n, degree_bound,
                                           chart.complex_mode))
        else:
            comps.append(chart.zero_poly())
    return VectorField(chart, comps)
