"""The frozen draw contract of the random generator.

Reports are reproducible only while every `rng` call and its order stay
fixed (docs/conventions.md, Random generation).  The reference generator
below follows that description in the plain Fraction/Scalar style; the
package must give equal forms and vector fields from the same stream and
leave the stream in the same state.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest

from premetric.forms import Chart, Form, VectorField
from premetric.randgen import random_form, random_vector_field
from premetric.scalars import Polynomial, Scalar

NUMERATORS = [k for k in range(-9, 10) if k != 0]


@lru_cache(maxsize=None)
def exponent_pool(n, degree_bound):
    """Exponent tuples of total degree <= degree_bound, lexicographic."""
    if n == 0:
        return ((),)
    return tuple((e,) + rest for e in range(degree_bound + 1)
                 for rest in exponent_pool(n - 1, degree_bound - e))


def reference_polynomial(rng, n, degree_bound, complex_mode):
    pool = exponent_pool(n, degree_bound)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = pool[rng.randrange(len(pool))]
        re = Fraction(rng.choice(NUMERATORS), rng.randint(1, 9))
        if complex_mode:
            coeff = Scalar(re, Fraction(rng.choice(NUMERATORS), rng.randint(1, 9)))
        else:
            coeff = Scalar(re)
        terms[exps] = terms[exps] + coeff if exps in terms else coeff
    return Polynomial(n, terms, complex_mode)


def reference_form(rng, chart, degree, twist, degree_bound):
    comps = {}
    for idx in combinations(range(chart.n), degree):
        if rng.randrange(2):
            comps[idx] = reference_polynomial(rng, chart.n, degree_bound,
                                              chart.complex_mode)
    return Form(chart, degree, twist, comps)


def reference_vector_field(rng, chart, degree_bound):
    return VectorField(chart, [
        reference_polynomial(rng, chart.n, degree_bound, chart.complex_mode)
        if rng.randrange(2) else chart.zero_poly() for _ in range(chart.n)])


@pytest.mark.parametrize("complex_mode", [False, True], ids=["QQ", "QQ_I"])
@pytest.mark.parametrize("n", range(2, 9))
def test_draws_follow_the_frozen_contract(n, complex_mode):
    chart = Chart(n, complex_mode=complex_mode)
    for degree_bound in range(7):
        for seed in (0, 1, 12345):
            mine = random.Random(f"{seed}:{degree_bound}")
            ref = random.Random(f"{seed}:{degree_bound}")
            for degree in range(n + 1):
                twist = bool(degree % 2)
                a = random_form(mine, chart, degree, twist, degree_bound)
                b = reference_form(ref, chart, degree, twist, degree_bound)
                assert a.twist == b.twist and a.components == b.components
            u = random_vector_field(mine, chart, degree_bound)
            v = reference_vector_field(ref, chart, degree_bound)
            assert u.components == v.components
            assert mine.getstate() == ref.getstate()
