"""Deterministic random field generation for the property suites.

The generator contract is frozen so reports are reproducible byte for byte
(see docs/conventions.md): a single `random.Random(seed)` Mersenne Twister
stream, consumed in a fixed order.  Per component: one draw decides
inclusion (probability 1/2), then 1-3 monomials are drawn, each with a
uniform exponent tuple of total degree <= the bound and a coefficient
num/den with num in [-9, 9] without 0 and den in [1, 9].
"""

from functools import lru_cache
from itertools import combinations

from .errors import StructuralError
from .forms import VectorField, _form
from .scalars import _pack, check_flag, monomial_sum


@lru_cache(maxsize=None)
def _key_pool(n, degree_bound):
    """Packed keys of all exponent tuples of length n with total degree
    <= degree_bound, in lexicographic order; built once per argument pair."""
    out = []

    def rec(prefix, remaining):
        if len(prefix) == n:
            out.append(_pack(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e)

    rec([], degree_bound)
    return tuple(out)


_NUMERATORS = tuple(k for k in range(-9, 10) if k != 0)


def random_polynomial(rng, n, degree_bound, complex_mode=False):
    """1-3 uniformly chosen monomials with small rational coefficients,
    summed by monomial_sum."""
    if n < 1:
        raise StructuralError(f"polynomial dimension must be >= 1, got {n}")
    pool = _key_pool(n, degree_bound)
    monomials = []
    # the rng calls in the frozen order of docs/conventions.md
    for _ in range(rng.randint(1, 3)):
        key = pool[rng.randrange(len(pool))]
        a, b = rng.choice(_NUMERATORS), rng.randint(1, 9)
        if complex_mode:
            c, e = rng.choice(_NUMERATORS), rng.randint(1, 9)
            monomials.append(((a * e, c * b), b * e, key))
        else:
            monomials.append((a, b, key))
    return monomial_sum(n, complex_mode, monomials)


def random_form(rng, chart, degree, twist, degree_bound=2):
    """Each increasing component included with probability 1/2."""
    if degree.__class__ is not int or degree < 0:
        raise StructuralError(f"form degree must be an int >= 0, got {degree!r}")
    check_flag("twist", twist)
    comps = {}
    for idx in combinations(range(chart.n), degree):
        if rng.randrange(2):
            poly = random_polynomial(rng, chart.n, degree_bound, chart.complex_mode)
            if not poly.is_zero():
                comps[idx] = poly
    return _form(chart, degree, twist, comps)


def random_vector_field(rng, chart, degree_bound=2):
    comps = []
    for _ in range(chart.n):
        if rng.randrange(2):
            comps.append(random_polynomial(rng, chart.n, degree_bound,
                                           chart.complex_mode))
        else:
            comps.append(chart.zero_poly())
    return VectorField(chart, comps)
