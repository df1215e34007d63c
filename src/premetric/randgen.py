"""Deterministic random field generation for the property suites.

The generator contract is frozen so reports are reproducible byte for byte
(see docs/conventions.md): a single `random.Random(seed)` Mersenne Twister
stream, consumed in a fixed order.  Per component: one draw decides
inclusion (probability 1/2), then 1-3 monomials are drawn, each with a
uniform exponent tuple of total degree <= the bound and a coefficient
num/den with num in [-9, 9] without 0 and den in [1, 9].  Each frozen call
is drawn from `rng.getrandbits` by `random.Random`'s own `randrange(n)`
rule (`_below`), value for value; the degree bound must be an int >= 0.
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


def _below(bits, n):
    """rng.randrange(n) from bits = rng.getrandbits by random.Random's own
    rule: k = n.bit_length() bits, drawn again while >= n (n = 1 draws too)."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _pool(n, degree_bound):
    """The key pool and its length; an empty one would draw forever."""
    if degree_bound.__class__ is not int or degree_bound < 0:
        raise StructuralError(f"degree bound must be an int >= 0, got {degree_bound!r}")
    pool = _key_pool(n, degree_bound)
    return pool, len(pool)


def _drawn(bits, n, pool, size, complex_mode):
    """One polynomial's draws in the frozen order, summed by monomial_sum."""
    monomials = []
    for _ in range(_below(bits, 3) + 1):
        key = pool[_below(bits, size)]
        a, b = _NUMERATORS[_below(bits, len(_NUMERATORS))], _below(bits, 9) + 1
        if complex_mode:
            c, e = _NUMERATORS[_below(bits, len(_NUMERATORS))], _below(bits, 9) + 1
            monomials.append(((a * e, c * b), b * e, key))
        else:
            monomials.append((a, b, key))
    return monomial_sum(n, complex_mode, monomials)


def random_polynomial(rng, n, degree_bound, complex_mode=False):
    """1-3 uniformly chosen monomials with small rational coefficients,
    summed by monomial_sum."""
    if n.__class__ is not int or n < 1:
        raise StructuralError(f"polynomial dimension must be an int >= 1, got {n!r}")
    return _drawn(rng.getrandbits, n, *_pool(n, degree_bound), complex_mode)


def random_form(rng, chart, degree, twist, degree_bound=2):
    """Each increasing component included with probability 1/2."""
    if degree.__class__ is not int or degree < 0:
        raise StructuralError(f"form degree must be an int >= 0, got {degree!r}")
    check_flag("twist", twist)
    n, mode, bits = chart.n, chart.complex_mode, rng.getrandbits
    (pool, size), comps = _pool(n, degree_bound), {}
    for idx in combinations(range(n), degree):
        if _below(bits, 2):
            poly = _drawn(bits, n, pool, size, mode)
            if not poly.is_zero():
                comps[idx] = poly
    return _form(chart, degree, twist, comps)


def random_vector_field(rng, chart, degree_bound=2):
    n, mode, bits = chart.n, chart.complex_mode, rng.getrandbits
    (pool, size), zero = _pool(n, degree_bound), chart.zero_poly()
    return VectorField(chart, [_drawn(bits, n, pool, size, mode) if _below(bits, 2)
                               else zero for _ in range(n)])
