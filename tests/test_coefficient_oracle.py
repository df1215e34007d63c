"""Polynomial arithmetic against an oracle that shares none of its code.

`sympy.polys.rings` over QQ and QQ_I (sympy's own rationals and Gaussian
rationals) recomputes + - * partial scale to_complex and == on seeded
polynomials at n = 2, 4, 6, 8.  Values cross between the two sides as
(exponent tuple, numerator, denominator) data: the package side is read
from its raw (den, nums) storage with the key layout decoded here, not
through the package's own views.  Hypothesis then checks the ring axioms,
the Leibniz rule and the canonical-form invariant on generated inputs.
sympy and hypothesis are test-only dependencies.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

sympy_rings = pytest.importorskip("sympy.polys.rings")
sympy_domains = pytest.importorskip("sympy.polys.domains")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from premetric.scalars import FIELD_BITS, Polynomial  # noqa: E402

QQ, QQ_I = sympy_domains.QQ, sympy_domains.QQ_I

_RINGS = {}


def sympy_ring(n, complex_mode):
    key = (n, complex_mode)
    if key not in _RINGS:
        _RINGS[key] = sympy_rings.ring(f"x0:{n}", QQ_I if complex_mode else QQ)[0]
    return _RINGS[key]


def decode_key(key, n):
    mask = (1 << FIELD_BITS) - 1
    return tuple((key >> (FIELD_BITS * (n - 1 - i))) & mask for i in range(n))


def assert_canonical(p):
    """den > 0, no common factor of den and every numerator part, no zeros."""
    assert isinstance(p.den, int) and p.den > 0
    parts = [p.den]
    for key, v in p.nums.items():
        assert isinstance(key, int) and key >= 0
        if p.complex_mode:
            assert isinstance(v, tuple) and len(v) == 2 and v != (0, 0)
            parts.extend(v)
        else:
            assert isinstance(v, int) and v != 0
            parts.append(v)
    assert gcd(*parts) == 1
    if not p.nums:
        assert p.den == 1


def to_sympy(p):
    """The oracle element with the same value, read from raw storage."""
    R = sympy_ring(p.n, p.complex_mode)
    coeffs = {}
    for key, v in p.nums.items():
        if p.complex_mode:
            coeffs[decode_key(key, p.n)] = QQ_I(QQ(v[0], p.den), QQ(v[1], p.den))
        else:
            coeffs[decode_key(key, p.n)] = QQ(v, p.den)
    return R.from_dict(coeffs)


def oracle_scalar(s):
    """A Fraction as a QQ element, an (re, im) pair as a QQ_I element."""
    if isinstance(s, tuple):
        return QQ_I(oracle_scalar(s[0]), oracle_scalar(s[1]))
    return QQ(s.numerator, s.denominator)


def random_data(rng, n, complex_mode):
    """Monomials with varied denominators; repeated monomials and opposite
    coefficients leave room for cancellation."""
    def q():
        return Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4, 6, 9, 10, 35)))

    data = {}
    for _ in range(rng.randint(0, 5)):
        exps = tuple(rng.randint(0, 2) if rng.random() < 0.4 else 0 for _ in range(n))
        data[exps] = (q(), q()) if complex_mode else q()
    return data


def both(rng, n, complex_mode):
    data = random_data(rng, n, complex_mode)
    R = sympy_ring(n, complex_mode)
    oracle = R.from_dict({e: oracle_scalar(c) for e, c in data.items()
                          if c not in (0, (0, 0))})
    return Polynomial(n, data, complex_mode), oracle


@pytest.mark.parametrize("complex_mode", [False, True], ids=["QQ", "QQ_I"])
@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_operations_match_sympy_rings(n, complex_mode):
    rng = random.Random(f"oracle:{n}:{complex_mode}")
    R = sympy_ring(n, complex_mode)
    gens = R.gens
    for _ in range(25):
        (a, A), (b, B) = both(rng, n, complex_mode), both(rng, n, complex_mode)
        assert to_sympy(a) == A and to_sympy(b) == B
        results = [(a + b, A + B), (a - b, A - B), (a * b, A * B),
                   (-a, -A), ((a + b) * (a - b), (A + B) * (A - B))]
        i = rng.randrange(n)
        results.append((a.partial(i), A.diff(gens[i])))
        results.append(((a * b).partial(i), (A * B).diff(gens[i])))
        s = Fraction(rng.randint(-7, 7), rng.randint(1, 8))
        if complex_mode:
            s = (s, Fraction(rng.randint(-7, 7), rng.randint(1, 8)))
        results.append((a.scale(s), A * oracle_scalar(s)))
        for mine, theirs in results:
            assert_canonical(mine)
            assert to_sympy(mine) == theirs
        assert (a == b) == (A == B)
        assert (a * b - b * a).is_zero() and a + b - b == a
        if not complex_mode:
            c = a.to_complex()
            assert_canonical(c)
            RI = sympy_ring(n, True)
            assert to_sympy(c) == RI.from_dict(
                {e: QQ_I(v, 0) for e, v in A.items()})


# -- properties ------------------------------------------------------------

_N = 3
_rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 24))


def _polys(complex_mode):
    coeff = st.tuples(_rationals, _rationals) if complex_mode else _rationals
    exps = st.tuples(*[st.integers(0, 3)] * _N)
    return st.dictionaries(exps, coeff, max_size=4).map(
        lambda d: Polynomial(_N, d, complex_mode))


_triples = st.booleans().flatmap(
    lambda cm: st.tuples(_polys(cm), _polys(cm), _polys(cm)))
_settings = hypothesis.settings(max_examples=60, deadline=None)


@_settings
@hypothesis.given(_triples)
def test_ring_axioms(abc):
    a, b, c = abc
    zero = Polynomial.zero(_N, a.complex_mode)
    one = Polynomial.constant(_N, 1, a.complex_mode)
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and (a * zero).is_zero()
    assert (a - a).is_zero() and a - b == a + (-b)


@_settings
@hypothesis.given(_triples, st.integers(0, _N - 1))
def test_partial_is_leibniz(abc, i):
    a, b, _ = abc
    assert (a * b).partial(i) == a.partial(i) * b + a * b.partial(i)
    assert (a + b).partial(i) == a.partial(i) + b.partial(i)


@_settings
@hypothesis.given(_triples)
def test_canonical_form_makes_equal_values_hash_equal(abc):
    a, b, c = abc
    pairs = [(a + b - b, a), (a * b, b * a), ((a + b) * c, a * c + b * c),
             (Polynomial(_N, dict(a.terms), a.complex_mode), a)]
    for x, y in pairs:
        assert_canonical(x)
        assert x == y and hash(x) == hash(y)
        assert (x.den, x.nums) == (y.den, y.nums)
