import random
from fractions import Fraction

import pytest

from premetric.errors import StructuralError
from premetric.randgen import random_polynomial
from premetric.scalars import Polynomial, Scalar


def test_rational_arithmetic_is_exact():
    a = Scalar(Fraction(1, 3))
    b = Scalar(Fraction(1, 6))
    assert a + b == Scalar(Fraction(1, 2))
    assert (a * b) == Scalar(Fraction(1, 18))
    assert a / b == Scalar(2)
    assert (a - a).is_zero()


def test_imaginary_unit_squares_to_minus_one():
    i = Scalar.i()
    assert i * i == Scalar(-1, 0)
    assert i.inverse() == Scalar(0, -1)
    z = Scalar(Fraction(1, 2), Fraction(-3, 4))
    assert (z * z.inverse()) == Scalar.one(complex_mode=True)


def test_modes_do_not_mix():
    with pytest.raises(StructuralError):
        Scalar(1) + Scalar(1, 0)
    with pytest.raises(StructuralError):
        Scalar(2) * Scalar(0, 1)
    assert Scalar(1) != Scalar(1, 0)  # modes are distinct contexts
    assert Scalar(1).to_complex() == Scalar(1, 0)


def test_pseudo_parity_bookkeeping():
    z = Scalar(3, pseudo=True)
    assert (z * z).pseudo is False
    assert (z * Scalar(2)).pseudo is True
    assert z.inverse().pseudo is True
    assert (-z).pseudo is True
    with pytest.raises(StructuralError):
        z + Scalar(1)
    assert z.as_plain() == Scalar(3)


def test_polynomial_examples():
    x0 = Polynomial.variable(2, 0)
    x1 = Polynomial.variable(2, 1)
    one = Polynomial.constant(2, 1)
    assert (x0 + (-x0)).is_zero()
    assert x0 * x1 + x0 * x1 == (x0 * x1).scale(Scalar(2))
    assert (x0 * x0 + one) + x1 == Polynomial(2, {(2, 0): 1, (0, 1): 1, (0, 0): 1})
    assert (x0 + one) * (x0 - one) == x0 * x0 - one
    assert (Polynomial.zero(2) * x0).is_zero()


def test_polynomial_partials():
    x0 = Polynomial.variable(3, 0)
    x1 = Polynomial.variable(3, 1)
    p = x0 * x1 * x1
    assert p.partial(1) == (x0 * x1).scale(Scalar(2))
    assert Polynomial.constant(3, 5).partial(0).is_zero()


def test_polynomial_structural_errors():
    with pytest.raises(StructuralError):
        Polynomial.variable(2, 0) + Polynomial.variable(3, 0)
    with pytest.raises(StructuralError):
        Polynomial.variable(2, 0) * Polynomial.variable(2, 0, complex_mode=True)
    with pytest.raises(StructuralError):
        Polynomial.variable(2, 0).partial(2)
    with pytest.raises(StructuralError):
        Polynomial(2, {(1, 0): Scalar(1, pseudo=True)})


def test_ring_axioms_on_random_polynomials():
    rng = random.Random(20260819)
    for _ in range(60):
        n = rng.randint(1, 4)
        a = random_polynomial(rng, n, 2)
        b = random_polynomial(rng, n, 2)
        c = random_polynomial(rng, n, 2)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_partial_is_a_derivation():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 4)
        a = random_polynomial(rng, n, 3)
        b = random_polynomial(rng, n, 3)
        i = rng.randrange(n)
        assert (a * b).partial(i) == a.partial(i) * b + a * b.partial(i)


def test_mixed_partials_commute():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(2, 4)
        p = random_polynomial(rng, n, 3)
        i, j = rng.randrange(n), rng.randrange(n)
        assert p.partial(i).partial(j) == p.partial(j).partial(i)


def test_degree_adds_over_products():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(1, 3)
        a = random_polynomial(rng, n, 2)
        b = random_polynomial(rng, n, 2)
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b).degree() == a.degree() + b.degree()


def test_substitute_linear_composes():
    x0 = Polynomial.variable(2, 0)
    x1 = Polynomial.variable(2, 1)
    p = x0 * x0 + x1
    swapped = p.substitute_linear([[0, 1], [1, 0]])
    assert swapped == x1 * x1 + x0
    # substitution is a ring homomorphism
    rng = random.Random(10)
    mat = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
    a = random_polynomial(rng, 2, 2)
    b = random_polynomial(rng, 2, 2)
    assert (a * b).substitute_linear(mat) == a.substitute_linear(mat) * b.substitute_linear(mat)
    assert (a + b).substitute_linear(mat) == a.substitute_linear(mat) + b.substitute_linear(mat)


def test_scalar_hash_agrees_with_equality():
    assert {Scalar(1): "one"}.get(1) == "one"
    assert {Scalar(Fraction(-2, 7)): "q"}.get(Fraction(-2, 7)) == "q"
    assert {2: "two"}.get(Scalar(2)) == "two"
    # complex mode with a zero imaginary part equals the plain rational
    assert Scalar(2, 0) == 2 and hash(Scalar(2, 0)) == hash(2)
    half = Scalar(Fraction(1, 2), 0)
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    # every equal pair hashes equal, across modes, parities and plain numbers
    values = [0, 1, -3, Fraction(1, 2), Fraction(-5, 3)]
    pool = list(values)
    for v in values:
        pool += [Scalar(v), Scalar(v, 0), Scalar(v, Fraction(2, 3)),
                 Scalar(v, pseudo=True), Scalar(v, 0, pseudo=True)]
    for x in pool:
        for y in pool:
            if x == y:
                assert hash(x) == hash(y), (x, y)


def test_exponents_are_bounded_by_the_packing_limit():
    from premetric.scalars import MAX_EXPONENT
    x0 = Polynomial.variable(2, 0)
    top = Polynomial(2, {(MAX_EXPONENT, 0): 1})
    assert top.partial(0) == Polynomial(2, {(MAX_EXPONENT - 1, 0): MAX_EXPONENT})
    assert top * Polynomial.variable(2, 1) == Polynomial(2, {(MAX_EXPONENT, 1): 1})
    with pytest.raises(StructuralError):
        Polynomial(2, {(MAX_EXPONENT + 1, 0): 1})
    with pytest.raises(StructuralError):
        top * x0
    with pytest.raises(StructuralError):
        (top + x0) * (x0 + Polynomial.constant(2, 1))
    with pytest.raises(StructuralError):
        top.to_complex() * x0.to_complex()


def test_terms_view_is_canonical_and_read_only():
    p = Polynomial(2, {(1, 0): Fraction(2, 4), (0, 1): Fraction(-3, 9)})
    assert dict(p.terms) == {(1, 0): Scalar(Fraction(1, 2)),
                             (0, 1): Scalar(Fraction(-1, 3))}
    assert p.den == 6 and sorted(p.nums.values()) == [-2, 3]
    with pytest.raises(TypeError):
        p.terms[(0, 0)] = Scalar(1)
    q = Polynomial(2, {(0, 0): Scalar(Fraction(1, 4), Fraction(1, 6))}, True)
    assert q.den == 12 and list(q.nums.values()) == [(3, 2)]
