import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import substitute_linear
from premetric.errors import StructuralError
from premetric.forms import Chart, coordinate_field
from premetric.randgen import random_polynomial
from premetric.scalars import Polynomial


def test_rational_arithmetic_is_exact():
    a = Polynomial.constant(1, Fraction(1, 3))
    b = Polynomial.constant(1, Fraction(1, 6))
    assert a + b == Polynomial.constant(1, Fraction(1, 2))
    assert a * b == Polynomial.constant(1, Fraction(1, 18))
    assert a.scale(6) == Polynomial.constant(1, 2) == b.scale(12)
    assert (a - a).is_zero()


def test_imaginary_unit_squares_to_minus_one():
    i = Polynomial.constant(1, (0, 1), True)
    one = Polynomial.constant(1, 1, True)
    assert i * i == -one
    assert i.scale((0, -1)) == one
    z = (Fraction(1, 2), Fraction(-3, 4))
    z_inverse = (Fraction(8, 13), Fraction(12, 13))
    assert Polynomial.constant(1, z, True).scale(z_inverse) == one


def test_text_and_bool_are_not_numbers():
    # text would bypass the literal digit limit; True is not read as 1
    for bad in ("1e400000", "3/4", True, False):
        with pytest.raises(StructuralError, match="^not an exact rational: "):
            Polynomial.constant(2, bad)
        with pytest.raises(StructuralError, match="^not an exact rational: "):
            Polynomial.constant(2, (bad, 1), True)
        with pytest.raises(StructuralError, match="^not an exact rational: "):
            Polynomial.constant(2, 1).scale(bad)


def test_modes_do_not_mix():
    mismatch = "^real/complex scalar mode mismatch$"
    with pytest.raises(StructuralError, match=mismatch):
        Polynomial.constant(1, (1, 0))
    with pytest.raises(StructuralError, match=mismatch):
        Polynomial.constant(1, 2).scale((0, 1))
    real, cplx = Polynomial.constant(1, 1), Polynomial.constant(1, 1, True)
    with pytest.raises(StructuralError):
        real + cplx
    with pytest.raises(StructuralError):
        real == cplx  # modes are distinct contexts
    assert real.to_complex() == Polynomial.constant(1, (1, 0), True) == cplx


def test_polynomial_examples():
    x0 = Polynomial.variable(2, 0)
    x1 = Polynomial.variable(2, 1)
    one = Polynomial.constant(2, 1)
    assert (x0 + (-x0)).is_zero()
    assert x0 * x1 + x0 * x1 == (x0 * x1).scale(2)
    assert (x0 * x0 + one) + x1 == Polynomial(2, {(2, 0): 1, (0, 1): 1, (0, 0): 1})
    assert (x0 + one) * (x0 - one) == x0 * x0 - one
    assert (Polynomial.zero(2) * x0).is_zero()


def test_repr_prints_a_first_power_bare():
    # as the grammar and poly_str do: x0, never x0^1
    x0, x1 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    assert repr(x0) == "Polynomial(2, Fraction(1, 1)*x0)"
    assert repr(x0 * x0 * x1) == "Polynomial(2, Fraction(1, 1)*x0^2*x1)"


def test_polynomial_partials():
    x0 = Polynomial.variable(3, 0)
    x1 = Polynomial.variable(3, 1)
    p = x0 * x1 * x1
    assert p.partial(1) == (x0 * x1).scale(2)
    assert Polynomial.constant(3, 5).partial(0).is_zero()


def test_polynomial_structural_errors():
    with pytest.raises(StructuralError):
        Polynomial.variable(2, 0) + Polynomial.variable(3, 0)
    with pytest.raises(StructuralError):
        Polynomial.variable(2, 0) * Polynomial.variable(2, 0, complex_mode=True)
    with pytest.raises(StructuralError):
        Polynomial.variable(2, 0).partial(2)
    with pytest.raises(StructuralError):
        Polynomial(2, {(1, 0): (1, 0)})          # a pair in real mode
    with pytest.raises(StructuralError):
        Polynomial(2, {(1, 0): 0.5})


@pytest.mark.parametrize("n", [2.0, True])
def test_polynomial_dimension_must_be_an_int(n):
    with pytest.raises(StructuralError,
                       match=f"^polynomial dimension must be an int >= 1, got {n}$"):
        Polynomial(n, {})


@pytest.mark.parametrize("exps", [(True, 0), (1.0, 0), (0, False)])
def test_polynomial_exponents_must_be_ints(exps):
    with pytest.raises(StructuralError, match=r"^bad exponent tuple .* for n=2$"):
        Polynomial(2, {exps: 1})


X0 = Polynomial.variable(2, 0)


@pytest.mark.parametrize("call, message", [
    (lambda: Polynomial.variable(2, True), "variable index True"),
    (lambda: Polynomial.variable(2, 1.0), "variable index 1.0"),
    (lambda: X0.partial(True), "coordinate index True"),
    (lambda: X0.partial(1.0), "coordinate index 1.0"),
    (lambda: X0.partial(2), "coordinate index 2"),
    (lambda: Chart(2).variable(True), "variable index True"),
    (lambda: coordinate_field(Chart(2), 1.0), "coordinate index 1.0"),
], ids=["variable-bool", "variable-float", "partial-bool", "partial-float",
        "partial-out-of-range", "chart-variable-bool", "coordinate-field-float"])
def test_coordinate_indices_must_be_ints_in_range(call, message):
    # a bool would pass as 0 or 1, and a float index reached the kernel's
    # product branch and was reported as "expected Polynomial"
    with pytest.raises(StructuralError, match=rf"^{message} is not an int in 0\.\.1$"):
        call()


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
    swapped = substitute_linear(p, [[0, 1], [1, 0]])
    assert swapped == x1 * x1 + x0
    # substitution is a ring homomorphism
    rng = random.Random(10)
    mat = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
    a = random_polynomial(rng, 2, 2)
    b = random_polynomial(rng, 2, 2)
    sub = lambda q: substitute_linear(q, mat)
    assert sub(a * b) == sub(a) * sub(b)
    assert sub(a + b) == sub(a) + sub(b)


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
    assert dict(p.terms) == {(1, 0): Fraction(1, 2), (0, 1): Fraction(-1, 3)}
    assert all(type(c) is Fraction for c in p.terms.values())
    assert p.den == 6 and sorted(p.nums.values()) == [-2, 3]
    with pytest.raises(TypeError):
        p.terms[(0, 0)] = 1
    q = Polynomial(2, {(0, 0): (Fraction(1, 4), Fraction(1, 6))}, True)
    assert q.den == 12 and list(q.nums.values()) == [(3, 2)]
    assert dict(q.terms) == {(0, 0): (Fraction(1, 4), Fraction(1, 6))}
    for r in (p, q):
        assert Polynomial(2, dict(r.terms), r.complex_mode) == r


def test_only_scalars_builds_unnormalised_polynomials():
    """The helpers that wrap numerators into a Polynomial without making
    them canonical stay private to scalars.py; every other module builds
    polynomials through the constructor or the kernels."""
    raw = {"_make", "_reduced"}
    package = Path(__file__).resolve().parent.parent / "src" / "premetric"
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "scalars.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                offenders += [f"{path.name}: {a.name}" for a in node.names
                              if a.name in raw]
    assert offenders == []
