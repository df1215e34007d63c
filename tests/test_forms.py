import random

import pytest

from oracles import dense_contract, dense_wedge, lie_by_components
from premetric.errors import StructuralError
from premetric.forms import (
    Chart,
    Form,
    VectorField,
    _det_inverse,
    basis_form,
    components_equal,
    contract,
    coordinate_field,
    ext_d,
    lie_derivative,
    pullback_linear,
    sort_indices,
    wedge,
)
from premetric.randgen import random_form, random_polynomial, random_vector_field
from premetric.scalars import Scalar


def _chart(n, **kw):
    return Chart(n, **kw)


# -- frozen example values ----------------------------------------------------


def test_wedge_example():
    ch = _chart(2)
    a = basis_form(ch, (1,), coefficient=ch.variable(0))   # x0 dx1
    b = basis_form(ch, (0,), coefficient=ch.variable(1))   # x1 dx0
    out = wedge(a, b)
    expect = basis_form(ch, (0, 1), coefficient=-(ch.variable(0) * ch.variable(1)))
    assert out == expect


def test_contract_example():
    ch = _chart(3)
    u = VectorField(ch, [ch.variable(1), ch.zero_poly(), ch.zero_poly()])
    a = basis_form(ch, (0, 1, 2))
    out = contract(u, a)
    assert out == basis_form(ch, (1, 2), coefficient=ch.variable(1))


def test_lie_example():
    ch = _chart(2)
    u = VectorField(ch, [ch.variable(1), ch.zero_poly()])
    out = lie_derivative(u, basis_form(ch, (0,)))
    assert out == basis_form(ch, (1,))


def test_ext_d_of_function():
    ch = _chart(2)
    f = Form(ch, 0, False, {(): ch.variable(0) * ch.variable(1)})
    df = ext_d(f)
    assert df == (basis_form(ch, (0,), coefficient=ch.variable(1))
                  + basis_form(ch, (1,), coefficient=ch.variable(0)))
    assert ext_d(df).is_zero()


def test_reflection_pullback_twist_sign():
    # dx1 -> -dx1 under the reflection, times sign(det) = -1 when twisted
    ch = _chart(2)
    refl = [[1, 0], [0, -1]]
    plain = basis_form(ch, (1,))
    odd = basis_form(ch, (1,), twist=True)
    assert pullback_linear(refl, plain) == -plain
    assert pullback_linear(refl, odd) == odd


def test_top_degree_truncation():
    ch = _chart(2)
    top = basis_form(ch, (0, 1))
    assert wedge(top, basis_form(ch, (0,))).is_zero()
    assert ext_d(top).is_zero()
    assert ext_d(top).degree == 3


# -- structural guards --------------------------------------------------------


def test_component_validation():
    ch = _chart(3)
    with pytest.raises(StructuralError):
        Form(ch, 2, False, {(1, 0): ch.const_poly(1)})
    with pytest.raises(StructuralError):
        Form(ch, 2, False, {(0, 3): ch.const_poly(1)})
    with pytest.raises(StructuralError):
        Form(ch, 4, False, {(0, 1, 2, 3): ch.const_poly(1)})
    with pytest.raises(StructuralError):
        Form(ch, 1, False, {(0,): Chart(2).const_poly(1)})


def test_mismatches_raise():
    ch = _chart(2)
    a = basis_form(ch, (0,))
    with pytest.raises(StructuralError):
        a + basis_form(ch, (0, 1))
    with pytest.raises(StructuralError):
        a + basis_form(ch, (0,), twist=True)
    with pytest.raises(StructuralError):
        a == basis_form(ch, (0,), twist=True)
    with pytest.raises(StructuralError):
        wedge(a, basis_form(_chart(3), (0,)))
    with pytest.raises(StructuralError):
        pullback_linear([[1, 1], [1, 1]], a)


def test_scale_routes_parity():
    ch = _chart(2)
    a = basis_form(ch, (0,))
    z = Scalar(2, pseudo=True)
    scaled = a.scale(z)
    assert scaled.twist is True
    assert scaled == basis_form(ch, (0,), twist=True, coefficient=ch.const_poly(2))
    assert a.scale(Scalar(3)).twist is False
    assert a.scale(ch.variable(0), pseudo=True).twist is True
    assert components_equal(a.scale(z), a.scale(Scalar(2)))


def test_sort_indices():
    assert sort_indices((2, 0, 1)) == ((0, 1, 2), 1)
    assert sort_indices((1, 0)) == ((0, 1), -1)
    assert sort_indices((1, 1)) == ((1, 1), 0)


# -- randomized properties against the dense oracles --------------------------


def test_wedge_matches_permutation_oracle():
    rng = random.Random(101)
    for _ in range(40):
        n = rng.randint(2, 4)
        ch = _chart(n)
        p = rng.randint(0, n)
        q = rng.randint(0, n - p)
        a = random_form(rng, ch, p, bool(rng.randrange(2)))
        b = random_form(rng, ch, q, bool(rng.randrange(2)))
        assert wedge(a, b) == dense_wedge(a, b)


def test_wedge_graded_antisymmetry_and_associativity():
    rng = random.Random(102)
    for _ in range(30):
        n = rng.randint(2, 5)
        ch = _chart(n)
        p = rng.randint(0, 2)
        q = rng.randint(0, 2)
        r = rng.randint(0, 2)
        a = random_form(rng, ch, p, False)
        b = random_form(rng, ch, q, bool(rng.randrange(2)))
        c = random_form(rng, ch, r, False)
        flip = -1 if (p * q) % 2 else 1
        assert wedge(a, b) == wedge(b, a).scale(flip)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_wedge_bilinearity():
    rng = random.Random(103)
    for _ in range(30):
        n = rng.randint(2, 4)
        ch = _chart(n)
        p = rng.randint(0, 2)
        q = rng.randint(0, 2)
        a1 = random_form(rng, ch, p, False)
        a2 = random_form(rng, ch, p, False)
        b = random_form(rng, ch, q, True)
        assert wedge(a1 + a2, b) == wedge(a1, b) + wedge(a2, b)
        s = random_polynomial(rng, n, 1)
        assert wedge(a1.scale(s), b) == wedge(a1, b).scale(s)


def test_d_squared_vanishes():
    rng = random.Random(104)
    for _ in range(40):
        n = rng.randint(2, 5)
        ch = _chart(n)
        a = random_form(rng, ch, rng.randint(0, n), bool(rng.randrange(2)), 3)
        assert ext_d(ext_d(a)).is_zero()


def test_d_leibniz():
    rng = random.Random(105)
    for _ in range(40):
        n = rng.randint(2, 4)
        ch = _chart(n)
        p = rng.randint(0, n)
        a = random_form(rng, ch, p, False)
        b = random_form(rng, ch, rng.randint(0, n), bool(rng.randrange(2)))
        lhs = ext_d(wedge(a, b))
        sign = -1 if p % 2 else 1
        rhs = wedge(ext_d(a), b) + wedge(a, ext_d(b)).scale(sign)
        assert lhs == rhs


def test_contract_matches_oracle_and_squares_to_zero():
    rng = random.Random(106)
    for _ in range(40):
        n = rng.randint(2, 4)
        ch = _chart(n)
        a = random_form(rng, ch, rng.randint(1, n), bool(rng.randrange(2)))
        u = random_vector_field(rng, ch)
        assert contract(u, a) == dense_contract(u, a)
        if a.degree >= 2:
            assert contract(u, contract(u, a)).is_zero()


def test_contract_antiderivation():
    rng = random.Random(107)
    for _ in range(30):
        n = rng.randint(2, 4)
        ch = _chart(n)
        p = rng.randint(1, n)
        a = random_form(rng, ch, p, False)
        b = random_form(rng, ch, rng.randint(1, n), False)
        u = random_vector_field(rng, ch)
        lhs = contract(u, wedge(a, b))
        sign = -1 if p % 2 else 1
        rhs = wedge(contract(u, a), b) + wedge(a, contract(u, b)).scale(sign)
        assert lhs == rhs
        # degree-0 factors just ride along
        f = Form(ch, 0, False, {(): random_polynomial(rng, n, 2)})
        assert contract(u, wedge(f, b)) == wedge(f, contract(u, b))


def test_lie_matches_component_formula():
    rng = random.Random(108)
    for _ in range(40):
        n = rng.randint(2, 4)
        ch = _chart(n)
        a = random_form(rng, ch, rng.randint(0, n), bool(rng.randrange(2)))
        u = random_vector_field(rng, ch)
        assert lie_derivative(u, a) == lie_by_components(u, a)


def test_lie_commutes_with_d():
    rng = random.Random(109)
    for _ in range(30):
        n = rng.randint(2, 4)
        ch = _chart(n)
        a = random_form(rng, ch, rng.randint(0, n - 1), bool(rng.randrange(2)))
        u = random_vector_field(rng, ch)
        assert lie_derivative(u, ext_d(a)) == ext_d(lie_derivative(u, a))


def test_lie_leibniz_over_wedge():
    rng = random.Random(110)
    for _ in range(25):
        n = rng.randint(2, 4)
        ch = _chart(n)
        a = random_form(rng, ch, rng.randint(0, 2), False)
        b = random_form(rng, ch, rng.randint(0, 2), True)
        u = random_vector_field(rng, ch)
        assert (lie_derivative(u, wedge(a, b))
                == wedge(lie_derivative(u, a), b) + wedge(a, lie_derivative(u, b)))


def test_pullback_naturality():
    rng = random.Random(111)
    count = 0
    while count < 25:
        n = rng.randint(2, 3)
        ch = _chart(n)
        mat = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if _det_inverse(mat)[0] == 0:
            continue
        count += 1
        a = random_form(rng, ch, rng.randint(0, n), bool(rng.randrange(2)))
        b = random_form(rng, ch, rng.randint(0, n), bool(rng.randrange(2)))
        assert pullback_linear(mat, wedge(a, b)) == wedge(pullback_linear(mat, a),
                                                          pullback_linear(mat, b))
        assert pullback_linear(mat, ext_d(a)) == ext_d(pullback_linear(mat, a))


def test_pullback_composition():
    # x -> Mx after x -> Lx is x -> (ML)x, and pullbacks compose the other way
    rng = random.Random(112)
    count = 0
    while count < 20:
        n = rng.randint(2, 3)
        ch = _chart(n)
        L = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        M = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if _det_inverse(L)[0] == 0 or _det_inverse(M)[0] == 0:
            continue
        count += 1
        ML = [[sum(M[i][k] * L[k][j] for k in range(n)) for j in range(n)]
              for i in range(n)]
        a = random_form(rng, ch, rng.randint(0, n), bool(rng.randrange(2)))
        assert pullback_linear(L, pullback_linear(M, a)) == pullback_linear(ML, a)


def test_identity_pullback_is_identity():
    rng = random.Random(113)
    ch = _chart(3)
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    for _ in range(10):
        a = random_form(rng, ch, rng.randint(0, 3), bool(rng.randrange(2)))
        assert pullback_linear(eye, a) == a


def test_complex_mode_forms():
    ch = _chart(2, complex_mode=True)
    i = Scalar.i()
    a = basis_form(ch, (0,), coefficient=ch.const_poly(i))
    b = basis_form(ch, (1,))
    assert wedge(a, b) == basis_form(ch, (0, 1), coefficient=ch.const_poly(i))
    assert a.scale(i) == -basis_form(ch, (0,))


def test_coordinate_field_contracts_basis():
    ch = _chart(3)
    for k in range(3):
        e = coordinate_field(ch, k)
        assert contract(e, basis_form(ch, (k,))) == Form(ch, 0, False, {(): ch.const_poly(1)})
