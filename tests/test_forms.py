import random
import re
from fractions import Fraction
from itertools import combinations, product

import pytest

from oracles import dense_contract, dense_wedge, lie_by_components, pullback_linear
from premetric import forms
from premetric.errors import StructuralError
from premetric.forms import (
    Chart,
    Form,
    VectorField,
    basis_form,
    combine,
    contract,
    coordinate_field,
    ext_d,
    _wedge_table,
    lie_derivative,
    sort_indices,
    wedge,
)
from premetric.hodge import _det
from premetric.randgen import random_form, random_polynomial, random_vector_field
from premetric.scalars import Polynomial


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


@pytest.mark.parametrize("n", [4.0, True])
def test_chart_dimension_must_be_an_int(n):
    # Chart(4.0) used to be accepted, and coordinate_field then raised TypeError
    with pytest.raises(StructuralError, match=f"^chart dimension must be in 2..8, got {n}$"):
        Chart(n)


@pytest.mark.parametrize("orientation", [-1.0, 1.0, True])
def test_chart_orientation_must_be_an_int(orientation):
    # Chart(4, -1.0) used to be accepted, and hodge then raised AttributeError
    with pytest.raises(StructuralError,
                       match=f"^orientation must be \\+1 or -1, got {orientation}$"):
        Chart(4, orientation)


@pytest.mark.parametrize("mode", [None, "yes", 2, 1, 0, 1.0])
def test_chart_complex_mode_must_be_a_bool(mode):
    # Chart(4, complex_mode=None) used to be accepted, and the first form on it
    # failed with "component polynomial does not match the chart"; with 1 it
    # printed complex_mode=1
    with pytest.raises(StructuralError, match=f"^complex_mode must be a bool, got {mode!r}$"):
        Chart(4, complex_mode=mode)
    assert Chart(4, 1, True).complex_mode is True and Chart(4).complex_mode is False


@pytest.mark.parametrize("mode", [None, "yes", 2, 1, 0, 1.0])
def test_polynomial_complex_mode_must_be_a_bool(mode):
    # bool() used to turn "yes", 2 and 1.0 into a complex polynomial and
    # None into a real one
    message = f"^complex_mode must be a bool, got {mode!r}$"
    for build in (lambda: Polynomial(4, {(0, 0, 0, 0): 1}, mode),
                  lambda: Polynomial.zero(4, mode),
                  lambda: Polynomial.constant(4, 1, mode),
                  lambda: Polynomial.variable(4, 0, mode)):
        with pytest.raises(StructuralError, match=message):
            build()
    assert Polynomial.variable(4, 0, True).complex_mode is True
    assert Polynomial.zero(4).complex_mode is False


def test_an_empty_sum_is_refused():
    # with no term there is no chart, degree or twist to build on; this
    # used to end in a bare TypeError from unpacking the missing shape
    with pytest.raises(StructuralError, match="^an empty sum needs at least one term$"):
        combine()
    a = basis_form(Chart(4), (0,))
    assert combine((1, a)) == a and combine((1, wedge, a, a)).is_zero()


@pytest.mark.parametrize("flag", [None, "no", "x", 2, 1, 0, 1.0])
def test_twist_and_pseudo_must_be_bools(flag):
    # bool() used to read 'no' and 'x' as True and None as False, so
    # Form(ch, 1, 'no') was twisted and scale(1, pseudo='no') flipped the
    # twist; complex_mode follows the same rule (see above)
    from premetric.formexpr import parse_form

    ch = Chart(4)
    a = basis_form(ch, (0,))
    for name, build in (("twist", lambda: Form(ch, 1, flag)),
                        ("twist", lambda: Form.zero(ch, 1, flag)),
                        ("twist", lambda: basis_form(ch, (0,), flag)),
                        ("twist", lambda: parse_form("dx0", ch, 1, twist=flag)),
                        ("twist", lambda: random_form(random.Random(0), ch, 1, flag)),
                        ("pseudo", lambda: a.scale(1, pseudo=flag)),
                        ("pseudo", lambda: a.scale(2, pseudo=flag)),
                        ("pseudo", lambda: a.scale(ch.variable(0), pseudo=flag))):
        with pytest.raises(StructuralError, match=f"^{name} must be a bool, got {flag!r}$"):
            build()
    assert parse_form("dx0", ch, 1, twist=True).twist is True
    assert Form(ch, 1, False).twist is False and a.scale(1, pseudo=True).twist is True


@pytest.mark.parametrize("component", [5, None, Fraction(1, 2), "x0"])
def test_components_must_be_polynomials(component):
    # a non-Polynomial component used to raise AttributeError: 'int'
    # object has no attribute 'n'
    ch, shown = Chart(4), re.escape(repr(component))
    with pytest.raises(StructuralError,
                       match=rf"^component \(0,\) is not a Polynomial: {shown}$"):
        Form(ch, 1, False, {(0,): component})
    with pytest.raises(StructuralError, match=rf"^component 2 is not a Polynomial: {shown}$"):
        VectorField(ch, [ch.const_poly(1), ch.zero_poly(), component, ch.zero_poly()])


@pytest.mark.parametrize("degree", [1.0, True, -1])
def test_form_degree_must_be_an_int(degree):
    # a float degree used to be accepted, and ext_d then raised TypeError
    ch = Chart(4)
    with pytest.raises(StructuralError,
                       match=f"^form degree must be an int >= 0, got {degree}$"):
        Form(ch, degree, False, {(0,): ch.const_poly(1)})
    with pytest.raises(StructuralError,
                       match=f"^form degree must be an int >= 0, got {degree}$"):
        random_form(random.Random(0), ch, degree, False)


def test_form_index_entries_must_be_ints():
    # {(True,): 1} used to print as dxTrue, which parse_form refuses
    from premetric.formexpr import parse_form, print_form

    ch = Chart(4)
    for idx in ((True,), (1.0,), (0, True)):
        with pytest.raises(StructuralError,
                           match=r"^index tuple \(.*\) has a non-int entry$"):
            Form(ch, len(idx), False, {idx: ch.const_poly(1)})
    f = Form(ch, 1, False, {(1,): ch.const_poly(1)})
    assert parse_form(print_form(f), ch) == f


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


@pytest.mark.parametrize("n, mode", [(2, False), (3, True), (4, False), (5, False)])
def test_one_combine_mixes_every_kind_of_summand(n, mode):
    # plain, ext_d, _Top and wedge summands in one call equal the same
    # twisted n-form built form by form and summed with +
    ch = _chart(n, complex_mode=mode)
    rng = random.Random(f"mixed-combine:{n}:{mode}")
    for _ in range(4):
        X = random_form(rng, ch, n, True)
        Y = random_form(rng, ch, n - 1, True)
        a, b = random_form(rng, ch, 1, False), random_form(rng, ch, n - 2, True)
        p = rng.randrange(n + 1)
        c, d = random_form(rng, ch, p, False), random_form(rng, ch, n - p, True)
        top = forms._Top(ch, True, forms._wedge_terms({}, 1, a, b))
        total = combine((Fraction(2, 3), X), (-3, ext_d, Y), (-1, ext_d, top),
                        (Fraction(-5, 7), wedge, c, d), (0, X), (0, wedge, d, c))
        expect = (X.scale(Fraction(2, 3)) + ext_d(Y).scale(-3) - ext_d(wedge(a, b))
                  + wedge(c, d).scale(Fraction(-5, 7)))
        assert (total.chart, total.degree, total.twist) == (ch, n, True)
        assert total == expect
    # past top degree every wedge is the canonical zero form
    e, f = random_form(rng, ch, n, False), random_form(rng, ch, 1, True)
    for total in (combine((1, wedge, e, f)),
                  combine((2, wedge, e, f), (Fraction(1, 2), wedge, f, e))):
        assert total == Form.zero(ch, n + 1, True) and total.components == {}


def test_wedge_summands_keep_the_errors_of_wedge_and_combine():
    ch = _chart(3)
    a, b = basis_form(ch, (0,)), basis_form(ch, (1,), twist=True)
    other = basis_form(_chart(2), (0,))
    for terms in [((1, wedge, a, other),), ((1, wedge, a, b), (1, wedge, other, other)),
                  ((1, wedge, a, b), (1, wedge, other, b))]:
        with pytest.raises(StructuralError, match="^chart mismatch$"):
            combine(*terms)
    with pytest.raises(StructuralError, match="^degree mismatch: 2 vs 1$"):
        combine((1, wedge, a, b), (1, wedge, a, basis_form(ch, (), twist=True)))
    with pytest.raises(StructuralError, match="^twist parity mismatch$"):
        combine((1, wedge, a, b), (1, wedge, a, basis_form(ch, (2,))))
    # twists XOR per product, as for wedge
    assert combine((1, wedge, b, a), (2, wedge, a, b)).twist is True


def test_scale_routes_parity():
    ch = _chart(2)
    a = basis_form(ch, (0,))
    scaled = a.scale(2, pseudo=True)
    assert scaled.twist is True
    assert scaled == basis_form(ch, (0,), twist=True, coefficient=ch.const_poly(2))
    assert a.scale(3).twist is False
    assert a.scale(ch.variable(0), pseudo=True).twist is True
    assert a.scale(2, pseudo=True).components == a.scale(2).components
    assert scaled.scale(Fraction(1, 2), pseudo=True) == a


def test_sort_indices():
    assert sort_indices((2, 0, 1)) == ((0, 1, 2), 1)
    assert sort_indices((1, 0)) == ((0, 1), -1)
    assert sort_indices((1, 1)) == ((1, 1), 0)


def _cycle_parity(seq):
    """(-1)^(len - cycles) of the permutation that sorts distinct seq: an
    oracle independent of inversion counting."""
    rank = {v: r for r, v in enumerate(sorted(seq))}
    perm = [rank[v] for v in seq]
    seen, cycles = set(), 0
    for start in range(len(perm)):
        if start not in seen:
            cycles += 1
            k = start
            while k not in seen:
                seen.add(k)
                k = perm[k]
    return -1 if (len(perm) - cycles) % 2 else 1


def test_sort_indices_matches_cycle_parity():
    for length in range(7):
        for seq in product(range(6), repeat=length):
            indices, sign = sort_indices(seq)
            if len(set(seq)) < length:
                assert (indices, sign) == (seq, 0)
            else:
                assert (indices, sign) == (tuple(sorted(seq)), _cycle_parity(seq))


def test_wedge_table_complement_signs():
    # the Hodge star reads sign(K, K^c) from these rows
    for n in range(2, 9):
        for p in range(n + 1):
            table = _wedge_table(n, p, n - p)
            assert list(table) == list(combinations(range(n), p))
            for k_idx, row in table.items():
                comp = tuple(i for i in range(n) if i not in k_idx)
                assert row == {comp: (tuple(range(n)), _cycle_parity(k_idx + comp))}


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


def _cartan(u, a):
    inner = contract(u, ext_d(a))
    return inner if a.degree == 0 else ext_d(contract(u, a)) + inner


def _cartan_calls(monkeypatch):
    """The contract and ext_d calls made inside forms from now on."""
    calls = []
    for name in ("contract", "ext_d"):
        real = getattr(forms, name)
        monkeypatch.setattr(forms, name,
                            lambda *args, real=real: calls.append(real) or real(*args))
    return calls


def _constant(chart, rng):
    q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return chart.const_poly((q, 0) if chart.complex_mode and rng.randrange(2) else q)


@pytest.mark.parametrize("n", range(2, 7))
def test_lie_along_rational_constant_fields_is_a_directional_derivative(n, monkeypatch):
    # coordinate fields and rational combinations, on real and complex
    # charts; no Cartan term is formed for them
    calls = _cartan_calls(monkeypatch)
    rng = random.Random(f"constant-lie:{n}")
    for ch in (_chart(n), _chart(n, complex_mode=True)):
        fields = [coordinate_field(ch, k) for k in range(n)] + [
            VectorField(ch, [_constant(ch, rng) if rng.randrange(3) else ch.zero_poly()
                             for _ in range(n)]) for _ in range(2)]
        for degree in range(n + 1):
            for twist in (False, True):
                a = random_form(rng, ch, degree, twist)
                for u in fields:
                    del calls[:]
                    out = lie_derivative(u, a)
                    assert calls == []
                    assert out == _cartan(u, a) == lie_by_components(u, a)


def test_lie_along_an_imaginary_constant_takes_cartans_formula(monkeypatch):
    calls = _cartan_calls(monkeypatch)
    rng = random.Random(112)
    ch = _chart(4, complex_mode=True)
    u = VectorField(ch, [ch.const_poly((1, 2)), ch.zero_poly(),
                         ch.const_poly(Fraction(1, 3)), ch.zero_poly()])
    for degree in range(5):
        a = random_form(rng, ch, degree, bool(degree % 2))
        del calls[:]
        out = lie_derivative(u, a)
        assert calls
        assert out == _cartan(u, a) == lie_by_components(u, a)


def test_lie_derivative_refuses_reuse_forms_that_do_not_fit():
    # u = x1 d/dx0 and a = x2 dx1 have L_u a = 0; a reuse form of the wrong
    # degree or twist used to be summed as given, into a "1-form" keyed
    # (0, 1, 3) or an untwisted x1 dx2
    ch = _chart(4)
    u = VectorField(ch, [ch.variable(1)] + [ch.zero_poly()] * 3)
    a = basis_form(ch, (1,), coefficient=ch.variable(2))
    assert lie_derivative(u, a).is_zero()
    ua, da = contract(u, a), ext_d(a)
    assert lie_derivative(u, a, ua, da, contract(u, da)).is_zero()
    bad = (("ua", {"ua": basis_form(ch, (0, 1), coefficient=ch.variable(3))},
            "an untwisted 0-form"),
           ("da", {"da": basis_form(ch, (0, 2), True)}, "an untwisted 2-form"),
           ("ua", {"ua": basis_form(ch, (), True)}, "an untwisted 0-form"),
           ("uda", {"uda": basis_form(ch, (), True)}, "an untwisted 1-form"))
    for field in (u, coordinate_field(ch, 0)):
        # a field of rational constants reuses nothing, and still checks
        for name, kwargs, shape in bad:
            with pytest.raises(StructuralError, match=f"^{name} must be {shape}$"):
                lie_derivative(field, a, **kwargs)
        with pytest.raises(StructuralError, match="^da: chart mismatch$"):
            lie_derivative(field, a, da=Form.zero(_chart(3), 2))
    # on a 0-form, u _| a is the zero 0-form
    f = Form(ch, 0, True, {(): ch.variable(0)})
    assert lie_derivative(u, f, contract(u, f), ext_d(f)) == lie_derivative(u, f)


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
        if _det(mat) == 0:
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
        if _det(L) == 0 or _det(M) == 0:
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
    i = (0, 1)
    a = basis_form(ch, (0,), coefficient=ch.const_poly(i))
    b = basis_form(ch, (1,))
    assert wedge(a, b) == basis_form(ch, (0, 1), coefficient=ch.const_poly(i))
    assert a.scale(i) == -basis_form(ch, (0,))


def test_coordinate_field_contracts_basis():
    ch = _chart(3)
    for k in range(3):
        e = coordinate_field(ch, k)
        assert contract(e, basis_form(ch, (k,))) == Form(ch, 0, False, {(): ch.const_poly(1)})
