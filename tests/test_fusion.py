"""Fused form sums against the forms they replace.

`combine` takes a term (m, ext_d, a) for m * d(a) and puts its partial
derivatives into the same per-component sums as its other terms.  Cartan's
formula in `lie_derivative`, `Densities.residual()` and the `a`, `b` and
`a+b` rows of `identity_suite` are built that way, so d(a), u _| a and
u _| da are never formed only to be summed again.  An (n-1)-form of
products may also be given as its unsummed terms: the `a`, `b` and `a+b`
rows and `conservation_residual` differentiate F ^ uG, uF ^ G, u _| (F ^ G)
and sigma_u that way, so those forms are never built.  `_densities` writes
the terms of f_u, F ^ uG and L_u F ^ G and returns those of u _| (F ^ G);
`densities`, `conservation_residual` and `identity_suite` each call it
once per field config and assemble its terms in their own sums.
Each fused result must equal the same expression built from the public
`ext_d`, `contract` and `combine`, and each must stay one kernel call per
output component.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

import premetric.electrodynamics as electrodynamics
from premetric import forms, scalars
from premetric.electrodynamics import (Densities, FieldConfig, conservation_residual,
                                       densities, identity_suite)
from premetric.errors import StructuralError
from premetric.forms import (Chart, Form, VectorField, basis_form, combine, contract,
                             ext_d, lie_derivative, wedge)
from premetric.randgen import random_form, random_polynomial, random_vector_field
from premetric.reciprocity import FieldPairZ, star_z
from premetric.report import residual_check
from oracles import raw_factor

CHARTS = [Chart(n, complex_mode=mode) for n in range(2, 7) for mode in (False, True)]


def _id(chart):
    return f"n{chart.n}-{'complex' if chart.complex_mode else 'real'}"


def _polynomial_field(rng, chart, dense=False):
    """A random field plus x0^2 d/dx0, so that Cartan's formula is taken;
    a dense one has no zero component."""
    comps = ([random_polynomial(rng, chart.n, 2, chart.complex_mode)
              for _ in range(chart.n)] if dense
             else list(random_vector_field(rng, chart).components))
    x0 = chart.variable(0)
    u = VectorField(chart, [comps[0] + x0 * x0, *comps[1:]])
    assert forms._rational_constants(u) is None
    assert not dense or all(c.nums for c in u.components)
    return u


@pytest.mark.parametrize("chart", CHARTS, ids=_id)
def test_fused_combine_is_the_combination_with_d_built(chart):
    rng = random.Random(f"fused-combine:{_id(chart)}")
    for degree in range(chart.n + 2):
        for twist in (False, True):
            a = random_form(rng, chart, max(degree - 1, 0), twist)
            b = (random_form(rng, chart, degree, twist) if degree <= chart.n
                 else Form.zero(chart, degree, twist))
            c = random_form(rng, chart, max(degree - 1, 0), twist)
            if degree == 0:  # no form has d of degree 0
                assert combine((2, b), (-1, b)) == b
                continue
            m = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            fused = combine((m, ext_d, a), (-1, b), (Fraction(1, 3), ext_d, c))
            assert fused == combine((m, ext_d(a)), (-1, b), (Fraction(1, 3), ext_d(c)))
            assert (fused.degree, fused.twist) == (degree, twist)
            assert combine((1, ext_d, a)) == ext_d(a)
            if degree > chart.n:
                assert fused.is_zero()


def test_fused_combine_checks_the_summands_like_plus():
    chart = Chart(3)
    x = chart.variable(1)
    a = Form(chart, 1, False, {(0,): x})
    with pytest.raises(StructuralError, match="^degree mismatch: 2 vs 1$"):
        combine((1, ext_d, a), (1, a))
    with pytest.raises(StructuralError, match="^degree mismatch: 1 vs 2$"):
        combine((1, a), (1, ext_d, a))
    with pytest.raises(StructuralError, match="^twist parity mismatch$"):
        combine((1, ext_d, a), (1, ext_d, Form(chart, 1, True, {(0,): x})))
    with pytest.raises(StructuralError, match="^chart mismatch$"):
        combine((1, ext_d, a), (1, ext_d, Form(Chart(3, -1), 1, False, {(0,): x})))
    # a 2-form left as its unsummed terms (num, d, a, b) is checked the same way
    z = chart.variable(2)
    terms = forms._Top(chart, False, {(0, 1): [(1, 1, z, z)]})
    top = ext_d(Form(chart, 2, False, {(0, 1): z * z}))
    assert combine((1, ext_d, terms), (-1, top)).is_zero() and not top.is_zero()
    assert combine((1, top), (-1, ext_d, terms)).is_zero()
    with pytest.raises(StructuralError, match="^degree mismatch: 3 vs 2$"):
        combine((1, ext_d, terms), (1, ext_d, a))
    with pytest.raises(StructuralError, match="^twist parity mismatch$"):
        combine((1, ext_d, terms), (1, top.scale(1, pseudo=True)))
    with pytest.raises(StructuralError, match="^chart mismatch$"):
        combine((1, ext_d, forms._Top(Chart(3, -1), False, {})), (1, top))


@pytest.mark.parametrize("chart", CHARTS, ids=_id)
def test_cartan_lie_derivative_is_the_formula_built_from_forms(chart):
    rng = random.Random(f"fused-cartan:{_id(chart)}")
    for degree in range(chart.n + 1):
        for twist in (False, True):
            a = random_form(rng, chart, degree, twist)
            u = _polynomial_field(rng, chart)
            ua, da = contract(u, a), ext_d(a)
            uda = contract(u, da)
            expect = combine((1, ext_d(ua)), (1, uda)) if degree else uda
            for given in ({}, {"ua": ua}, {"da": da}, {"ua": ua, "da": da},
                          {"uda": uda}, {"ua": ua, "uda": uda}):
                out = lie_derivative(u, a, **given)
                assert out == expect, sorted(given)
                assert (out.degree, out.twist) == (degree, twist)


def _configs(chart, rng, rounds=1):
    for p in list(range(1, chart.n)) * rounds:
        F = random_form(rng, chart, p, False)
        G = random_form(rng, chart, chart.n - p, True)
        yield FieldConfig(F, G), random_vector_field(rng, chart)


def _unfused_residual(d):
    return combine((1, ext_d(d.sigma)), (-1, d.force), (-1, d.phi))


@pytest.mark.parametrize("chart", CHARTS, ids=_id)
def test_fused_residual_is_the_difference_built_from_forms(chart):
    rng = random.Random(f"fused-residual:{_id(chart)}")
    nonzero = 0
    for cfg, u in _configs(chart, rng):
        d = densities(u, cfg)
        assert d.residual() == _unfused_residual(d)
        assert d.residual().is_zero()
        # wrong densities give a nonzero residual, and the same one
        extra = basis_form(chart, range(chart.n), True, chart.variable(0))
        for wrong in (Densities(d.sigma, d.force.scale(2), d.phi),
                      Densities(d.sigma.scale(Fraction(1, 3)), d.force, d.phi),
                      Densities(d.sigma, d.force, d.phi + extra)):
            assert wrong.residual() == _unfused_residual(wrong)
            nonzero += not wrong.residual().is_zero()
    assert nonzero


def _fields(chart, rng):
    """A random field, one that takes Cartan's formula and coordinate fields."""
    yield random_vector_field(rng, chart)
    yield _polynomial_field(rng, chart)
    yield from (forms.coordinate_field(chart, k) for k in (0, chart.n - 1))


@pytest.mark.parametrize("flip", [False, True], ids=["exact", "flipped-sigma"])
@pytest.mark.parametrize("chart", CHARTS, ids=_id)
def test_conservation_residual_is_the_residual_of_the_built_densities(chart, flip, monkeypatch):
    # the u _| (F ^ G) terms with their sign flipped make both routes
    # nonzero; they stay equal because one writer gives both their terms
    if flip:
        real = electrodynamics._contract_terms
        monkeypatch.setattr(electrodynamics, "_contract_terms",
                            lambda groups, m, u, a: real(groups, -m, u, a))
    rng = random.Random(f"fused-conservation:{_id(chart)}")
    nonzero = 0
    for p in range(1, chart.n):
        cfg = FieldConfig(_dense(rng, chart, p, False), _dense(rng, chart, chart.n - p, True))
        for u in _fields(chart, rng):
            residual = conservation_residual(u, cfg)
            assert residual == _unfused_residual(densities(u, cfg))
            nonzero += not residual.is_zero()
    assert bool(nonzero) is flip


def _unfused_identity_rows(u, cfg, lie):
    """identity_suite's rows, each residual built from whole forms."""
    F, G, dG, sgn = cfg.F, cfg.G, cfg.dG, (-1) ** cfg.p
    uF, uG, udG = contract(u, F), contract(u, G), contract(u, dG)
    LuF, LuG = lie(u, F), lie(u, G)
    f = combine((1, wedge, cfg.dF, uG), (1, wedge, uF, dG))
    F_LuG, LuF_G = wedge(F, LuG), wedge(LuF, G)
    rows = [
        ("sym", combine((1, wedge, uF, dG), (sgn, wedge, F, udG)), contract(u, wedge(F, dG))),
        ("a", combine((1, ext_d(wedge(F, uG))), (-sgn, F_LuG), (-1, f))),
        ("b", combine((sgn, ext_d(wedge(uF, G))), (-sgn, LuF_G), (1, f))),
        ("a+b", combine((1, ext_d(contract(u, wedge(F, G)))), (-1, LuF_G), (-1, F_LuG))),
    ]
    return [(name, residual_check(name, name, "", *residuals).witness)
            for name, *residuals in rows]


@pytest.mark.parametrize("broken", [False, True], ids=["exact", "broken-lie"])
@pytest.mark.parametrize("chart", CHARTS, ids=_id)
def test_identity_rows_are_the_differences_built_from_forms(chart, broken, monkeypatch):
    # a doubled Lie derivative makes the a, b and a+b residuals nonzero, so
    # their witnesses compare, not only the verdicts
    used = ((lambda *args: lie_derivative(*args).scale(2)) if broken
            else lie_derivative)
    monkeypatch.setattr(electrodynamics, "lie_derivative", used)
    rng = random.Random(f"fused-identities:{_id(chart)}")
    failed = set()
    for cfg, u in _configs(chart, rng, rounds=3):
        rows = [(row.check_id, row.witness) for row in identity_suite(u, cfg)]
        assert rows == _unfused_identity_rows(u, cfg, used)
        failed.update(name for name, witness in rows if witness)
    assert failed == ({"a", "b", "a+b"} if broken else set())


# -- one kernel call per output component ---------------------------------------


def _dense(rng, chart, degree, twist):
    comps = {idx: random_polynomial(rng, chart.n, 2, chart.complex_mode)
             for idx in combinations(range(chart.n), degree)}
    form = Form(chart, degree, twist, comps)
    assert len(form.components) == comb(chart.n, degree)
    return form


def _kernel_calls(monkeypatch):
    calls = []
    real = forms.term_sum
    monkeypatch.setattr(forms, "term_sum",
                        lambda *args: calls.append(args[2]) or real(*args))
    return calls


@pytest.mark.parametrize("mode", [False, True], ids=["real", "complex"])
def test_fused_sums_make_one_kernel_call_per_component(mode, monkeypatch):
    chart, p = Chart(6, complex_mode=mode), 3
    rng = random.Random("fused-calls")
    a = _dense(rng, chart, p, True)
    u = _polynomial_field(rng, chart, dense=True)
    ua, da = contract(u, a), ext_d(a)
    uda = contract(u, da)
    calls = _kernel_calls(monkeypatch)
    # C(6, 3) components of L_u a, plus C(6, 2) for u _| a and C(6, 4) for
    # da when they are not given
    for given, expected in (({"ua": ua, "da": da}, 20), ({"ua": ua, "uda": uda}, 20),
                            ({"ua": ua}, 20 + 15), ({"da": da}, 20 + 15),
                            ({"uda": uda}, 20 + 15), ({}, 20 + 15 + 15)):
        del calls[:]
        lie_derivative(u, a, **given)
        assert len(calls) == expected, sorted(given)

    cfg = FieldConfig(_dense(rng, chart, p, False), _dense(rng, chart, 6 - p, True))
    d = densities(u, cfg)
    del calls[:]
    d.residual()
    assert len(calls) == comb(6, 6)
    # u _| F, u _| G, L_u F (given its u _| F and dF) and the residual;
    # sigma_u's C(6, 5) components, f_u and phi_u are never summed, and
    # phi_u reads d(u _| FG) in place of L_u G
    del calls[:]
    conservation_residual(u, cfg)
    assert len(calls) == 15 + 15 + 20 + 1


@pytest.mark.parametrize("chart", [Chart(4), Chart(4, complex_mode=True)], ids=_id)
def test_densities_take_one_lie_derivative(chart, monkeypatch):
    # phi_u takes L_u F alone: its F ^ L_u G half is d(u _| FG) - L_u F ^ G
    rng = random.Random(f"one-lie:{_id(chart)}")
    cfg = FieldConfig(_dense(rng, chart, 2, False), _dense(rng, chart, 2, True))
    calls = []
    monkeypatch.setattr(electrodynamics, "lie_derivative",
                        lambda u, a, *args: calls.append(a) or lie_derivative(u, a, *args))
    for u in _fields(chart, rng):
        del calls[:]
        densities(u, cfg)
        assert calls == [cfg.F]


@pytest.mark.parametrize("chart", [Chart(4), Chart(5, complex_mode=True)], ids=_id)
def test_every_reader_takes_one_densities_call(chart, monkeypatch):
    # _densities writes every energy-momentum term; each reader calls it
    # once per field config and writes none of those terms itself
    rng = random.Random(f"one-writer:{_id(chart)}")
    cfg = FieldConfig(_dense(rng, chart, 2, False), _dense(rng, chart, chart.n - 2, True))
    before = FieldConfig(_dense(rng, chart, 2, False), _dense(rng, chart, chart.n - 2, True))
    calls = []
    real = electrodynamics._densities
    monkeypatch.setattr(electrodynamics, "_densities",
                        lambda u, fc, *args: calls.append(fc) or real(u, fc, *args))
    for u in _fields(chart, rng):
        for run, expected in ((lambda: conservation_residual(u, cfg), [cfg]),
                              (lambda: identity_suite(u, cfg), [cfg]),
                              (lambda: densities(u, cfg), [cfg]),
                              (lambda: densities(u, cfg, before, Fraction(2, 3)), [cfg, before])):
            del calls[:]
            run()
            assert calls == expected


def test_residual_multiplies_no_fractions(monkeypatch):
    # multipliers reach the term loops as integers: a wedge summand is signed
    # without a product and each adder reads each one once per call
    chart = Chart(6)
    rng = random.Random("no-fraction-products")
    cfg = FieldConfig(random_form(rng, chart, 3, False), random_form(rng, chart, 3, True))
    u = _polynomial_field(rng, chart)
    calls = []
    for name in ("__mul__", "__rmul__"):
        real = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name, lambda x, y, real=real, name=name:
                            calls.append(name) or real(x, y))
    assert densities(u, cfg).residual().is_zero()
    assert conservation_residual(u, cfg).is_zero()
    assert all(row.passed for row in identity_suite(u, cfg))
    assert calls == []


def test_coordinate_field_residual_multiplies_no_fractions(monkeypatch):
    # along d/dx_k the contractions scale by the signed multipliers formed
    # once per call; a rate of 1 reuses them, so no term takes a product
    chart = Chart(6)
    rng = random.Random("no-fraction-products")
    cfg = FieldConfig(random_form(rng, chart, 3, False), random_form(rng, chart, 3, True))
    calls = []
    for name in ("__mul__", "__rmul__"):
        real = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name, lambda x, y, real=real, name=name:
                            calls.append(name) or real(x, y))
    for k in range(chart.n):
        u = forms.coordinate_field(chart, k)
        assert densities(u, cfg).residual().is_zero()
        assert conservation_residual(u, cfg).is_zero()
        assert all(row.passed for row in identity_suite(u, cfg))
    assert calls == []


def test_arithmetic_leaves_every_gcd_to_the_reads(monkeypatch):
    # the kernels drop zeros but divide no common factor out; only a read
    # of den or nums, or a hash, reduces
    def refuse(self):
        raise AssertionError("a kernel reduced a polynomial")

    monkeypatch.setattr(scalars.Polynomial, "_reduce", refuse)
    chart = Chart(6)
    rng = random.Random("reduce-on-read")
    cfg = FieldConfig(random_form(rng, chart, 3, False), random_form(rng, chart, 3, True))
    u = _polynomial_field(rng, chart)
    d = densities(u, cfg)
    # a coordinate field takes lie_derivative's constant-u branch
    along = densities(forms.coordinate_field(chart, 2), cfg)
    rows = identity_suite(u, cfg)
    assert d.residual().is_zero() and along.residual().is_zero()
    assert [row.passed for row in rows] == [True] * 4
    loose = [p for x in (d, along) for f in x for p in f.components.values()
             if raw_factor(p) > 1]
    assert loose  # the patch had values to catch


def test_constant_rates_are_ints_unless_fractional():
    # a coordinate field's rates 0 and 1 reach the term adders as ints, not Fractions
    chart, half = Chart(4), Fraction(1, 2)
    rates = forms._rational_constants(forms.coordinate_field(chart, 2))
    assert rates == [0, 0, 1, 0] and {type(r) for r in rates} == {int}
    u = VectorField(chart, [chart.const_poly(c) for c in (half, 0, -3, half * 4)])
    rates = forms._rational_constants(u)
    assert rates == [half, 0, -3, 2] and [type(r) for r in rates] == [Fraction, int, int, int]


def test_scaling_takes_no_gcd_pass(monkeypatch):
    # a real or purely imaginary multiplier scales each component in one
    # pass: its gcd is read off the inputs, so _reduced is never called
    rng = random.Random("one-pass-scaling")
    real, gauss = Chart(4), Chart(4, complex_mode=True)
    a = random_form(rng, real, 2, False)
    b = random_form(rng, gauss, 2, False)
    p = random_polynomial(rng, 4, 3, False)
    pair = FieldPairZ(a, random_form(rng, real, 2, True), Fraction(-3, 5))
    assert not (a.is_zero() or b.is_zero() or p.is_zero() or pair.G.is_zero())
    reduced = []
    real_reduced = scalars._reduced
    monkeypatch.setattr(scalars, "_reduced",
                        lambda *args: reduced.append(args[2]) or real_reduced(*args))
    scaled = (a.scale(3), b.scale((0, -1)), p.scale(-2))
    starred = star_z(pair)
    assert reduced == []
    monkeypatch.undo()
    assert scaled[0] == combine((3, a)) and scaled[2] == p + p.scale(-3)
    assert scaled[1].scale((0, 1)) == b
    assert star_z(starred) == FieldPairZ(-a, -pair.G, pair.z)
