"""Fused form sums against the forms they replace.

`combine` takes a term (m, ext_d, a) for m * d(a) and puts its partial
derivatives into the same per-component sums as its other terms.  Cartan's
formula in `lie_derivative`, `Densities.residual()` and the `a`, `b` and
`a+b` rows of `identity_suite` are built that way, so d(a), u _| a and
u _| da are never formed only to be summed again.  Each fused result must
equal the same expression built from the public `ext_d`, `contract` and
`combine`, and each must stay one kernel call per output component.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

import premetric.electrodynamics as electrodynamics
from premetric import forms
from premetric.electrodynamics import Densities, FieldConfig, densities, identity_suite
from premetric.errors import StructuralError
from premetric.forms import (Chart, Form, VectorField, basis_form, combine, contract,
                             ext_d, lie_derivative, wedge, wedge_sum)
from premetric.randgen import random_form, random_polynomial, random_vector_field
from premetric.report import residual_check

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


def _unfused_identity_rows(u, cfg, lie):
    """identity_suite's rows, each residual built from whole forms."""
    F, G, dG, sgn = cfg.F, cfg.G, cfg.dG, (-1) ** cfg.p
    uF, uG, udG = contract(u, F), contract(u, G), contract(u, dG)
    LuF, LuG = lie(u, F), lie(u, G)
    f = wedge_sum((1, cfg.dF, uG), (1, uF, dG))
    F_LuG, LuF_G = wedge(F, LuG), wedge(LuF, G)
    rows = [
        ("sym", wedge_sum((1, uF, dG), (sgn, F, udG)), contract(u, wedge(F, dG))),
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
    real = forms.poly_sum
    monkeypatch.setattr(forms, "poly_sum",
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
