import random
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import force_u_4d, linear_local_from, phi_u_4d, sigma_u_4d
from premetric import electrodynamics
from premetric.config import load_config
from premetric.electrodynamics import (
    Axion,
    Custom,
    FieldConfig,
    LinearLocal,
    MaxwellLorentz,
    SplitFields,
    conservation_residual,
    force_u,
    identity_suite,
    obstruction_phi_u,
    recompose,
    sigma_u,
    split_3plus1,
)
from premetric.errors import StructuralError
from premetric.forms import (Chart, Form, basis_form, contract, coordinate_field, ext_d,
                             lie_derivative, wedge)
from premetric.hodge import MetricSpec, hodge
from premetric.randgen import random_form, random_polynomial, random_vector_field
from premetric.suites import run_suites

ROOT = Path(__file__).resolve().parent.parent
CH4 = Chart(4)
MINK = MetricSpec.minkowski(CH4)


def _cfg(F, G):
    return FieldConfig(F, G)


def _random_cfg(rng, chart, p, degree_bound=2):
    F = random_form(rng, chart, p, False, degree_bound)
    G = random_form(rng, chart, chart.n - p, True, degree_bound)
    return _cfg(F, G)


# -- frozen examples ----------------------------------------------------------


def test_sigma_example():
    cfg = _cfg(basis_form(CH4, (0, 1)), basis_form(CH4, (2, 3), twist=True))
    out = sigma_u(coordinate_field(CH4, 0), cfg)
    assert out == basis_form(CH4, (1, 2, 3), twist=True).scale(Fraction(-1, 2))


def test_sigma_vanishes_on_zero_field():
    cfg = _cfg(Form.zero(CH4, 2), basis_form(CH4, (2, 3), twist=True))
    assert sigma_u(coordinate_field(CH4, 1), cfg).is_zero()


def test_force_example():
    cfg = _cfg(basis_form(CH4, (0, 1), coefficient=CH4.variable(2)),
               basis_form(CH4, (2, 3), twist=True, coefficient=CH4.variable(0)))
    out = force_u(coordinate_field(CH4, 0), cfg)
    assert out == basis_form(CH4, (0, 1, 2, 3), twist=True,
                             coefficient=-CH4.variable(2))


def test_force_vanishes_for_closed_fields():
    rng = random.Random(301)
    for _ in range(5):
        # constant-coefficient forms are closed
        F = Form(CH4, 2, False, {(0, 2): CH4.const_poly(rng.randint(1, 5))})
        G = Form(CH4, 2, True, {(1, 3): CH4.const_poly(rng.randint(1, 5))})
        u = random_vector_field(rng, CH4)
        assert force_u(u, _cfg(F, G)).is_zero()


def test_currents_examples():
    F = basis_form(CH4, (0, 1), coefficient=CH4.variable(2))
    G = basis_form(CH4, (2, 3), twist=True)
    cfg = _cfg(F, G)
    J, K = cfg.dG, cfg.dF
    assert K == basis_form(CH4, (0, 1, 2))
    assert J.is_zero()
    assert J.twist and not K.twist
    rng = random.Random(302)
    for _ in range(10):
        cfg = _random_cfg(rng, CH4, 2)
        J, K = cfg.dG, cfg.dF
        assert ext_d(J).is_zero() and ext_d(K).is_zero()


# -- conservation and the identity chain ---------------------------------------


def test_conservation_residual_random_all_dimensions():
    rng = random.Random(303)
    for n in (2, 3, 4, 5):
        chart = Chart(n)
        for p in range(1, n):
            for _ in range(4):
                cfg = _random_cfg(rng, chart, p)
                u = random_vector_field(rng, chart)
                assert conservation_residual(u, cfg).is_zero()


def test_conservation_residual_is_computed_not_assumed():
    # feed the residual formula inconsistent inputs by hand: replacing G with
    # a different form inside force_u must break the balance
    rng = random.Random(304)
    cfg = _random_cfg(rng, CH4, 2)
    other = _cfg(cfg.F, basis_form(CH4, (0, 2), twist=True,
                                   coefficient=CH4.variable(1) * CH4.variable(1)))
    u = coordinate_field(CH4, 1)
    mixed = ext_d(sigma_u(u, cfg)) - force_u(u, other) - obstruction_phi_u(u, cfg)
    assert not mixed.is_zero()


# conservation_residual regroups d(sigma_u) - f_u - phi_u as four groups of
# terms; each is picked out by the adder call that makes it
RESIDUAL_GROUPS = {
    "-f_u": ("_wedge_terms", lambda cfg, a, b: a is cfg.dF or b is cfg.dG),
    "(-1)^p L_u F ^ G": ("_wedge_terms", lambda cfg, a, b: b is cfg.G),
    "d(F ^ uG)": ("_wedge_terms", lambda cfg, a, b: a is cfg.F),
    "-(-1)^p d(u _| FG)": ("_contract_terms", lambda cfg, *args: True),
}


def _residual_groups(u, cfg):
    """The four groups as forms, from the public operations."""
    sgn = (-1) ** cfg.p
    return {
        "-f_u": -force_u(u, cfg),
        "(-1)^p L_u F ^ G": wedge(lie_derivative(u, cfg.F), cfg.G).scale(sgn),
        "d(F ^ uG)": ext_d(wedge(cfg.F, contract(u, cfg.G))),
        "-(-1)^p d(u _| FG)": ext_d(contract(u, wedge(cfg.F, cfg.G))).scale(-sgn),
    }


@pytest.mark.parametrize("mode", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("field", ["polynomial", "coordinate"])
def test_every_group_of_the_regrouped_residual_counts(monkeypatch, n, mode, field):
    # negating or dropping any one group's terms leaves a nonzero residual,
    # -2 or -1 times that group as the public operations build it
    chart = Chart(n, complex_mode=mode)
    rng = random.Random(f"regrouped:{n}:{mode}:{field}")
    cfg = _random_cfg(rng, chart, n // 2)
    u = (random_vector_field(rng, chart) if field == "polynomial"
         else coordinate_field(chart, 1))
    expected = _residual_groups(u, cfg)
    assert conservation_residual(u, cfg).is_zero()
    assert sum(expected.values(), Form.zero(chart, n, True)).is_zero()
    for group, (name, picks) in RESIDUAL_GROUPS.items():
        for m in (-1, 0):
            with monkeypatch.context() as patch:
                real = getattr(electrodynamics, name)

                def adder(groups, mult, *args, real=real, picks=picks, m=m):
                    if not picks(cfg, *args):
                        return real(groups, mult, *args)
                    return real(groups, -mult, *args) if m else groups

                patch.setattr(electrodynamics, name, adder)
                residual = conservation_residual(u, cfg)
            assert not residual.is_zero(), (group, m)
            assert residual == expected[group].scale(m - 1), (group, m)


# check reads every write of _densities: negating one of them, picked by
# the adder call that makes it inside _densities, FAILs the conservation
# suite and the identity rows alike
DENSITY_WRITES = {
    "force_u": lambda cfg, a, b: a is cfg.dF or b is cfg.dG,
    "F ^ uG": lambda cfg, a, b: a is cfg.F,
    "L_u F ^ G": lambda cfg, a, b: b is cfg.G,
    "u _| FG": None,  # the returned terms
}


@pytest.mark.parametrize("write", DENSITY_WRITES)
def test_every_write_of_densities_fails_check(monkeypatch, write):
    picks, inside = DENSITY_WRITES[write], []
    real_densities, real_wedge = electrodynamics._densities, electrodynamics._wedge_terms

    def densities_spy(u, cfg, *args):
        inside.append(cfg)
        try:
            terms = real_densities(u, cfg, *args)
        finally:
            inside.pop()
        if picks is None:
            terms = {idx: [(-k, *rest) for k, *rest in ts] for idx, ts in terms.items()}
        return terms

    def wedge_spy(groups, m, a, b):
        flip = picks is not None and inside and picks(inside[-1], a, b)
        return real_wedge(groups, -m if flip else m, a, b)

    monkeypatch.setattr(electrodynamics, "_densities", densities_spy)
    monkeypatch.setattr(electrodynamics, "_wedge_terms", wedge_spy)
    conservation = load_config(str(ROOT / "configs/conservation.json"))
    vacuum = load_config(str(ROOT / "configs/vacuum.json"))
    assert vacuum.suites_for("check") == ("conservation", "identities")
    for cfg, suite in ((conservation, "conservation"), (vacuum, "conservation"),
                       (vacuum, "identities")):
        assert not all(row.passed for row in run_suites(cfg, [suite])), (write, suite)


def test_identity_suite_random():
    rng = random.Random(305)
    for _ in range(10):
        cfg = _random_cfg(rng, CH4, 2)
        u = random_vector_field(rng, CH4)
        assert all(c.passed for c in identity_suite(u, cfg))
    for n, p in ((3, 2), (3, 1), (5, 3), (2, 1)):
        chart = Chart(n)
        for _ in range(3):
            cfg = _random_cfg(rng, chart, p)
            u = random_vector_field(rng, chart)
            checks = identity_suite(u, cfg)
            assert [c.check_id for c in checks] == ["sym", "a", "b", "a+b"]
            assert all(c.passed for c in checks)


def test_identity_suite_sparse_basis_case():
    cfg = _cfg(basis_form(CH4, (0, 1)), basis_form(CH4, (2, 3), twist=True))
    assert all(c.passed for c in identity_suite(coordinate_field(CH4, 2), cfg))


def test_specializations_agree_with_general():
    rng = random.Random(306)
    for _ in range(15):
        cfg = _random_cfg(rng, CH4, 2)
        u = random_vector_field(rng, CH4)
        assert sigma_u(u, cfg) == sigma_u_4d(u, cfg)
        assert force_u(u, cfg) == force_u_4d(u, cfg)
        assert obstruction_phi_u(u, cfg) == phi_u_4d(u, cfg)
    with pytest.raises(StructuralError):
        sigma_u_4d(coordinate_field(Chart(3), 0),
                   _random_cfg(rng, Chart(3), 1))


def test_densities_are_twisted():
    rng = random.Random(307)
    cfg = _random_cfg(rng, CH4, 2)
    u = random_vector_field(rng, CH4)
    assert sigma_u(u, cfg).twist
    assert force_u(u, cfg).twist
    assert obstruction_phi_u(u, cfg).twist


def test_reciprocity_invariance_of_densities():
    # (F, G) -> (zG, -F/z) leaves all three densities unchanged
    rng = random.Random(308)
    for z in (3, 2, Fraction(-1, 5)):
        cfg = _random_cfg(rng, CH4, 2)
        u = random_vector_field(rng, CH4)
        swapped = _cfg(cfg.G.scale(z, pseudo=True),
                       cfg.F.scale(-1 / Fraction(z), pseudo=True))
        assert sigma_u(u, swapped) == sigma_u(u, cfg)
        assert force_u(u, swapped) == force_u(u, cfg)
        assert obstruction_phi_u(u, swapped) == obstruction_phi_u(u, cfg)


def test_field_config_validation():
    F = basis_form(CH4, (0, 1))
    G = basis_form(CH4, (2, 3), twist=True)
    with pytest.raises(StructuralError):
        FieldConfig(basis_form(CH4, (0, 1), twist=True), G)   # F twisted
    with pytest.raises(StructuralError):
        FieldConfig(F, basis_form(CH4, (2, 3)))               # G untwisted
    with pytest.raises(StructuralError):
        FieldConfig(F, basis_form(CH4, (2,), twist=True))     # degree n-p
    with pytest.raises(StructuralError):
        FieldConfig(Form.zero(CH4, 0), Form.zero(CH4, 4, True))
    with pytest.raises(StructuralError):
        FieldConfig(F, basis_form(Chart(4, orientation=-1), (2, 3), twist=True))


# -- 3+1 split ------------------------------------------------------------------


def test_split_example():
    F = basis_form(CH4, (1, 2)) - basis_form(CH4, (0, 1), coefficient=CH4.variable(3))
    G = basis_form(CH4, (1, 2), twist=True)
    J = Form.zero(CH4, 3, True)
    sp = split_3plus1(F, G, J)
    assert sp.B == basis_form(CH4, (1, 2))
    assert sp.E == basis_form(CH4, (1,), coefficient=CH4.variable(3))
    assert sp.D == basis_form(CH4, (1, 2), twist=True)
    assert sp.H.is_zero() and sp.j.is_zero() and sp.rho.is_zero()


def test_split_twist_flags():
    rng = random.Random(309)
    F = random_form(rng, CH4, 2, False)
    G = random_form(rng, CH4, 2, True)
    J = random_form(rng, CH4, 3, True)
    sp = split_3plus1(F, G, J)
    assert not sp.E.twist and not sp.B.twist
    assert sp.H.twist and sp.D.twist and sp.j.twist and sp.rho.twist
    for form in (sp.E, sp.B, sp.H, sp.D, sp.j, sp.rho):
        assert all(0 not in idx for idx in form.components)


def test_split_recompose_roundtrip():
    rng = random.Random(310)
    for _ in range(20):
        F = random_form(rng, CH4, 2, False)
        G = random_form(rng, CH4, 2, True)
        J = random_form(rng, CH4, 3, True)
        sp = split_3plus1(F, G, J)
        rF, rG, rJ = recompose(sp)
        assert rF == F and rG == G and rJ == J


def _spatial(rng, degree, twist):
    full = random_form(rng, CH4, degree, twist)
    comps = {idx: p for idx, p in full.components.items() if 0 not in idx}
    return Form(CH4, degree, twist, comps)


def test_recompose_split_roundtrip():
    rng = random.Random(311)
    for _ in range(20):
        sp = SplitFields(
            E=_spatial(rng, 1, False), B=_spatial(rng, 2, False),
            H=_spatial(rng, 1, True), D=_spatial(rng, 2, True),
            j=_spatial(rng, 2, True), rho=_spatial(rng, 3, True))
        F, G, J = recompose(sp)
        again = split_3plus1(F, G, J)
        assert again == sp


def test_split_validation():
    F = basis_form(CH4, (0, 1))
    G = basis_form(CH4, (2, 3), twist=True)
    J = Form.zero(CH4, 3, True)
    ch3 = Chart(3)
    with pytest.raises(StructuralError, match="^3\\+1 split needs a 4-dimensional chart$"):
        split_3plus1(basis_form(ch3, (0, 1)), basis_form(ch3, (1, 2), twist=True),
                     Form.zero(ch3, 3, True))
    with pytest.raises(StructuralError):
        split_3plus1(F, basis_form(CH4, (2, 3)), J)
    with pytest.raises(StructuralError):
        split_3plus1(F, G, Form.zero(CH4, 3, False))
    with pytest.raises(StructuralError):
        SplitFields(E=basis_form(CH4, (0,)), B=_spatial(random.Random(0), 2, False),
                    H=Form.zero(CH4, 1, True), D=Form.zero(CH4, 2, True),
                    j=Form.zero(CH4, 2, True), rho=Form.zero(CH4, 3, True))


# -- constitutive laws -----------------------------------------------------------


def test_maxwell_lorentz_example():
    law = MaxwellLorentz(MINK, 2)
    G = law.apply(basis_form(CH4, (0, 1)))
    assert G == basis_form(CH4, (2, 3), twist=True).scale(Fraction(-1, 2))
    assert G.twist


def test_axion_example():
    law = Axion(MINK, 1, 1)
    G = law.apply(basis_form(CH4, (0, 1)))
    assert G == (basis_form(CH4, (0, 1), twist=True)
                 - basis_form(CH4, (2, 3), twist=True))


def test_impedance_must_be_nonzero_pseudo():
    with pytest.raises(StructuralError):
        MaxwellLorentz(MINK, 0)
    with pytest.raises(StructuralError):
        MaxwellLorentz(MINK, 2.0)              # impedances are exact
    with pytest.raises(StructuralError):
        Axion(MINK, Fraction(0), 1)


def test_phi_vanishes_for_maxwell_lorentz():
    rng = random.Random(312)
    for z0 in (1, 2, 377):
        law = MaxwellLorentz(MINK, z0)
        for _ in range(5):
            F = random_form(rng, CH4, 2, False)
            cfg = _cfg(F, law.apply(F))
            for k in range(4):
                assert obstruction_phi_u(coordinate_field(CH4, k), cfg).is_zero()


def test_phi_vanishes_for_constant_axion():
    rng = random.Random(313)
    law = Axion(MINK, 2, Fraction(5, 3))
    for _ in range(5):
        F = random_form(rng, CH4, 2, False)
        cfg = _cfg(F, law.apply(F))
        for k in range(4):
            assert obstruction_phi_u(coordinate_field(CH4, k), cfg).is_zero()


def test_axion_witness_nonzero_phi():
    # non-constant axion coefficient: the residual identity still holds but
    # the obstruction itself does not vanish
    law = Axion(MINK, 1, CH4.variable(1))
    F = basis_form(CH4, (0, 2)) + basis_form(CH4, (1, 3))
    cfg = _cfg(F, law.apply(F))
    u = coordinate_field(CH4, 1)
    phi = obstruction_phi_u(u, cfg)
    assert phi == basis_form(CH4, (0, 1, 2, 3), twist=True).scale(-1)
    assert conservation_residual(u, cfg).is_zero()


def test_linear_local_matches_maxwell_lorentz():
    rng = random.Random(314)
    law = MaxwellLorentz(MINK, 2)
    ll = linear_local_from(law, CH4, 2)
    for _ in range(10):
        F = random_form(rng, CH4, 2, False)
        assert ll.apply(F) == law.apply(F)


def test_linear_local_shape_check():
    with pytest.raises(StructuralError):
        LinearLocal(CH4, 2, [[0] * 6] * 5)
    with pytest.raises(StructuralError):
        LinearLocal(CH4, 2, [[random_polynomial(random.Random(0), 3, 1)] * 6] * 6)


@pytest.mark.parametrize("p", [2.0, True, -1, 5, "2", None])
def test_linear_local_refuses_a_bad_degree(p):
    # 2.0 and None used to raise TypeError, 5 ValueError, and True was read as 1
    with pytest.raises(StructuralError,
                       match=f"^linear-local degree must be an int in 0..4, got {p!r}$"):
        LinearLocal(CH4, p, [[0] * 4] * 4)


def test_linear_local_refuses_rows_that_are_not_lists():
    # a row that is not a list used to raise TypeError
    for chi in ([[0] * 6] * 5 + [5], [[0] * 6] * 5 + [None], [(0,) * 6] * 6, None,
                tuple([[0] * 6] * 6)):
        with pytest.raises(StructuralError, match="^chi must be 6x6 for n=4, p=2$"):
            LinearLocal(CH4, 2, chi)
    # the degree runs over 0..n: at p = 0 chi maps functions to 4-forms
    law = LinearLocal(CH4, 0, [[CH4.variable(1)]])
    F = Form(CH4, 0, False, {(): CH4.variable(0)})
    assert law.apply(F) == basis_form(CH4, (0, 1, 2, 3), True,
                                      CH4.variable(0) * CH4.variable(1))
    assert LinearLocal(CH4, 4, [[3]]).apply(Form.zero(CH4, 4)).is_zero()


def test_custom_law():
    fixed = basis_form(CH4, (2, 3), twist=True, coefficient=CH4.variable(0))
    law = Custom(fixed)
    F = basis_form(CH4, (0, 1))
    assert law.apply(F) == fixed
    # generic unrelated G gives a nonzero obstruction
    cfg = _cfg(F, fixed)
    phi = obstruction_phi_u(coordinate_field(CH4, 0), cfg)
    assert not phi.is_zero()
    assert conservation_residual(coordinate_field(CH4, 0), cfg).is_zero()
    with pytest.raises(StructuralError):
        Custom(basis_form(CH4, (2, 3))).apply(F)   # G must be twisted


def test_axion_alpha_must_match_the_metric_chart():
    # refused when the law is built, as a chi entry is: a zero alpha used to
    # pass unseen and a nonzero one to fail only in apply
    for alpha in (Chart(3).variable(0), Chart(3).zero_poly(), Chart(5).const_poly(2)):
        with pytest.raises(StructuralError, match="axion alpha does not match"):
            Axion(MINK, 1, alpha)
    F = basis_form(CH4, (0, 1))
    assert Axion(MINK, 1, CH4.zero_poly()).apply(F) == MaxwellLorentz(MINK, 1).apply(F)


def test_axion_alpha_is_a_real_pseudoscalar():
    # alpha is kept in real mode whatever the mode it comes in, and an
    # imaginary coefficient is refused; a complex-mode alpha used to fail
    # on a real F with a mode mismatch in apply
    cplx = Chart(4, complex_mode=True)
    m_c = MetricSpec.minkowski(cplx)
    x1, third = CH4.variable(1), Fraction(1, 3)
    for metric in (MINK, m_c):
        for alpha, real in ((cplx.variable(1), x1), (x1, x1), (third, CH4.const_poly(third)),
                            (cplx.variable(1).scale(third), x1.scale(third))):
            law = Axion(metric, 1, alpha)
            assert law.alpha.complex_mode is False and law.alpha == real
        for alpha in (cplx.const_poly((0, 1)), cplx.variable(0) + cplx.const_poly((2, -1))):
            with pytest.raises(StructuralError,
                               match="^axion alpha must be real, got an imaginary coefficient$"):
                Axion(metric, 1, alpha)
    F, Fc = basis_form(CH4, (0, 1)), basis_form(cplx, (0, 1))
    assert Axion(MINK, 1, cplx.variable(1)).apply(F) == Axion(MINK, 1, x1).apply(F)
    assert Axion(MINK, 1, cplx.variable(1)).apply(Fc) == Axion(m_c, 1, x1).apply(Fc)


def test_axion_needs_middle_degree():
    ch3 = Chart(3)
    m3 = MetricSpec.diagonal(ch3, [1, -1, -1])
    law = Axion(m3, 1, 1)
    with pytest.raises(StructuralError):
        law.apply(basis_form(ch3, (0,)))


def test_impedance_follows_the_chart_scalar_mode():
    # the impedance is a rational, so the metric laws work on complex
    # charts as on real ones
    real, cplx = Chart(4), Chart(4, complex_mode=True)
    F = random_form(random.Random(315), real, 2, False)
    F_c = Form(cplx, 2, False, {i: p.to_complex() for i, p in F.components.items()})
    G = MaxwellLorentz(MetricSpec.minkowski(real), 2).apply(F)
    G_c = Form(cplx, 2, True, {i: p.to_complex() for i, p in G.components.items()})
    m_c = MetricSpec.minkowski(cplx)
    assert MaxwellLorentz(m_c, 2).apply(F_c) == G_c
    assert Axion(m_c, 2, 0).apply(F_c) == G_c
    with pytest.raises(StructuralError):
        MaxwellLorentz(m_c, (2, 0))   # a Gaussian impedance


def test_vacuum_axion_works_off_the_middle_degree():
    for n, p in ((4, 1), (3, 1), (5, 2)):
        chart = Chart(n)
        metric = MetricSpec.minkowski(chart)
        F = random_form(random.Random(316 + n), chart, p, False)
        G = Axion(metric, 3, 0).apply(F)
        assert G == hodge(metric, F).scale(Fraction(1, 3))
        assert G.twist and G.degree == n - p
        with pytest.raises(StructuralError):
            Axion(metric, 3, 1).apply(F)


def test_maxwell_lorentz_is_the_vacuum_axion():
    rng = random.Random(317)
    for n in range(2, 7):
        for complex_mode in (False, True):
            chart = Chart(n, complex_mode=complex_mode)
            metric = MetricSpec.minkowski(chart)
            for p in range(n + 1):
                F = random_form(rng, chart, p, False)
                Z = Fraction(rng.randint(1, 9), rng.randint(1, 9))
                assert (MaxwellLorentz(metric, Z).apply(F)
                        == Axion(metric, Z, 0).apply(F)), (n, p, complex_mode)


def test_metric_laws_follow_the_field_chart_scalar_mode():
    # the metric serves both scalar modes (see hodge), so a law built on
    # the real chart applies to a complex-mode F exactly as the same law
    # built on the complex chart does
    real, cplx = Chart(4), Chart(4, complex_mode=True)
    m_r, m_c = MetricSpec.minkowski(real), MetricSpec.minkowski(cplx)
    rng = random.Random(318)
    for p in range(5):
        F = random_form(rng, cplx, p, False)
        assert (MaxwellLorentz(m_r, 2).apply(F)
                == MaxwellLorentz(m_c, 2).apply(F)), p
        assert Axion(m_r, 2, 0).apply(F) == Axion(m_c, 2, 0).apply(F), p
    F = random_form(rng, cplx, 2, False)
    alpha = random_polynomial(rng, 4, 2)
    assert (Axion(m_r, Fraction(3, 7), alpha).apply(F)
            == Axion(m_c, Fraction(3, 7), alpha.to_complex()).apply(F))
