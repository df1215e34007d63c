"""densities() and the suites that share its pieces, against the formulas.

tests/oracles.py writes Sigma_u, f_u, phi_u and the identity-suite
residuals literally, recomputing every contraction, derivative and Lie
derivative where it appears.  densities() computes each of those pieces
once; both routes must give the same forms, coefficient by coefficient,
on seeded instances at every (n, p) the charts allow, along polynomial
fields and along fields of rational constants, and for the difference
densities(u, cfg, before, c) at a rational c.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from oracles import (literal_force, literal_identity_residuals, literal_phi,
                     literal_sigma)
from premetric.electrodynamics import (FieldConfig, conservation_residual,
                                       densities, force_u, identity_suite,
                                       obstruction_phi_u, sigma_u)
from premetric.forms import Chart, Form, VectorField, coordinate_field, ext_d
from premetric.randgen import random_form, random_polynomial, random_vector_field
from premetric.report import nonzero_witness

CASES = ([(Chart(n), p) for n in range(2, 9) for p in range(1, n)]
         + [(Chart(4, complex_mode=True), p) for p in (1, 2, 3)])


def _instance(rng, chart, p):
    F = random_form(rng, chart, p, False, 2)
    G = random_form(rng, chart, chart.n - p, True, 2)
    return FieldConfig(F, G), random_vector_field(rng, chart, 2)


@pytest.mark.parametrize("chart, p", CASES,
                         ids=[f"n{c.n}-p{p}{'-complex' if c.complex_mode else ''}"
                              for c, p in CASES])
def test_densities_match_the_literal_formulas(chart, p):
    rng = random.Random(f"densities:{chart.n}:{p}:{chart.complex_mode}")
    for _ in range(2 if chart.n <= 6 else 1):
        cfg, u = _instance(rng, chart, p)
        F, G = cfg.F, cfg.G
        sigma, force, phi = (literal_sigma(u, F, G), literal_force(u, F, G),
                             literal_phi(u, F, G))
        d = densities(u, cfg)
        assert (d.sigma, d.force, d.phi) == (sigma, force, phi)
        assert sigma_u(u, cfg) == sigma
        assert force_u(u, cfg) == force
        assert obstruction_phi_u(u, cfg) == phi
        assert d.residual() == ext_d(sigma) - force - phi
        assert d.residual().is_zero()
        assert conservation_residual(u, cfg).is_zero()
        assert (cfg.dG, cfg.dF) == (ext_d(G), ext_d(F))

        residuals = literal_identity_residuals(u, F, G)
        checks = identity_suite(u, cfg)
        assert [c.check_id for c in checks] == list(residuals)
        for check in checks:
            r = residuals[check.check_id]
            if check.check_id == "sym":
                expansion, routed = r
                ok = expansion == routed and expansion.is_zero()
                witness = "" if ok else nonzero_witness(
                    expansion if not expansion.is_zero() else routed)
            else:
                ok, witness = r.is_zero(), nonzero_witness(r)
            assert (check.passed, check.witness) == (ok, witness), check.check_id
            assert check.passed


def test_densities_follow_the_field_config_not_a_cache():
    # two configs sharing F but not G: nothing computed for one may leak
    # into the other
    rng = random.Random(41)
    chart = Chart(4)
    cfg, u = _instance(rng, chart, 2)
    other = FieldConfig(cfg.F, random_form(rng, chart, 2, True, 2))
    for c in (cfg, other, cfg):
        d = densities(u, c)
        assert d.sigma == literal_sigma(u, c.F, c.G)
        assert d.force == literal_force(u, c.F, c.G)
        assert d.phi == literal_phi(u, c.F, c.G)


def _dense(rng, chart, degree, twist):
    return Form(chart, degree, twist,
                {idx: random_polynomial(rng, chart.n, 2, chart.complex_mode)
                 for idx in combinations(range(chart.n), degree)})


def _rational_field(chart):
    """A field of rational constants, not only 0s and 1s (n <= 5)."""
    rates = (Fraction(1, 2), 0, -3, Fraction(-7, 3), 5)[:chart.n]
    return VectorField(chart, [chart.const_poly(c) for c in rates])


CONSTANT_CASES = [(Chart(n, complex_mode=mode), p)
                  for n in range(2, 6) for p in range(1, n) for mode in (False, True)]


@pytest.mark.parametrize("chart, p", CONSTANT_CASES,
                         ids=[f"n{c.n}-p{p}{'-complex' if c.complex_mode else ''}"
                              for c, p in CONSTANT_CASES])
def test_densities_along_constant_fields_match_the_literal_formulas(chart, p):
    # along rational constants u _| FG is a scaled copy of FG, so phi_u's
    # d(u _| FG) half is d of scaled terms, not of products
    rng = random.Random(f"constant-densities:{chart.n}:{p}:{chart.complex_mode}")
    F, G = _dense(rng, chart, p, False), _dense(rng, chart, chart.n - p, True)
    cfg = FieldConfig(F, G)
    nonzero = 0
    for u in (*(coordinate_field(chart, k) for k in range(chart.n)), _rational_field(chart)):
        assert u.rates is not None
        d = densities(u, cfg)
        assert d.sigma == literal_sigma(u, F, G)
        assert d.force == literal_force(u, F, G)
        assert d.phi == literal_phi(u, F, G)
        assert d.residual().is_zero()
        assert conservation_residual(u, cfg).is_zero()
        nonzero += not d.phi.is_zero()
    assert nonzero


@pytest.mark.parametrize("c", [Fraction(2, 3), Fraction(-5, 7)], ids=["2/3", "-5/7"])
@pytest.mark.parametrize("mode", [False, True], ids=["real", "complex"])
def test_difference_at_a_rational_c_matches_the_literal_formulas(mode, c):
    chart = Chart(4, complex_mode=mode)
    rng = random.Random(f"difference:{mode}:{c}")
    u = VectorField(chart, [random_polynomial(rng, 4, 2, mode) for _ in range(4)])
    for p in (1, 2, 3):
        cfg, before = (FieldConfig(_dense(rng, chart, p, False), _dense(rng, chart, 4 - p, True))
                       for _ in range(2))
        for field in (u, coordinate_field(chart, 1), _rational_field(chart)):
            d = densities(field, cfg, before, c)
            for got, literal in zip(d, (literal_sigma, literal_force, literal_phi)):
                after = literal(field, cfg.F, cfg.G)
                assert got == after - literal(field, before.F, before.G).scale(c)
                assert not got.is_zero()
            assert d.residual().is_zero()
