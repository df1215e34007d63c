"""Verification suites: seeded batches of exact checks over random fields.

Every suite maps a RunConfig to a list of CheckResult rows.  Ids carry a
zero-padded instance number so sorted report order equals generation
order.  Each suite draws from its own deterministically seeded stream
(seed string "<seed>:<suite>"), so adding or removing suites never
shifts another suite's sample sequence.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .electrodynamics import (Axion, FieldConfig, conservation_residual,
                              densities, identity_suite, recompose,
                              split_3plus1)
from .errors import ConfigError
from .forms import coordinate_field
from .randgen import random_form, random_vector_field
from .reciprocity import (FieldPairZ, check_factorization, pair_tensor,
                          self_reciprocal_pair, star_z, tensor)
from .report import CheckResult, nonzero_witness

_DEFAULT_Z = (Fraction(1), Fraction(2), Fraction(-3), Fraction(1, 5))


def _rng(cfg, suite):
    return random.Random(f"{cfg.seed}:{suite}")


def _instances(cfg, *fields):
    """samples if any of the named inputs is drawn randomly, else 1."""
    for name in fields:
        if getattr(cfg, name) in (None, "random"):
            return cfg.samples
    return 1


def _form(cfg, rng, name, degree, twist):
    """Input form `name` of one instance: drawn from rng when "random" (or,
    for G, unset), else the form given in the config."""
    form = getattr(cfg, name)
    if form in (None, "random"):
        return random_form(rng, cfg.chart(), degree, twist, cfg.degree_bound)
    return form


def _vector_field(cfg, rng):
    if cfg.u == "random":
        return random_vector_field(rng, cfg.chart(), cfg.degree_bound)
    return cfg.u


def parse_field_inputs(cfg, rng):
    """(F, G) of one instance: F, then G from the law, drawn or given.

    Suites draw every input in the order F, G, J, u so reports are
    reproducible byte for byte; see docs/conventions.md.
    """
    F = _form(cfg, rng, "F", cfg.p, False)
    if cfg.constitutive is not None:
        return F, cfg.constitutive.apply(F)
    return F, _form(cfg, rng, "G", cfg.n - cfg.p, True)


def _result(check_id, equation, description, residual):
    ok = residual.is_zero()
    return CheckResult(check_id, equation, description, ok,
                       "" if ok else nonzero_witness(residual))


def _first_nonzero(*residuals):
    """The first nonzero residual, or the last (zero) one if all vanish."""
    return next((r for r in residuals if not r.is_zero()), residuals[-1])


def conservation_suite(cfg):
    rng = _rng(cfg, "conservation")
    checks = []
    for k in range(_instances(cfg, "F", "G", "u")):
        F, G = parse_field_inputs(cfg, rng)
        u = _vector_field(cfg, rng)
        r = conservation_residual(u, FieldConfig(F, G))
        checks.append(_result(
            f"conservation-{k:04d}", "en-mom",
            f"d(Sigma_u) - f_u - phi_u = 0 at n={cfg.n}, p={cfg.p}", r))
    return checks


def identities_suite(cfg):
    rng = _rng(cfg, "identities")
    checks = []
    for k in range(_instances(cfg, "F", "G", "u")):
        F, G = parse_field_inputs(cfg, rng)
        u = _vector_field(cfg, rng)
        checks.extend(identity_suite(u, FieldConfig(F, G),
                                     id_prefix=f"identity-{k:04d}-"))
    return checks


def phi_suite(cfg):
    """Symmetry-obstruction checks under the configured constitutive law.

    phi_u = 0 is a theorem for the metric laws with constant data and
    coordinate u; for a custom law it generally FAILS, with the nonzero
    witness reported.  The balance checks must pass either way: the
    conservation identity holds whatever G is.
    """
    law = cfg.constitutive
    if law is None:
        raise ConfigError("phi suite needs a constitutive law")
    tag = "ML" if isinstance(law, Axion) else "constit"
    chart = cfg.chart()
    rng = _rng(cfg, "phi")

    if cfg.u == "random":
        us = [(f"u{a}", coordinate_field(chart, a)) for a in range(cfg.n)]
    else:
        us = [("u", cfg.u)]

    checks = []
    for k in range(_instances(cfg, "F")):
        fc = FieldConfig(*parse_field_inputs(cfg, rng))
        for label, u in us:
            d = densities(u, fc)
            checks.append(_result(
                f"phi-{k:04d}-{label}", tag,
                f"phi_u = 0 under the {law.kind} law for {label}", d.phi))
            checks.append(_result(
                f"phi-{k:04d}-{label}-balance", "en-mom",
                f"balance d(Sigma_u) = f_u + phi_u still exact for {label}",
                d.residual()))
    return checks


def split_suite(cfg):
    if cfg.n != 4 or cfg.p != 2:
        raise ConfigError("split suite needs n=4, p=2")
    rng = _rng(cfg, "split")
    checks = []
    for k in range(_instances(cfg, "F", "G", "J")):
        F, G = parse_field_inputs(cfg, rng)
        J = _form(cfg, rng, "J", cfg.n - cfg.p + 1, True)
        _vector_field(cfg, rng)  # unused, drawn to keep the F, G, J, u order
        s = split_3plus1(F, G, J)
        F2, G2, J2 = recompose(s)
        rows = [("F", F2 - F, "F", "B + E^dx0 rebuilds F; E, B untwisted and spatial"),
                ("G", G2 - G, "G", "D - H^dx0 rebuilds G; H, D twisted and spatial"),
                ("J", J2 - J, "G", "rho - j^dx0 rebuilds J; j, rho twisted and spatial")]
        for name, residual, eq, desc in rows:
            checks.append(_result(f"split-{k:04d}-{name}", eq, desc, residual))
    return checks


def reciprocity_suite(cfg):
    if cfg.n != 4 or cfg.p != 2:
        raise ConfigError("reciprocity suite needs n=4, p=2")
    rng = _rng(cfg, "reciprocity")
    zs = cfg.z if cfg.z else _DEFAULT_Z

    checks = []
    for k in range(_instances(cfg, "F", "G", "u")):
        F, G = parse_field_inputs(cfg, rng)
        u = _vector_field(cfg, rng)
        z = zs[k % len(zs)]
        pair = FieldPairZ(F, G, z)

        st = star_z(pair)
        twice = star_z(st)
        checks.append(_result(
            f"recip-{k:04d}-square", "recip2",
            f"star_z applied twice negates the pair (z={z})",
            _first_nonzero(twice.F + F, twice.G + G)))

        before = densities(u, FieldConfig(pair.F, pair.G))
        after = densities(u, FieldConfig(st.F, st.G))
        checks.append(_result(
            f"recip-{k:04d}-densities", "recip2",
            "Sigma_u, f_u, phi_u unchanged by the reciprocity map",
            _first_nonzero(after.sigma - before.sigma,
                           after.force - before.force,
                           after.phi - before.phi)))

        scaled = FieldPairZ(F.scale(3), G.scale(Fraction(1, 3)), z)
        ok = pair_tensor(scaled) == pair_tensor(pair)
        checks.append(CheckResult(
            f"recip-{k:04d}-tensor", "k",
            "pair tensor invariant under (F, G) -> (kF, G/k), k=3", ok,
            "" if ok else "tensor changed under rescaling"))

        ok = pair_tensor(st) == tensor(-G, F)
        checks.append(CheckResult(
            f"recip-{k:04d}-swap", "O22",
            "tensor of the starred pair is -G (x) F, independent of z", ok,
            "" if ok else "starred tensor is not -G (x) F"))

        cpair = pair.to_complex()
        for sign, label in ((1, "plus"), (-1, "minus")):
            eig = self_reciprocal_pair(cpair, sign)
            seig = star_z(eig)
            lam = (0, sign)
            ok = (seig.F == eig.F.scale(lam) and seig.G == eig.G.scale(lam)
                  and eig.F == eig.G.scale((0, -sign * cpair.z), pseudo=True))
            checks.append(CheckResult(
                f"recip-{k:04d}-eigen-{label}", "evs2",
                "self-reciprocal pair is a star_z eigenvector "
                f"(eigenvalue {'+i' if sign == 1 else '-i'})", ok,
                "" if ok else "eigenpair relation failed"))
    return checks


def factorization_suite(cfg):
    if cfg.n != 4 or cfg.p != 2:
        raise ConfigError("factorization suite needs n=4, p=2")
    metric = cfg.metric_spec()
    Z0 = cfg.Z0 if cfg.Z0 is not None else Fraction(1)
    rng = _rng(cfg, "factorization")
    checks = []
    for k in range(_instances(cfg, "F")):
        F = _form(cfg, rng, "F", 2, False)
        checks.extend(check_factorization(metric, Z0, F,
                                          id_prefix=f"factor-{k:04d}-"))
    return checks


SUITE_RUNNERS = {
    "conservation": conservation_suite,
    "identities": identities_suite,
    "phi": phi_suite,
    "split": split_suite,
    "reciprocity": reciprocity_suite,
    "factorization": factorization_suite,
}


def run_suites(cfg, names):
    checks = []
    for name in names:
        checks.extend(SUITE_RUNNERS[name](cfg))
    return checks
