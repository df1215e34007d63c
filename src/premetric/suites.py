"""Verification suites: seeded batches of exact checks over random fields.

Every suite maps a RunConfig to a list of CheckResult rows.  Ids carry a
zero-padded instance number so sorted report order equals generation
order.  Each suite draws from its own deterministically seeded stream
(seed string "<seed>:<suite>"), so adding or removing suites never
shifts another suite's sample sequence.
"""

import random
from fractions import Fraction

from .electrodynamics import (Axion, FieldConfig, conservation_residual,
                              densities, identity_suite, recompose,
                              split_3plus1)
from .errors import ConfigError
from .forms import coordinate_field
from .randgen import random_form, random_vector_field
from .reciprocity import (FieldPairZ, check_double_dual, check_factorization,
                          pair_tensor, self_reciprocal_pair, star_z, tensor)
from .report import CheckResult, residual_check

_DEFAULT_Z = (Fraction(1), Fraction(2), Fraction(-3), Fraction(1, 5))


def _refuse(cfg, suite):
    """Raise the error that keeps `suite` from running on cfg, if any."""
    if suite == "split" and (cfg.n, cfg.p) != (4, 2):
        raise ConfigError("split suite needs n=4, p=2")
    if suite in ("reciprocity", "factorization") and cfg.n != 2 * cfg.p:
        raise ConfigError(f"{suite} suite needs n = 2p")
    if suite == "phi" and cfg.constitutive is None:
        raise ConfigError("phi suite needs a constitutive law")
    if suite == "factorization":
        check_double_dual(cfg.metric_spec(), cfg.p)


def _instances(cfg, suite, uses):
    """(k, inputs) for every instance of `suite`: the one draw-and-count loop.

    `uses` names the inputs the suite reads, in the order F, G, J, u, and
    `inputs` holds them in that order.  An input is the config's, or is
    drawn from the suite's stream "<seed>:<suite>" in the frozen order of
    docs/conventions.md; G comes from the law when one is configured, and
    a suite that uses J draws u after it without using it.  A suite runs
    `samples` instances when it draws an input it uses, else one, and none
    when _refuse raises.
    """
    _refuse(cfg, suite)
    law = cfg.constitutive if "G" in uses else None
    draws = [name for name in ("FGJu" if "J" in uses else uses)
             if getattr(cfg, name) in (None, "random")
             and (name != "G" or law is None)]
    chart, bound = cfg.chart(), cfg.degree_bound
    rng = random.Random(f"{cfg.seed}:{suite}")
    for k in range(cfg.samples if set(draws) & set(uses) else 1):
        inputs = {name: getattr(cfg, name) for name in uses}
        for name in draws:
            inputs[name] = (random_vector_field(rng, chart, bound) if name == "u"
                            else random_form(rng, chart, *cfg.shape(name), bound))
        if law is not None:
            inputs["G"] = law.apply(inputs["F"])
        yield k, tuple(inputs[name] for name in uses)


def conservation_suite(cfg):
    return [residual_check(
        f"conservation-{k:04d}", "en-mom",
        f"d(Sigma_u) - f_u - phi_u = 0 at n={cfg.n}, p={cfg.p}",
        conservation_residual(u, FieldConfig(F, G)))
        for k, (F, G, u) in _instances(cfg, "conservation", "FGu")]


def identities_suite(cfg):
    checks = []
    for k, (F, G, u) in _instances(cfg, "identities", "FGu"):
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
    tag = "ML" if isinstance(law, Axion) else "constit"

    if cfg.u == "random":
        chart = cfg.chart()
        us = [(f"u{a}", coordinate_field(chart, a)) for a in range(cfg.n)]
    else:
        us = [("u", cfg.u)]

    checks = []
    for k, (F, G) in _instances(cfg, "phi", "FG"):
        fc = FieldConfig(F, G)
        for label, u in us:
            d = densities(u, fc)
            checks.append(residual_check(
                f"phi-{k:04d}-{label}", tag,
                f"phi_u = 0 under the {law.kind} law for {label}", d.phi))
            checks.append(residual_check(
                f"phi-{k:04d}-{label}-balance", "en-mom",
                f"balance d(Sigma_u) = f_u + phi_u still exact for {label}",
                d.residual()))
    return checks


def split_suite(cfg):
    checks = []
    for k, (F, G, J) in _instances(cfg, "split", "FGJ"):
        F2, G2, J2 = recompose(split_3plus1(F, G, J))
        rows = [("F", (F2, F), "F", "B + E^dx0 rebuilds F; E, B untwisted and spatial"),
                ("G", (G2, G), "G", "D - H^dx0 rebuilds G; H, D twisted and spatial"),
                ("J", (J2, J), "G", "rho - j^dx0 rebuilds J; j, rho twisted and spatial")]
        for name, claim, eq, desc in rows:
            checks.append(residual_check(f"split-{k:04d}-{name}", eq, desc, claim))
    return checks


def reciprocity_suite(cfg):
    zs = cfg.z if cfg.z else _DEFAULT_Z
    odd = cfg.p % 2
    checks = []
    for k, (F, G, u) in _instances(cfg, "reciprocity", "FGu"):
        z = zs[k % len(zs)]
        pair = FieldPairZ(F, G, z)

        st = star_z(pair)
        twice = star_z(st)
        checks.append(residual_check(
            f"recip-{k:04d}-square", "recip2",
            f"star_z applied twice negates the pair (z={z})",
            (twice.F, -F), (twice.G, -G)))

        # star_z multiplies each density by (-1)^p: after - (-1)^p before = 0
        checks.append(residual_check(
            f"recip-{k:04d}-densities", "recip2",
            f"Sigma_u, f_u, phi_u {'negated' if odd else 'unchanged'} "
            "by the reciprocity map",
            *densities(u, FieldConfig(st.F, st.G), FieldConfig(pair.F, pair.G),
                       -1 if odd else 1)))

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
        for (sign, label), eig in zip(((1, "plus"), (-1, "minus")),
                                      self_reciprocal_pair(cpair)):
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
    metric = cfg.metric_spec()
    Z0 = cfg.Z0 if cfg.Z0 is not None else Fraction(1)
    checks = []
    for k, (F,) in _instances(cfg, "factorization", "F"):
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
    """The rows of each named suite in turn, once no suite is refused."""
    for name in names:
        _refuse(cfg, name)
    checks = []
    for name in names:
        checks.extend(SUITE_RUNNERS[name](cfg))
    return checks
