"""Field pairs, energy-momentum forms, 3+1 splits, constitutive laws.

The central objects are an untwisted p-form F (field strength) and a
twisted (n-p)-form G (excitation) on the same chart.  From a vector field
u three densities are built:

    sigma_u = (F ^ (u _| G) - (-1)^p (u _| F) ^ G) / 2     (degree n-1)
            = F ^ (u _| G) - (-1)^p u _| (F ^ G) / 2
    force_u = dF ^ (u _| G) + (u _| F) ^ dG                (degree n)
    phi_u   = (-1)^p (F ^ L_u G - L_u F ^ G) / 2           (degree n)
            = (-1)^p d(u _| (F ^ G)) / 2 - (-1)^p L_u F ^ G

and d(sigma_u) = force_u + phi_u holds identically, with no assumption
about how G relates to F.  The second lines, the ones computed, are the
first rewritten by the graded Leibniz rule u _| (F ^ G) = (u _| F) ^ G +
(-1)^p F ^ (u _| G) and by L_u (F ^ G) = L_u F ^ G + F ^ L_u G, where L_u
is d(u _| .) on the n-form F ^ G.  _densities() is the one writer of
their terms: given u _| F and u _| G, it adds those of force_u, F ^ uG
and -(-1)^p L_u F ^ G, times a multiplier, to the caller's groups and
returns the unsummed terms of -(-1)^p u _| (F ^ G), contracted from the
F ^ G that FieldConfig builds once per field pair.  Its readers assemble
them: densities() puts half of that return into sigma_u and d of minus
the half into phi_u; conservation_residual(), d(sigma_u) - force_u -
phi_u regrouped, puts all of it beside F ^ uG and takes d once; and the
identity rows a, b and a+b read F ^ uG, force_u, L_u F ^ G and
u _| (F ^ G) from the same call.  The residual is a difference, never
zero by construction, so a sign error in the exterior calculus
surfaces as a nonzero residual.

All six operations keep exact twist parity: the three densities are
twisted (untwisted wedge twisted), as befits things meant to be
integrated.
"""

from collections import namedtuple
from itertools import combinations

from .errors import StructuralError
from .forms import (_built, _contract_terms, _form, _row_terms, _top_d_terms, _Top, _wedge_terms,
                    basis_form, check_shape, combine, contract, ext_d, lie_derivative, sort_indices,
                    wedge)
from .hodge import hodge
from .report import residual_check
from .scalars import Polynomial, nonzero_rational


class FieldConfig(namedtuple("FieldConfig", "chart p F G dF dG FG")):
    """An (F, G) pair: untwisted p-form plus twisted (n-p)-form, one chart.
    A record made from (F, G): it compares, hashes and prints as its fields.

    Degrees are restricted to 1 <= p <= n-1 so that every contraction in
    the density formulas lands on a form of degree >= 0.  The currents dF,
    dG and the n-form FG = F ^ G, which sigma_u and phi_u both read, are
    built once, when the record is made.
    """

    __slots__ = ()

    def __new__(cls, F, G):
        chart, p = F.chart, F.degree
        if not 1 <= p <= chart.n - 1:
            raise StructuralError(f"field degree must satisfy 1 <= p <= n-1, got p={p}")
        check_shape("F", F, chart, p, False)
        check_shape("G", G, chart, chart.n - p, True)
        return super().__new__(cls, chart, p, F, G, ext_d(F), ext_d(G), wedge(F, G))

    def __getnewargs__(self):
        return self.F, self.G


def _densities(u, cfg, m, uF, uG, sigma, force, phi):
    """The one writer of energy-momentum terms: add those of m * force_u,
    m * F ^ uG and -(-1)^p m L_u F ^ G, m an int or a Fraction, to the
    groups force, sigma and phi (any two may be one dict), given uF and uG,
    and return the unsummed terms of -(-1)^p m u _| FG: sigma_u holds half
    of them and phi_u d of minus that half, so L_u G is never computed."""
    mp = m if cfg.p % 2 else -m
    _wedge_terms(_wedge_terms(force, m, cfg.dF, uG), m, uF, cfg.dG)
    _wedge_terms(sigma, m, cfg.F, uG)
    _wedge_terms(phi, mp, lie_derivative(u, cfg.F, uF, cfg.dF), cfg.G)
    return _contract_terms({}, mp, u, cfg.FG)


class Densities(namedtuple("Densities", "sigma force phi")):
    """Sigma_u, f_u and phi_u of one (u, FieldConfig) as Forms."""

    __slots__ = ()

    def residual(self):
        """d(sigma_u) - force_u - phi_u, one term_sum per component over the
        derivative terms of sigma_u and the components of force_u and phi_u.

        Identically the zero n-form for every (F, G, u); asserting that is
        the core of the verification suites.
        """
        return combine((1, ext_d, self.sigma), (-1, self.force), (-1, self.phi))


def densities(u, cfg, before=None, c=1):
    """The three densities along u, each summed from _densities' terms, with
    half of its u _| FG terms in sigma_u and d of minus that half in phi_u;
    given a FieldConfig `before` on the same chart and a rational c, those
    of cfg minus c times before's, still one term_sum per component."""
    sigma, force, phi, chart = {}, {}, {}, cfg.chart
    if before is not None:
        check_shape("before.F", before.F, chart, before.p, False)
    for m, fc in ((1, cfg), (-c, before)) if before is not None else ((1, cfg),):
        top = _densities(u, fc, m, contract(u, fc.F), contract(u, fc.G), sigma, force, phi)
        for idx, terms in top.items():  # halved as a multiplier m / 2 would be
            top[idx] = [(k // 2, d, a, b) if k % 2 == 0 else (k, 2 * d, a, b)
                        for k, d, a, b in terms]
            sigma.setdefault(idx, []).extend(top[idx])
        _top_d_terms(phi, -1, _Top(chart, True, top))
    return Densities(_built(chart, chart.n - 1, True, sigma),
                     _built(chart, chart.n, True, force), _built(chart, chart.n, True, phi))


def sigma_u(u, cfg):
    """Energy-momentum density along u, a twisted (n-1)-form: densities(u, cfg)
    with two results dropped, kept only as bench/spans.py traces it (ROADMAP 4b)."""
    return densities(u, cfg).sigma


def force_u(u, cfg):
    """Force density along u, a twisted n-form from the currents dF, dG: densities(u,
    cfg) with two results dropped, kept only as bench/spans.py traces it (ROADMAP 4b)."""
    return densities(u, cfg).force


def obstruction_phi_u(u, cfg):
    """The twisted n-form standing between d(sigma_u) and force_u: densities(u,
    cfg) with two results dropped, kept only as bench/spans.py traces it (ROADMAP 4b)."""
    return densities(u, cfg).phi


def conservation_residual(u, cfg):
    """d(sigma_u) - force_u - phi_u regrouped, one term_sum per component:
    _densities' terms times -1, with all of its u _| FG terms beside
    -F ^ uG and d taken of both.  d(sigma_u) and -phi_u each hold
    -(-1)^p d(u _| FG) / 2, so that contraction is taken once, and none of
    the three densities is built."""
    groups, top = {}, {}
    for idx, terms in _densities(u, cfg, -1, contract(u, cfg.F), contract(u, cfg.G),
                                 top, groups, groups).items():
        top.setdefault(idx, []).extend(terms)
    _top_d_terms(groups, -1, _Top(cfg.chart, True, top))
    return _built(cfg.chart, cfg.chart.n, True, groups)


# -- step-by-step identities ----------------------------------------------------


def identity_suite(u, cfg, id_prefix=""):
    """The intermediate identities behind the conservation law, as checks.

    sym: contracting the vanishing (n+1)-form F^dG distributes as
         (u _| F)^dG + (-1)^p F^(u _| dG) and both routes give zero.
    a:   d(F ^ uG) = (-1)^p F ^ L_u G + force_u
    b:   (-1)^p d(uF ^ G) = (-1)^p L_u F ^ G - force_u
    a+b: their sum collapses to d(u _| (F^G)) = L_u F ^ G + F ^ L_u G.
    F ^ uG, force_u, L_u F ^ G and u _| (F^G) are _densities' terms, the
    last two with its sign -(-1)^p; F ^ uG, uF ^ G and u _| (F^G) are
    differentiated from unsummed terms.
    """
    F, G, dG, sgn, chart = cfg.F, cfg.G, cfg.dG, (-1) ** cfg.p, cfg.chart
    uF, uG, udG = contract(u, F), contract(u, G), contract(u, dG)
    F_uG, f, LuF_G = {}, {}, {}
    u_FG = _Top(chart, True, _densities(u, cfg, 1, uF, uG, F_uG, f, LuF_G))
    f, LuF_G = (_built(chart, chart.n, True, groups) for groups in (f, LuF_G))
    F_uG, uF_G = _Top(chart, True, F_uG), _Top(chart, True, _wedge_terms({}, 1, uF, G))
    # Cartan's formula, where lie_derivative takes it, reuses uG and u _| dG
    F_LuG = wedge(F, lie_derivative(u, G, uG, None, udG))
    return [
        residual_check(
            id_prefix + "sym", "sym",
            "contraction of the vanishing (n+1)-form F^dG expands to zero",
            combine((1, wedge, uF, dG), (sgn, wedge, F, udG)), contract(u, wedge(F, dG))),
        residual_check(
            id_prefix + "a", "a", "d(F ^ uG) = (-1)^p F ^ L_u G + force_u",
            combine((1, ext_d, F_uG), (-sgn, F_LuG), (-1, f))),
        residual_check(
            id_prefix + "b", "b", "(-1)^p d(uF ^ G) = (-1)^p L_u F ^ G - force_u",
            combine((sgn, ext_d, uF_G), (1, LuF_G), (1, f))),
        residual_check(
            id_prefix + "a+b", "a+b", "d(u _| (F^G)) = L_u F ^ G + F ^ L_u G",
            combine((-sgn, ext_d, u_FG), (sgn, LuF_G), (-1, F_LuG))),
    ]


# -- 3+1 split (n=4, p=2, time coordinate x0) ---------------------------------


class SplitFields(namedtuple("SplitFields", "E B H D j rho")):
    """Spatial pieces of (F, G, J): no dx0 in any index tuple.

    F = B + E^dx0, G = D - H^dx0, J = rho - j^dx0.  Coefficients may still
    depend on x0; only the index structure is spatial.  E and B are
    untwisted 1- and 2-forms; H, D, j and rho are twisted 1-, 2-, 2- and
    3-forms.
    """

    __slots__ = ()

    def __new__(cls, E, B, H, D, j, rho):
        self = super().__new__(cls, E, B, H, D, j, rho)
        kinds = ((1, False), (2, False), (1, True), (2, True), (2, True), (3, True))
        chart = E.chart
        if chart.n != 4:
            raise StructuralError("3+1 split needs a 4-dimensional chart")
        for name, form, (degree, twist) in zip(cls._fields, self, kinds):
            check_shape(name, form, chart, degree, twist)
            if any(0 in idx for idx in form.components):
                raise StructuralError(f"{name} must be spatial (no dx0 factor)")
        return self


def _split(form, sign):
    """(A, S) with form = S + sign * A ^ dx0 and no dx0 in A or S, in one
    pass over the components."""
    time, space = {}, {}
    for idx, poly in form.components.items():
        if 0 in idx:
            rest = idx[1:]
            # dx0 ^ dx_rest = sort sign of (rest, 0) * dx_rest ^ dx0
            time[rest] = poly.scale(sign * sort_indices(rest + (0,))[1])
        else:
            space[idx] = poly
    return (_form(form.chart, form.degree - 1, form.twist, time),
            _form(form.chart, form.degree, form.twist, space))


def split_3plus1(F, G, J):
    """Decompose F = B + E^dx0, G = D - H^dx0, J = rho - j^dx0 (n = 4)."""
    chart = F.chart
    check_shape("F", F, chart, 2, False)
    check_shape("G", G, chart, 2, True)
    check_shape("J", J, chart, 3, True)
    # _split gives (time, space) parts: (E, B), (H, D), (j, rho)
    return SplitFields(*_split(F, 1), *_split(G, -1), *_split(J, -1))


def recompose(split):
    """Rebuild (F, G, J) by wedging the split fields back together."""
    chart = split.E.chart
    dx0 = basis_form(chart, (0,))
    F = split.B + wedge(split.E, dx0)
    G = split.D - wedge(split.H, dx0)
    J = split.rho - wedge(split.j, dx0)
    return F, G, J


# -- constitutive laws ----------------------------------------------------------


class Axion:
    """G = hodge(F) / Z + alpha * F with a pseudoscalar impedance Z and a
    pseudoscalar coefficient alpha.

    Z is stored as a nonzero Fraction.  1/Z scales the dual, which already
    carries the twist the excitation needs, as a plain number.  alpha is a
    real pseudoscalar, kept in real mode (an imaginary coefficient is
    refused); it multiplies F with pseudo=True, so the alpha term comes out
    twisted like the dual does; that requires n = 2p for the degrees to
    line up.  With alpha = 0 the term is skipped and the law is the
    Maxwell-Lorentz vacuum at every degree.
    """

    kind = "axion"

    def __init__(self, metric, Z, alpha):
        self.metric = metric
        self.Z = nonzero_rational(Z, "impedance")
        n = metric.chart.n
        alpha = alpha if isinstance(alpha, Polynomial) else Polynomial.constant(n, alpha)
        if alpha.n != n:
            raise StructuralError("axion alpha does not match the metric's chart")
        if alpha.complex_mode and any(im for _, im in alpha.terms.values()):
            raise StructuralError("axion alpha must be real, got an imaginary coefficient")
        self.alpha = (Polynomial(n, {e: re for e, (re, _) in alpha.terms.items()})
                      if alpha.complex_mode else alpha)

    def apply(self, F):
        # any degree; hodge checks the chart against the metric's
        check_shape("F", F, F.chart, F.degree, False)
        # the metric serves both scalar modes; alpha follows F
        G = hodge(self.metric, F).scale(1 / self.Z)
        if self.alpha.is_zero():
            return G
        if self.metric.chart.n != 2 * F.degree:
            raise StructuralError("axion term needs n = 2p")
        alpha = self.alpha.to_complex() if F.chart.complex_mode else self.alpha
        return G + F.scale(alpha, pseudo=True)


class MaxwellLorentz(Axion):
    """G = hodge(F) / Z0: the axion law with alpha = 0."""

    kind = "maxwell-lorentz"

    def __init__(self, metric, Z0):
        super().__init__(metric, Z0, 0)

    # bench/spans.py traces each law's apply through its own class __dict__
    apply = Axion.apply


class LinearLocal:
    """G components as a constant-free matrix action on F components.

    chi maps the p-form component vector (strictly increasing index tuples
    in lexicographic order) to the (n-p)-form component vector in the same
    convention; entries are Polynomials, so pointwise media are allowed.
    """

    kind = "linear-local"

    def __init__(self, chart, p, chi):
        n = chart.n
        if p.__class__ is not int or not 0 <= p <= n:
            raise StructuralError(f"linear-local degree must be an int in 0..{n}, got {p!r}")
        rows = list(combinations(range(n), n - p))
        cols = list(combinations(range(n), p))
        if (chi.__class__ is not list or len(chi) != len(rows)
                or any(r.__class__ is not list or len(r) != len(cols) for r in chi)):
            raise StructuralError(f"chi must be {len(rows)}x{len(cols)} for n={n}, p={p}")
        self.chart = chart
        self.p = p
        self._sparse = {jdx: [(idx, e) for idx, e in zip(cols, map(self._entry, row))
                              if not e.is_zero()]
                        for jdx, row in zip(rows, chi)}

    def _entry(self, e):
        if isinstance(e, Polynomial):
            if e.n != self.chart.n or e.complex_mode != self.chart.complex_mode:
                raise StructuralError("chi entry does not match the chart")
            return e
        return self.chart.const_poly(e)

    def apply(self, F):
        check_shape("F", F, self.chart, self.p, False)
        return _built(self.chart, self.chart.n - self.p, True, _row_terms({}, self._sparse, F))


class Custom:
    """A fixed excitation G for every F; conservation is checked, never assumed."""

    kind = "custom"

    def __init__(self, G):
        self.G = G

    def apply(self, F):
        check_shape("G", self.G, F.chart, F.chart.n - F.degree, True)
        return self.G
