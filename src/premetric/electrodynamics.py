"""Field pairs, energy-momentum forms, 3+1 splits, constitutive laws.

The central objects are an untwisted p-form F (field strength) and a
twisted (n-p)-form G (excitation) on the same chart.  From a vector field
u three densities are built:

    sigma_u = (F ^ (u _| G) - (-1)^p (u _| F) ^ G) / 2     (degree n-1)
    force_u = dF ^ (u _| G) + (u _| F) ^ dG                (degree n)
    phi_u   = (-1)^p (F ^ L_u G - L_u F ^ G) / 2           (degree n)

and d(sigma_u) = force_u + phi_u holds identically, with no assumption
about how G relates to F.  densities() is the one route to all three: it
computes u _| F, u _| G, L_u F and L_u G once and builds each density as
one wedge_sum of them.  The balance residual is computed as a difference
rather than returned as zero by construction, so a sign error anywhere
in the exterior-calculus layer would surface as a nonzero residual.

All six operations keep exact twist parity: the three densities are
twisted (untwisted wedge twisted), as befits things meant to be
integrated.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import combinations

from .errors import StructuralError
from .forms import (_components, basis_form, check_shape, combine, contract,
                    ext_d, lie_derivative, sort_indices, wedge, wedge_sum)
from .hodge import hodge
from .report import residual_check
from .scalars import Polynomial, nonzero_rational


class FieldConfig:
    """An (F, G) pair: untwisted p-form plus twisted (n-p)-form, one chart.

    Degrees are restricted to 1 <= p <= n-1 so that every contraction in
    the density formulas lands on a form of degree >= 0.  The currents dF
    and dG are computed once, here, and shared by every density.
    """

    __slots__ = ("chart", "p", "F", "G", "dF", "dG")

    def __init__(self, F, G):
        chart, p = F.chart, F.degree
        if not 1 <= p <= chart.n - 1:
            raise StructuralError(f"field degree must satisfy 1 <= p <= n-1, got p={p}")
        check_shape("F", F, chart, p, False)
        check_shape("G", G, chart, chart.n - p, True)
        self.chart = chart
        self.p = p
        self.F = F
        self.G = G
        self.dF = ext_d(F)
        self.dG = ext_d(G)

    def __repr__(self):
        return f"FieldConfig(n={self.chart.n}, p={self.p})"


def _moved(u, cfg, udG=None):
    """(u _| F, u _| G, L_u F, L_u G); Cartan's formula, where lie_derivative
    takes it, reuses them, the config's dF and dG and a given u _| dG."""
    uF, uG = contract(u, cfg.F), contract(u, cfg.G)
    return (uF, uG, lie_derivative(u, cfg.F, uF, cfg.dF),
            lie_derivative(u, cfg.G, uG, cfg.dG, udG))


def _force(cfg, uF, uG):
    """force_u = dF ^ (u _| G) + (u _| F) ^ dG, the one route to it."""
    return wedge_sum((1, cfg.dF, uG), (1, uF, cfg.dG))


class Densities(namedtuple("Densities", "sigma force phi")):
    """Sigma_u, f_u and phi_u of one (u, FieldConfig); each is a Form."""

    __slots__ = ()

    def residual(self):
        """d(sigma_u) - force_u - phi_u, one poly_sum per component over the
        derivative terms of sigma_u and the components of force_u and phi_u.

        Identically the zero n-form for every (F, G, u); asserting that is
        the core of the verification suites.
        """
        return combine((1, ext_d, self.sigma), (-1, self.force), (-1, self.phi))


def densities(u, cfg):
    """The three densities along u, each one wedge_sum over the shared
    u _| F, u _| G, L_u F and L_u G."""
    uF, uG, LuF, LuG = _moved(u, cfg)
    F, G, half = cfg.F, cfg.G, Fraction((-1) ** cfg.p, 2)
    return Densities(
        sigma=wedge_sum((Fraction(1, 2), F, uG), (-half, uF, G)),
        force=_force(cfg, uF, uG),
        phi=wedge_sum((half, F, LuG), (-half, LuF, G)))


def sigma_u(u, cfg):
    """Energy-momentum density along u; twisted (n-1)-form."""
    return densities(u, cfg).sigma


def force_u(u, cfg):
    """Force density along u; twisted n-form built from the currents dF, dG."""
    return densities(u, cfg).force


def obstruction_phi_u(u, cfg):
    """The twisted n-form standing between d(sigma_u) and force_u."""
    return densities(u, cfg).phi


def conservation_residual(u, cfg):
    """d(sigma_u) - force_u - phi_u; see Densities.residual."""
    return densities(u, cfg).residual()


# -- step-by-step identities ----------------------------------------------------


def identity_suite(u, cfg, id_prefix=""):
    """The intermediate identities behind the conservation law, as checks.

    sym: contracting the vanishing (n+1)-form F^dG distributes as
         (u _| F)^dG + (-1)^p F^(u _| dG) and both routes give zero.
    a:   d(F ^ uG) = (-1)^p F ^ L_u G + force_u
    b:   (-1)^p d(uF ^ G) = (-1)^p L_u F ^ G - force_u
    a+b: their sum collapses to d(u _| (F^G)) = L_u F ^ G + F ^ L_u G.
    """
    F, G, dG, sgn = cfg.F, cfg.G, cfg.dG, (-1) ** cfg.p
    udG = contract(u, dG)
    uF, uG, LuF, LuG = _moved(u, cfg, udG)
    f = _force(cfg, uF, uG)
    F_LuG, LuF_G = wedge(F, LuG), wedge(LuF, G)
    return [
        residual_check(
            id_prefix + "sym", "sym",
            "contraction of the vanishing (n+1)-form F^dG expands to zero",
            wedge_sum((1, uF, dG), (sgn, F, udG)), contract(u, wedge(F, dG))),
        residual_check(
            id_prefix + "a", "a", "d(F ^ uG) = (-1)^p F ^ L_u G + force_u",
            combine((1, ext_d, wedge(F, uG)), (-sgn, F_LuG), (-1, f))),
        residual_check(
            id_prefix + "b", "b", "(-1)^p d(uF ^ G) = (-1)^p L_u F ^ G - force_u",
            combine((sgn, ext_d, wedge(uF, G)), (-sgn, LuF_G), (1, f))),
        residual_check(
            id_prefix + "a+b", "a+b", "d(u _| (F^G)) = L_u F ^ G + F ^ L_u G",
            combine((1, ext_d, contract(u, wedge(F, G))), (-1, LuF_G), (-1, F_LuG))),
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
    return (form._raw(form.degree - 1, form.twist, time),
            form._raw(form.degree, form.twist, space))


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
    carries the twist the excitation needs, as a plain number.  alpha
    multiplies F as a pseudoscalar, so the alpha term comes out twisted
    like the dual does; that requires n = 2p for the degrees to line up.
    With alpha = 0 the term is skipped and the law is the Maxwell-Lorentz
    vacuum at every degree.
    """

    kind = "axion"

    def __init__(self, metric, Z, alpha):
        self.metric = metric
        self.Z = nonzero_rational(Z, "impedance")
        self.alpha = (alpha if isinstance(alpha, Polynomial)
                      else metric.chart.const_poly(alpha))

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
        self.rows = list(combinations(range(n), n - p))
        self.cols = list(combinations(range(n), p))
        if len(chi) != len(self.rows) or any(len(r) != len(self.cols) for r in chi):
            raise StructuralError(
                f"chi must be {len(self.rows)}x{len(self.cols)} for n={n}, p={p}")
        self.chart = chart
        self.p = p
        self.chi = [[self._entry(e) for e in row] for row in chi]

    def _entry(self, e):
        if isinstance(e, Polynomial):
            if e.n != self.chart.n or e.complex_mode != self.chart.complex_mode:
                raise StructuralError("chi entry does not match the chart")
            return e
        return self.chart.const_poly(e)

    def apply(self, F):
        check_shape("F", F, self.chart, self.p, False)
        comps = F.components
        groups = {}
        for jdx, row in zip(self.rows, self.chi):
            terms = [(1, entry, comps[idx])
                     for entry, idx in zip(row, self.cols) if idx in comps]
            if terms:
                groups[jdx] = terms
        return F._raw(self.chart.n - self.p, True, _components(self.chart, groups))


class Custom:
    """A fixed excitation G for every F; conservation is checked, never assumed."""

    kind = "custom"

    def __init__(self, G):
        self.G = G

    def apply(self, F):
        check_shape("G", self.G, F.chart, F.chart.n - F.degree, True)
        return self.G
