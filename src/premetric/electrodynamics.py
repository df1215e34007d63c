"""Field pairs, energy-momentum forms, 3+1 splits, constitutive laws.

The central objects are an untwisted p-form F (field strength) and a
twisted (n-p)-form G (excitation) on the same chart.  From a vector field
u three densities are built:

    sigma_u = (F ^ (u _| G) - (-1)^p (u _| F) ^ G) / 2     (degree n-1)
    force_u = dF ^ (u _| G) + (u _| F) ^ dG                (degree n)
    phi_u   = (-1)^p (F ^ L_u G - L_u F ^ G) / 2           (degree n)

and d(sigma_u) = force_u + phi_u holds identically, with no assumption
about how G relates to F.  densities() is the one route to all three: it
computes u _| F, u _| G, L_u F, L_u G and their wedges once and builds
the densities from them.  The balance residual is computed as a
difference rather than returned as zero by construction, so a sign error
anywhere in the exterior-calculus layer would surface as a nonzero
residual.

All six operations keep exact twist parity: the three densities are
twisted (untwisted wedge twisted), as befits things meant to be
integrated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import StructuralError
from .forms import Form, basis_form, combine, contract, ext_d, wedge
from .hodge import hodge
from .report import CheckResult, nonzero_witness
from .scalars import Polynomial, poly_sum


class FieldConfig:
    """An (F, G) pair: untwisted p-form plus twisted (n-p)-form, one chart.

    Degrees are restricted to 1 <= p <= n-1 so that every contraction in
    the density formulas lands on a form of degree >= 0.  The currents dF
    and dG are computed once, here, and shared by every density.
    """

    __slots__ = ("chart", "p", "F", "G", "dF", "dG")

    def __init__(self, F, G):
        chart = F.chart
        if G.chart != chart:
            raise StructuralError("F and G must live on the same chart")
        p = F.degree
        if not 1 <= p <= chart.n - 1:
            raise StructuralError(f"field degree must satisfy 1 <= p <= n-1, got p={p}")
        if G.degree != chart.n - p:
            raise StructuralError(
                f"excitation degree must be n-p={chart.n - p}, got {G.degree}")
        if F.twist:
            raise StructuralError("field strength must be untwisted")
        if not G.twist:
            raise StructuralError("excitation must be twisted")
        self.chart = chart
        self.p = p
        self.F = F
        self.G = G
        self.dF = ext_d(F)
        self.dG = ext_d(G)

    def __repr__(self):
        return f"FieldConfig(n={self.chart.n}, p={self.p})"


def _check_u(u, cfg):
    if u.chart != cfg.chart:
        raise StructuralError("chart mismatch")


def _sign(p):
    return -1 if p % 2 else 1


@dataclass(frozen=True)
class Densities:
    """Sigma_u, f_u and phi_u of one (u, FieldConfig), plus the pieces
    identity_suite reads again.

    Piece names spell their factors: uF_dG is (u _| F) ^ dG, F_LuG is
    F ^ L_u G, udG is u _| dG.
    """

    sigma: Form
    force: Form
    phi: Form
    udG: Form
    uF_dG: Form
    F_uG: Form
    uF_G: Form
    F_LuG: Form
    LuF_G: Form

    def residual(self):
        """d(sigma_u) - force_u - phi_u, computed as one linear combination.

        Identically the zero n-form for every (F, G, u); asserting that is
        the core of the verification suites.
        """
        return combine((1, ext_d(self.sigma)), (-1, self.force), (-1, self.phi))


def densities(u, cfg):
    """The three densities along u, each shared piece computed once.

    L_u F and L_u G come from Cartan's formula d(u _| A) + u _| dA, with
    the dF and dG the FieldConfig already holds.
    """
    _check_u(u, cfg)
    F, G, dF, dG, sgn = cfg.F, cfg.G, cfg.dF, cfg.dG, _sign(cfg.p)
    uF, uG, udG = contract(u, F), contract(u, G), contract(u, dG)
    LuF = combine((1, ext_d(uF)), (1, contract(u, dF)))
    LuG = combine((1, ext_d(uG)), (1, udG))
    F_uG, uF_G = wedge(F, uG), wedge(uF, G)
    uF_dG = wedge(uF, dG)
    F_LuG, LuF_G = wedge(F, LuG), wedge(LuF, G)
    sgn_half = Fraction(sgn, 2)
    return Densities(
        sigma=combine((Fraction(1, 2), F_uG), (-sgn_half, uF_G)),
        force=combine((1, wedge(dF, uG)), (1, uF_dG)),
        phi=combine((sgn_half, F_LuG), (-sgn_half, LuF_G)),
        udG=udG, uF_dG=uF_dG, F_uG=F_uG, uF_G=uF_G, F_LuG=F_LuG, LuF_G=LuF_G)


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
    d = densities(u, cfg)
    F, G, sgn = cfg.F, cfg.G, _sign(cfg.p)
    f = d.force
    checks = []

    expansion = combine((1, d.uF_dG), (sgn, wedge(F, d.udG)))
    routed = contract(u, wedge(F, cfg.dG))
    ok = expansion == routed and expansion.is_zero()
    checks.append(CheckResult(
        id_prefix + "sym", "sym",
        "contraction of the vanishing (n+1)-form F^dG expands to zero",
        ok, "" if ok else nonzero_witness(expansion if not expansion.is_zero() else routed)))

    diff_a = combine((1, ext_d(d.F_uG)), (-sgn, d.F_LuG), (-1, f))
    checks.append(CheckResult(
        id_prefix + "a", "a",
        "d(F ^ uG) = (-1)^p F ^ L_u G + force_u",
        diff_a.is_zero(), nonzero_witness(diff_a)))

    diff_b = combine((sgn, ext_d(d.uF_G)), (-sgn, d.LuF_G), (1, f))
    checks.append(CheckResult(
        id_prefix + "b", "b",
        "(-1)^p d(uF ^ G) = (-1)^p L_u F ^ G - force_u",
        diff_b.is_zero(), nonzero_witness(diff_b)))

    diff_ab = combine((1, ext_d(contract(u, wedge(F, G)))),
                      (-1, d.LuF_G), (-1, d.F_LuG))
    checks.append(CheckResult(
        id_prefix + "a+b", "a+b",
        "d(u _| (F^G)) = L_u F ^ G + F ^ L_u G",
        diff_ab.is_zero(), nonzero_witness(diff_ab)))
    return checks


def currents(cfg):
    """(J, K) = (dG, dF): electric and magnetic current densities.

    Both are automatically closed, which is the exact-arithmetic version of
    charge conservation.
    """
    return cfg.dG, cfg.dF


# -- 3+1 split (n=4, p=2, time coordinate x0) ---------------------------------


@dataclass(frozen=True)
class SplitFields:
    """Spatial pieces of (F, G, J): no dx0 in any index tuple.

    F = B + E^dx0, G = D - H^dx0, J = rho - j^dx0.  Coefficients may still
    depend on x0; only the index structure is spatial.
    """

    E: Form      # untwisted spatial 1-form
    B: Form      # untwisted spatial 2-form
    H: Form      # twisted spatial 1-form
    D: Form      # twisted spatial 2-form
    j: Form      # twisted spatial 2-form
    rho: Form    # twisted spatial 3-form

    def __post_init__(self):
        expected = [("E", self.E, 1, False), ("B", self.B, 2, False),
                    ("H", self.H, 1, True), ("D", self.D, 2, True),
                    ("j", self.j, 2, True), ("rho", self.rho, 3, True)]
        chart = self.E.chart
        if chart.n != 4:
            raise StructuralError("3+1 split needs a 4-dimensional chart")
        for name, form, degree, twist in expected:
            if form.chart != chart:
                raise StructuralError(f"{name}: chart mismatch")
            if form.degree != degree or form.twist != twist:
                raise StructuralError(
                    f"{name} must be a {'twisted' if twist else 'untwisted'} "
                    f"{degree}-form")
            if any(0 in idx for idx in form.components):
                raise StructuralError(f"{name} must be spatial (no dx0 factor)")


def _spatial_part(form):
    comps = {idx: poly for idx, poly in form.components.items() if 0 not in idx}
    return Form(form.chart, form.degree, form.twist, comps)


def _time_part(form, sign):
    """1 lower degree: the A in (A ^ dx0) summands, scaled by sign."""
    comps = {}
    for idx, poly in form.components.items():
        if 0 not in idx:
            continue
        rest = tuple(i for i in idx if i != 0)
        # idx is (0, rest...): A ^ dx0 puts dx0 last, costing (-1)^(deg-1)
        flip = -1 if (len(idx) - 1) % 2 else 1
        comps[rest] = poly.scale(sign * flip)
    return Form(form.chart, form.degree - 1, form.twist, comps)


def split_3plus1(F, G, J):
    """Decompose F = B + E^dx0, G = D - H^dx0, J = rho - j^dx0."""
    chart = F.chart
    if chart.n != 4:
        raise StructuralError("3+1 split needs a 4-dimensional chart")
    if F.degree != 2 or F.twist:
        raise StructuralError("F must be an untwisted 2-form")
    if G.degree != 2 or not G.twist:
        raise StructuralError("G must be a twisted 2-form")
    if J.chart != chart or J.degree != 3 or not J.twist:
        raise StructuralError("J must be a twisted 3-form on the same chart")
    return SplitFields(
        E=_time_part(F, 1),
        B=_spatial_part(F),
        H=_time_part(G, -1),
        D=_spatial_part(G),
        j=_time_part(J, -1),
        rho=_spatial_part(J),
    )


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

    The impedance scales the dual, which already carries the twist the
    excitation needs.  alpha multiplies F as a pseudoscalar, so the alpha
    term comes out twisted like the dual does; that requires n = 2p for
    the degrees to line up.  With alpha = 0 the term is skipped and the
    law is the Maxwell-Lorentz vacuum at every degree.
    """

    def __init__(self, metric, Z, alpha):
        self.metric = metric
        self.Z = metric.chart.pseudoscalar(Z, "impedance")
        self.alpha = (alpha if isinstance(alpha, Polynomial)
                      else metric.chart.const_poly(alpha))

    def apply(self, F):
        if F.twist:
            raise StructuralError("constitutive input must be untwisted")
        # the metric serves both scalar modes; its parameters follow F
        Z, alpha = self.Z, self.alpha
        if F.chart.complex_mode and not Z.complex_mode:
            Z, alpha = Z.to_complex(), alpha.to_complex()
        G = hodge(self.metric, F).scale(Z.inverse().as_plain())
        if alpha.is_zero():
            return G
        if self.metric.chart.n != 2 * F.degree:
            raise StructuralError("axion term needs n = 2p")
        return G + F.scale(alpha, pseudo=True)


class MaxwellLorentz(Axion):
    """G = hodge(F) / Z0: the axion law with alpha = 0."""

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

    @classmethod
    def from_law(cls, law, chart, p):
        """Sample another law on basis forms to extract its matrix."""
        rows = list(combinations(range(chart.n), chart.n - p))
        cols = list(combinations(range(chart.n), p))
        chi = [[chart.zero_poly() for _ in cols] for _ in rows]
        for c, idx in enumerate(cols):
            image = law.apply(basis_form(chart, idx))
            for r, jdx in enumerate(rows):
                poly = image.components.get(jdx)
                if poly is not None:
                    chi[r][c] = poly
        return cls(chart, p, chi)

    def apply(self, F):
        if F.twist:
            raise StructuralError("constitutive input must be untwisted")
        if F.degree != self.p or F.chart != self.chart:
            raise StructuralError("field does not match the law's chart or degree")
        n, complex_mode = self.chart.n, self.chart.complex_mode
        comps = {}
        for jdx, row in zip(self.rows, self.chi):
            total = poly_sum(n, complex_mode, [
                (1, entry, F.components[idx])
                for entry, idx in zip(row, self.cols) if idx in F.components])
            if total.nums:
                comps[jdx] = total
        return Form(self.chart, n - self.p, True, comps)


class Custom:
    """An opaque F -> G map; conservation is checked, never assumed."""

    def __init__(self, fn):
        self.fn = fn if callable(fn) else (lambda F, fixed=fn: fixed)

    def apply(self, F):
        G = self.fn(F)
        if not isinstance(G, Form) or not G.twist:
            raise StructuralError("custom law must produce a twisted form")
        if G.chart != F.chart or G.degree != F.chart.n - F.degree:
            raise StructuralError("custom law output has wrong chart or degree")
        return G
