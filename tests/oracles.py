"""Independent brute-force implementations used as oracles.

Everything here works on dense, fully antisymmetric component arrays and
permutation sums, deliberately avoiding the sparse increasing-tuple code
paths of the package: the two sides share nothing but scalar arithmetic.
The exceptions are the densities: the literal_* ones are the
module-docstring formulas of premetric.electrodynamics written out with
the public form operations and no shared pieces, and the *_4d ones are
their closed forms for n=4, p=2.  The test helpers at the end (linear
pullbacks and a law's matrix) are built on the package's operations and
its minor tower.
"""

from fractions import Fraction
from itertools import combinations, permutations

from premetric.electrodynamics import LinearLocal
from premetric.errors import StructuralError
from premetric.forms import (Form, basis_form, contract, ext_d, lie_derivative,
                             wedge)
from premetric.hodge import _minors
from premetric.scalars import Polynomial


def perm_sign(seq):
    sign = 1
    seq = list(seq)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def dense_component(form, indices):
    """A_{i1...ip} for an arbitrary index tuple, resolved by antisymmetry."""
    if len(set(indices)) != len(indices):
        return Polynomial.zero(form.chart.n, form.chart.complex_mode)
    key = tuple(sorted(indices))
    poly = form.components.get(key)
    if poly is None:
        return Polynomial.zero(form.chart.n, form.chart.complex_mode)
    return poly if perm_sign(indices) > 0 else -poly


def dense_wedge(a, b):
    """Wedge from the permutation-sum definition with 1/(p! q!) weights."""
    chart = a.chart
    p, q = a.degree, b.degree
    weight = Fraction(1, _fact(p) * _fact(q))
    comps = {}
    for idx in combinations(range(chart.n), p + q):
        total = Polynomial.zero(chart.n, chart.complex_mode)
        for perm in permutations(idx):
            term = dense_component(a, perm[:p]) * dense_component(b, perm[p:])
            if term.is_zero():
                continue
            if perm_sign(perm) < 0:
                term = -term
            total = total + term
        total = total.scale(weight)
        if not total.is_zero():
            comps[idx] = total
    return Form(chart, p + q, a.twist != b.twist, comps)


def dense_inner_product(metric, a, b):
    """<a, b> = (1/p!) a_{i...} b^{i...}, raising with nested metric sums.

    g^-1 comes from sympy's Matrix.inv() on metric.g, not from the package.
    """
    import sympy

    chart = metric.chart
    n, p = chart.n, a.degree
    inv = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                        for row in metric.g]).inv()
    g_inv = [[Fraction(int(inv[i, j].p), int(inv[i, j].q)) for j in range(n)]
             for i in range(n)]
    total = Polynomial.zero(n, chart.complex_mode)
    for idx in permutations(range(n), p):
        ai = dense_component(a, idx)
        if ai.is_zero():
            continue
        raised = Polynomial.zero(n, chart.complex_mode)
        for jdx in permutations(range(n), p):
            factor = Fraction(1)
            for i, j in zip(idx, jdx):
                factor *= g_inv[i][j]
                if factor == 0:
                    break
            if factor == 0:
                continue
            bj = dense_component(b, jdx)
            if bj.is_zero():
                continue
            raised = raised + bj.scale(factor)
        total = total + ai * raised
    return total.scale(Fraction(1, _fact(p)))


def volume_form(metric):
    chart = metric.chart
    coeff = chart.const_poly(metric.sqrt_abs_det * chart.orientation)
    return Form(chart, chart.n, True, {tuple(range(chart.n)): coeff})


def lie_by_components(u, a):
    """(L_u A)_I = u^k d_k A_I + sum_j (d_{i_j} u^k) A_{I with k in slot j}."""
    chart = a.chart
    n = chart.n
    comps = {}
    for idx in combinations(range(n), a.degree):
        total = Polynomial.zero(n, chart.complex_mode)
        poly = dense_component(a, idx)
        for k in range(n):
            if not u.components[k].is_zero() and not poly.is_zero():
                total = total + u.components[k] * poly.partial(k)
        for slot in range(a.degree):
            for k in range(n):
                du = u.components[k].partial(idx[slot])
                if du.is_zero():
                    continue
                replaced = idx[:slot] + (k,) + idx[slot + 1:]
                comp = dense_component(a, replaced)
                if comp.is_zero():
                    continue
                total = total + du * comp
        if not total.is_zero():
            comps[idx] = total
    return Form(chart, a.degree, a.twist, comps)


def dense_contract(u, a):
    """(u _| A)_{i2...ip} = sum_k u^k A_{k i2...ip}."""
    chart = a.chart
    if a.degree == 0:
        return Form.zero(chart, 0, a.twist)
    comps = {}
    for idx in combinations(range(chart.n), a.degree - 1):
        total = Polynomial.zero(chart.n, chart.complex_mode)
        for k in range(chart.n):
            if u.components[k].is_zero():
                continue
            comp = dense_component(a, (k,) + idx)
            if comp.is_zero():
                continue
            total = total + u.components[k] * comp
        if not total.is_zero():
            comps[idx] = total
    return Form(chart, a.degree - 1, a.twist, comps)


def _fact(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


# -- densities from the formulas, each piece recomputed where it is used -------


def literal_sigma(u, F, G):
    """Sigma_u = (F ^ (u _| G) - (-1)^p (u _| F) ^ G) / 2."""
    out = wedge(F, contract(u, G)) - wedge(contract(u, F), G).scale((-1) ** F.degree)
    return out.scale(Fraction(1, 2))


def literal_force(u, F, G):
    """f_u = dF ^ (u _| G) + (u _| F) ^ dG."""
    return wedge(ext_d(F), contract(u, G)) + wedge(contract(u, F), ext_d(G))


def literal_phi(u, F, G):
    """phi_u = (-1)^p (F ^ L_u G - L_u F ^ G) / 2."""
    out = wedge(F, lie_derivative(u, G)) - wedge(lie_derivative(u, F), G)
    return out.scale(Fraction((-1) ** F.degree, 2))


def literal_identity_residuals(u, F, G):
    """The residuals behind identity_suite's checks, keyed by check id.

    "sym" maps to the pair (expansion, routed) of the two routes for
    u _| (F ^ dG); the others map to lhs - rhs.
    """
    sgn = (-1) ** F.degree
    f = literal_force(u, F, G)
    expansion = (wedge(contract(u, F), ext_d(G))
                 + wedge(F, contract(u, ext_d(G))).scale(sgn))
    routed = contract(u, wedge(F, ext_d(G)))
    return {
        "sym": (expansion, routed),
        "a": ext_d(wedge(F, contract(u, G)))
             - (wedge(F, lie_derivative(u, G)).scale(sgn) + f),
        "b": ext_d(wedge(contract(u, F), G)).scale(sgn)
             - (wedge(lie_derivative(u, F), G).scale(sgn) - f),
        "a+b": ext_d(contract(u, wedge(F, G)))
               - (wedge(lie_derivative(u, F), G) + wedge(F, lie_derivative(u, G))),
    }


# -- n=4, p=2 closed forms ----------------------------------------------------
# Independent code paths for the physically central case; the tests check
# they agree with the general signed formulas.


def sigma_u_4d(u, cfg):
    _require_4d(cfg)
    F, G = cfg.F, cfg.G
    out = wedge(F, contract(u, G)) - wedge(G, contract(u, F))
    return out.scale(Fraction(1, 2))


def force_u_4d(u, cfg):
    _require_4d(cfg)
    F, G = cfg.F, cfg.G
    return wedge(contract(u, F), ext_d(G)) - wedge(contract(u, G), ext_d(F))


def phi_u_4d(u, cfg):
    _require_4d(cfg)
    F, G = cfg.F, cfg.G
    out = wedge(F, lie_derivative(u, G)) - wedge(G, lie_derivative(u, F))
    return out.scale(Fraction(1, 2))


def _require_4d(cfg):
    if cfg.chart.n != 4 or cfg.p != 2:
        raise StructuralError("specialized formulas need n=4, p=2")


# -- test helpers: linear pullbacks and a law's matrix -------------------------


def substitute_linear(poly, matrix):
    """poly with x_i -> sum_j matrix[i][j] * x_j (a linear change of variables)."""
    n, mode = poly.n, poly.complex_mode
    images = [sum((Polynomial.variable(n, j, mode).scale(matrix[i][j])
                   for j in range(n)), Polynomial.zero(n, mode))
              for i in range(n)]
    out = Polynomial.zero(n, mode)
    for exps, coeff in poly.terms.items():
        term = Polynomial.constant(n, coeff, mode)
        for i, e in enumerate(exps):
            for _ in range(e):
                term = term * images[i]
        out = out + term
    return out


def pullback_linear(matrix, a):
    """Pullback along the linear substitution x -> L x, L = matrix.

    Coefficients are composed with the substitution and, as each dx_i
    becomes sum_j L[i][j] dx_j, (L*a)_J = sum_I a_I(Lx) * det L[I, J].
    Twisted forms acquire an extra sign(det L) factor, which is the whole
    computational content of twist parity.
    """
    n = a.chart.n
    mat = [[Fraction(matrix[i][j]) for j in range(n)] for i in range(n)]
    minors = _minors(mat)
    det = minors.get((tuple(range(n)),) * 2, 0)
    if det == 0:
        raise StructuralError("pullback matrix is singular")
    sign = -1 if a.twist and det < 0 else 1
    pulled = {idx: substitute_linear(poly, mat) for idx, poly in a.components.items()}
    comps = {}
    for (rows, cols), minor in minors.items():
        if rows in pulled:
            term = pulled[rows].scale(sign * minor)
            comps[cols] = comps[cols] + term if cols in comps else term
    return Form(a.chart, a.degree, a.twist, comps)


def linear_local_from(law, chart, p):
    """The LinearLocal law with the matrix of `law`, sampled on basis forms."""
    rows = list(combinations(range(chart.n), chart.n - p))
    cols = list(combinations(range(chart.n), p))
    chi = [[chart.zero_poly() for _ in cols] for _ in rows]
    for c, idx in enumerate(cols):
        image = law.apply(basis_form(chart, idx))
        for r, jdx in enumerate(rows):
            poly = image.components.get(jdx)
            if poly is not None:
                chi[r][c] = poly
    return LinearLocal(chart, p, chi)
