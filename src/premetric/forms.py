"""Differential forms with polynomial coefficients on a coordinate chart.

A degree-p form stores one Polynomial per strictly increasing index tuple
(i1 < ... < ip); no zero components are kept, so two forms are equal iff
their component maps coincide.  Every form carries a twist parity:
untwisted forms transform as usual under linear pullbacks, twisted (odd)
forms pick up an extra sign(det) factor.  The operations below track that
parity: wedge XORs it, d / contraction / Lie derivative preserve it, and
scaling by a pseudo-tagged Scalar flips it.

Degrees above the chart dimension are permitted but carry no components;
wedging past top degree therefore yields a canonical zero form rather than
an error, which is what the vanishing (n+1)-form arguments in the identity
suites rely on.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .errors import StructuralError
from .scalars import (Polynomial, Scalar, _multiplier, _scaled, partial_sum,
                      poly_sum)


@dataclass(frozen=True)
class Chart:
    """A single n-dimensional coordinate chart x0 .. x(n-1).

    orientation fixes the sign of the top basis form dx0^...^dx(n-1) used
    by volume elements; complex_mode selects Gaussian-rational coefficients
    for every object built over the chart.
    """

    n: int
    orientation: int = 1
    complex_mode: bool = False

    def __post_init__(self):
        if not 2 <= self.n <= 8:
            raise StructuralError(f"chart dimension must be in 2..8, got {self.n}")
        if self.orientation not in (1, -1):
            raise StructuralError(f"orientation must be +1 or -1, got {self.orientation}")

    def coordinates(self):
        return tuple(f"x{i}" for i in range(self.n))

    def to_complex(self):
        return Chart(self.n, self.orientation, True)

    def zero_poly(self):
        return Polynomial.zero(self.n, self.complex_mode)

    def const_poly(self, value):
        return Polynomial.constant(self.n, value, self.complex_mode)

    def variable(self, i):
        return Polynomial.variable(self.n, i, self.complex_mode)

    def pseudoscalar(self, value, name):
        """value as a nonzero pseudoscalar in this chart's scalar mode.

        A number is tagged and put in the chart's mode; a Scalar must
        already be pseudo-tagged and in that mode.  name labels the errors.
        """
        if not isinstance(value, Scalar):
            value = Scalar(value, Fraction(0) if self.complex_mode else None,
                           pseudo=True)
        if value.is_zero():
            raise StructuralError(f"{name} must be nonzero")
        if not value.pseudo:
            raise StructuralError(f"{name} is a pseudoscalar; tag it as such")
        if value.complex_mode != self.complex_mode:
            raise StructuralError(f"{name} scalar mode must match the chart")
        return value


class Form:
    """Antisymmetric degree-p form; components keyed by increasing tuples."""

    __slots__ = ("chart", "degree", "twist", "components")

    def __init__(self, chart, degree, twist, components=None):
        if degree < 0:
            raise StructuralError(f"form degree must be >= 0, got {degree}")
        self.chart = chart
        self.degree = degree
        self.twist = bool(twist)
        clean = {}
        for idx, poly in (components or {}).items():
            idx = tuple(idx)
            if len(idx) != degree:
                raise StructuralError(f"index tuple {idx} has wrong length for degree {degree}")
            if any(not 0 <= i < chart.n for i in idx):
                raise StructuralError(f"index tuple {idx} out of range for n={chart.n}")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise StructuralError(f"index tuple {idx} is not strictly increasing")
            if poly.n != chart.n or poly.complex_mode != chart.complex_mode:
                raise StructuralError("component polynomial does not match the chart")
            if not poly.is_zero():
                clean[idx] = poly
        if degree > chart.n and clean:
            raise StructuralError("forms above top degree are identically zero")
        self.components = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, chart, degree, twist=False):
        return cls(chart, degree, twist)

    def is_zero(self):
        return not self.components

    def _raw(self, degree, twist, components):
        f = object.__new__(Form)
        f.chart = self.chart
        f.degree = degree
        f.twist = twist
        f.components = components
        return f

    def _check_chart(self, other):
        if self.chart != other.chart:
            raise StructuralError("chart mismatch")

    def _check_like(self, other):
        """Chart, degree and twist must agree, as they must for a sum."""
        self._check_chart(other)
        if self.degree != other.degree:
            raise StructuralError(f"degree mismatch: {self.degree} vs {other.degree}")
        if self.twist != other.twist:
            raise StructuralError("twist parity mismatch")

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return combine((1, self), (1, other))

    def __neg__(self):
        return self._raw(self.degree, self.twist,
                         {i: -p for i, p in self.components.items()})

    def __sub__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return combine((1, self), (-1, other))

    def scale(self, s, *, pseudo=None):
        """Scale by a Scalar or a Polynomial.

        A pseudo-tagged Scalar flips the twist parity; for Polynomial
        multipliers pass pseudo=True explicitly (e.g. axion coefficients).
        """
        if isinstance(s, (int, Fraction)):
            s = Scalar(s, Fraction(0) if self.chart.complex_mode else None)
        if isinstance(s, Scalar):
            flip = s.pseudo if pseudo is None else pseudo
            if s.is_zero() or not self.components:
                return Form.zero(self.chart, self.degree, self.twist != flip)
            num, d = _multiplier(s, self.chart.complex_mode)
            comps = {i: _scaled(p, num, d) for i, p in self.components.items()}
        elif isinstance(s, Polynomial):
            flip = bool(pseudo)
            comps = {}
            for i, p in self.components.items():
                q = p * s
                if not q.is_zero():
                    comps[i] = q
        else:
            raise StructuralError(f"cannot scale a form by {s!r}")
        return self._raw(self.degree, self.twist != flip, comps)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        self._check_chart(other)
        if self.degree != other.degree:
            raise StructuralError(f"degree mismatch: {self.degree} vs {other.degree}")
        if self.twist != other.twist:
            raise StructuralError("twist parity mismatch: refusing cross-twist comparison")
        return self.components == other.components

    def __hash__(self):
        return hash((self.chart, self.degree, self.twist,
                     frozenset(self.components.items())))

    def __repr__(self):
        kind = "twisted" if self.twist else "untwisted"
        if not self.components:
            return f"Form({kind} {self.degree}-form, 0)"
        bits = []
        for idx in sorted(self.components):
            basis = "^".join(f"dx{i}" for i in idx) or "1"
            bits.append(f"({self.components[idx]!r})*{basis}")
        return f"Form({kind} {self.degree}-form, {' + '.join(bits)})"


class VectorField:
    """Vector field u = sum_i u^i d/dx_i with polynomial components."""

    __slots__ = ("chart", "components")

    def __init__(self, chart, components):
        components = tuple(components)
        if len(components) != chart.n:
            raise StructuralError(f"expected {chart.n} components, got {len(components)}")
        for p in components:
            if p.n != chart.n or p.complex_mode != chart.complex_mode:
                raise StructuralError("component polynomial does not match the chart")
        self.chart = chart
        self.components = components

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.chart == other.chart and self.components == other.components

    def __repr__(self):
        return f"VectorField({', '.join(repr(p) for p in self.components)})"


# -- basis helpers ----------------------------------------------------------


def basis_form(chart, indices, twist=False, coefficient=None):
    """coefficient * dx_{i1}^...^dx_{ip} for strictly increasing indices."""
    indices = tuple(indices)
    if coefficient is None:
        coefficient = chart.const_poly(1)
    return Form(chart, len(indices), twist, {indices: coefficient})


def coordinate_field(chart, k):
    """The k-th coordinate vector field d/dx_k."""
    if not 0 <= k < chart.n:
        raise StructuralError(f"coordinate index {k} out of range for n={chart.n}")
    comps = [chart.const_poly(1) if i == k else chart.zero_poly()
             for i in range(chart.n)]
    return VectorField(chart, comps)


def _perm_sign(seq):
    """(-1)^inversions of a sequence of distinct indices."""
    inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
                     if seq[i] > seq[j])
    return -1 if inversions % 2 else 1


def sort_indices(indices):
    """Sort an index tuple; returns (sorted tuple, permutation sign) or sign 0 on repeats."""
    indices = tuple(indices)
    if len(set(indices)) != len(indices):
        return indices, 0
    return tuple(sorted(indices)), _perm_sign(indices)


# -- index tables -------------------------------------------------------------
#
# The index bookkeeping of wedge, ext_d and contract depends only on the
# chart dimension and the degrees, so it is built once per (n, p[, q]).


@lru_cache(maxsize=None)
def _wedge_table(n, p, q):
    """table[ia][ib] = (merged, sign) for disjoint increasing p- and
    q-tuples: dx_ia ^ dx_ib = sign * dx_merged.  Past top degree no two
    tuples are disjoint, so every row is empty."""
    table = {}
    for ia in combinations(range(n), p):
        row = table[ia] = {}
        for ib in combinations(range(n), q):
            merged, sign = sort_indices(ia + ib)
            if sign:
                row[ib] = (merged, sign)
    return table


@lru_cache(maxsize=None)
def _d_table(n, p):
    """table[idx] = ((k, merged, sign), ...) for every k not in idx:
    dx_k ^ dx_idx = sign * dx_merged."""
    return {idx: tuple((k, *sort_indices((k,) + idx))
                       for k in range(n) if k not in idx)
            for idx in combinations(range(n), p)}


@lru_cache(maxsize=None)
def _contract_table(n, p):
    """table[idx] = ((i, rest, sign), ...): d/dx_i _| dx_idx = sign * dx_rest."""
    return {idx: tuple((i, idx[:j] + idx[j + 1:], -1 if j % 2 else 1)
                       for j, i in enumerate(idx))
            for idx in combinations(range(n), p)}


def _components(chart, groups, kernel):
    """Sum each output index's terms with kernel; zero sums are dropped."""
    n, complex_mode = chart.n, chart.complex_mode
    comps = {}
    for idx, terms in groups.items():
        poly = kernel(n, complex_mode, terms)
        if poly.nums:
            comps[idx] = poly
    return comps


# -- core operations --------------------------------------------------------


def combine(*terms):
    """The linear combination sum of m * form over (m, form) terms, m an
    int or Fraction; each component is one poly_sum.

    The forms must agree in chart, degree and twist, as for +.
    """
    first = terms[0][1]
    for _, form in terms[1:]:
        first._check_like(form)
    groups = {}
    for m, form in terms:
        for idx, poly in form.components.items():
            groups.setdefault(idx, []).append((m, poly, None))
    return first._raw(first.degree, first.twist,
                      _components(first.chart, groups, poly_sum))


def wedge(a, b):
    """Exterior product; twist parities XOR, degrees add.

    Results past top degree are the canonical zero form: an (n+1)-form on an
    n-chart has no components, and the identity suites lean on that.
    """
    a._check_chart(b)
    degree = a.degree + b.degree
    twist = a.twist != b.twist
    table = _wedge_table(a.chart.n, a.degree, b.degree)
    b_items = b.components.items()
    groups = {}
    for ia, pa in a.components.items():
        row = table[ia]
        for ib, pb in b_items:
            hit = row.get(ib)
            if hit is not None:
                merged, sign = hit
                groups.setdefault(merged, []).append((sign, pa, pb))
    return a._raw(degree, twist, _components(a.chart, groups, poly_sum))


def ext_d(a):
    """Exterior derivative; nilpotent, graded Leibniz, preserves twist."""
    table = _d_table(a.chart.n, a.degree)
    groups = {}
    for idx, poly in a.components.items():
        for k, merged, sign in table[idx]:
            groups.setdefault(merged, []).append((sign, poly, k))
    return a._raw(a.degree + 1, a.twist, _components(a.chart, groups, partial_sum))


def contract(u, a):
    """Interior product u _| a; degree drops by one, twist is preserved.

    On 0-forms the result is the canonical zero 0-form (there is no degree
    -1; see lie_derivative for how Cartan's formula handles that edge).
    """
    if u.chart != a.chart:
        raise StructuralError("chart mismatch")
    if a.degree == 0:
        return Form.zero(a.chart, 0, a.twist)
    table = _contract_table(a.chart.n, a.degree)
    uc = u.components
    groups = {}
    for idx, poly in a.components.items():
        for i, rest, sign in table[idx]:
            if uc[i].nums:
                groups.setdefault(rest, []).append((sign, uc[i], poly))
    return a._raw(a.degree - 1, a.twist, _components(a.chart, groups, poly_sum))


def lie_derivative(u, a):
    """Lie derivative along u via Cartan's formula d(u _| a) + u _| da.

    For 0-forms the contraction term is empty and the formula reduces to
    u _| da, i.e. the directional derivative of the coefficient.
    """
    if u.chart != a.chart:
        raise StructuralError("chart mismatch")
    if a.degree == 0:
        return contract(u, ext_d(a))
    return ext_d(contract(u, a)) + contract(u, ext_d(a))


def pullback_linear(matrix, a):
    """Pullback along the linear substitution x -> L x, L = matrix.

    Coefficients are composed with the substitution and, as each dx_i
    becomes sum_j L[i][j] dx_j, (L*a)_J = sum_I a_I(Lx) * det L[I, J].
    Twisted forms acquire an extra sign(det L) factor, which is the whole
    computational content of twist parity.
    """
    chart = a.chart
    n = chart.n
    mat = [[Fraction(matrix[i][j]) for j in range(n)] for i in range(n)]
    minors = _minors(mat)
    det = minors.get((tuple(range(n)),) * 2, 0)
    if det == 0:
        raise StructuralError("pullback matrix is singular")
    sign = -1 if a.twist and det < 0 else 1
    pulled = {idx: poly.substitute_linear(mat) for idx, poly in a.components.items()}
    groups = {}
    for (rows, cols), minor in minors.items():
        if rows in pulled:
            groups.setdefault(cols, []).append((sign * minor, pulled[rows], None))
    return a._raw(a.degree, a.twist, _components(chart, groups, poly_sum))


def components_equal(a, b):
    """Componentwise equality ignoring twist parity.

    Only for checks that are stated componentwise (factorization through
    Hodge stars, self-dual eigenforms); everywhere else use ==, which
    refuses cross-twist comparison.
    """
    if a.chart != b.chart or a.degree != b.degree:
        raise StructuralError("componentwise comparison needs matching chart and degree")
    return a.components == b.components


def _minors(mat):
    """{(rows, cols): det mat[rows, cols]} over increasing index tuples of
    equal length 0..n, nonzero minors only (the empty minor is 1).

    Each k-minor is a Laplace expansion along its first row over the
    (k-1)-minors of the rows below it.  Only nonzero minors and nonzero
    entries are propagated, so sparse (e.g. diagonal) matrices stay cheap.
    """
    n = len(mat)
    entries = [[(c, x) for c, x in enumerate(row) if x] for row in mat]
    tower = level = {((), ()): Fraction(1)}
    for _ in range(n):
        sums = {}
        for (rows, cols), minor in level.items():
            for r in range(rows[0] if rows else n):
                for c, x in entries[r]:
                    if c not in cols:
                        pos = bisect(cols, c)
                        key = ((r,) + rows, cols[:pos] + (c,) + cols[pos:])
                        sums[key] = sums.get(key, 0) + (-x if pos % 2 else x) * minor
        level = {key: v for key, v in sums.items() if v}
        tower.update(level)
    return tower
