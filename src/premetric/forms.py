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

from dataclasses import dataclass
from fractions import Fraction

from .errors import StructuralError
from .scalars import Polynomial, Scalar


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

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        self._check_chart(other)
        if self.degree != other.degree:
            raise StructuralError(f"degree mismatch: {self.degree} vs {other.degree}")
        if self.twist != other.twist:
            raise StructuralError("twist parity mismatch")
        comps = dict(self.components)
        for idx, poly in other.components.items():
            cur = comps.get(idx)
            if cur is None:
                comps[idx] = poly
            else:
                s = cur + poly
                if s.is_zero():
                    del comps[idx]
                else:
                    comps[idx] = s
        return self._raw(self.degree, self.twist, comps)

    def __neg__(self):
        return self._raw(self.degree, self.twist,
                         {i: -p for i, p in self.components.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s, *, pseudo=None):
        """Scale by a Scalar or a Polynomial.

        A pseudo-tagged Scalar flips the twist parity; for Polynomial
        multipliers pass pseudo=True explicitly (e.g. axion coefficients).
        """
        if isinstance(s, (int, Fraction)):
            s = Scalar(s, Fraction(0) if self.chart.complex_mode else None)
        if isinstance(s, Scalar):
            flip = s.pseudo if pseudo is None else pseudo
            s = s.as_plain()
            if s.is_zero():
                return Form.zero(self.chart, self.degree, self.twist != flip)
            comps = {i: p.scale(s) for i, p in self.components.items()}
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

    def is_constant(self):
        return all(p.is_zero() or p.degree() == 0 for p in self.components)

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


def _merge_sign(a, b):
    """Merge two disjoint increasing tuples; sign is (-1)^inversions.

    Each element of b that must move left past an element of a costs one
    transposition, so the sign is (-1)^#{(x,y) in a x b : y < x}.
    """
    inversions = sum(1 for x in a for y in b if y < x)
    merged = tuple(sorted(a + b))
    return merged, -1 if inversions % 2 else 1


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


# -- core operations --------------------------------------------------------


def wedge(a, b):
    """Exterior product; twist parities XOR, degrees add.

    Results past top degree are the canonical zero form: an (n+1)-form on an
    n-chart has no components, and the identity suites lean on that.
    """
    a._check_chart(b)
    degree = a.degree + b.degree
    twist = a.twist != b.twist
    comps = {}
    for ia, pa in a.components.items():
        sa = set(ia)
        for ib, pb in b.components.items():
            if sa.intersection(ib):
                continue
            merged, sign = _merge_sign(ia, ib)
            term = pa * pb
            cur = comps.get(merged)
            if cur is not None:
                term = cur - term if sign < 0 else cur + term
            elif sign < 0:
                term = -term
            if term.is_zero():
                comps.pop(merged, None)
            else:
                comps[merged] = term
    if degree > a.chart.n:
        comps = {}
    return a._raw(degree, twist, comps)


def ext_d(a):
    """Exterior derivative; nilpotent, graded Leibniz, preserves twist."""
    chart = a.chart
    comps = {}
    for idx, poly in a.components.items():
        idx_set = set(idx)
        for k in range(chart.n):
            if k in idx_set:
                continue
            dp = poly.partial(k)
            if dp.is_zero():
                continue
            odd = sum(1 for i in idx if i < k) % 2
            new_idx = tuple(sorted(idx + (k,)))
            cur = comps.get(new_idx)
            if cur is not None:
                dp = cur - dp if odd else cur + dp
            elif odd:
                dp = -dp
            if dp.is_zero():
                comps.pop(new_idx, None)
            else:
                comps[new_idx] = dp
    if a.degree + 1 > chart.n:
        comps = {}
    return a._raw(a.degree + 1, a.twist, comps)


def contract(u, a):
    """Interior product u _| a; degree drops by one, twist is preserved.

    On 0-forms the result is the canonical zero 0-form (there is no degree
    -1; see lie_derivative for how Cartan's formula handles that edge).
    """
    if u.chart != a.chart:
        raise StructuralError("chart mismatch")
    if a.degree == 0:
        return Form.zero(a.chart, 0, a.twist)
    comps = {}
    for idx, poly in a.components.items():
        for j, i in enumerate(idx):
            comp = u.components[i]
            if comp.is_zero():
                continue
            term = comp * poly
            new_idx = idx[:j] + idx[j + 1:]
            cur = comps.get(new_idx)
            if cur is not None:
                term = cur - term if j % 2 else cur + term
            elif j % 2:
                term = -term
            if term.is_zero():
                comps.pop(new_idx, None)
            else:
                comps[new_idx] = term
    return a._raw(a.degree - 1, a.twist, comps)


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
    """Pullback along the linear substitution x -> matrix @ x.

    Coefficients are composed with the substitution and each dx_i is
    replaced by sum_j matrix[i][j] dx_j.  Twisted forms acquire an extra
    sign(det matrix) factor, which is the whole computational content of
    twist parity.
    """
    chart = a.chart
    n = chart.n
    mat = [[Fraction(matrix[i][j]) for j in range(n)] for i in range(n)]
    det = _det_inverse(mat)[0]
    if det == 0:
        raise StructuralError("pullback matrix is singular")
    row_forms = []
    for i in range(n):
        comps = {}
        for j in range(n):
            if mat[i][j] != 0:
                comps[(j,)] = chart.const_poly(mat[i][j])
        row_forms.append(Form(chart, 1, False, comps))
    out = Form.zero(chart, a.degree, a.twist)
    for idx, poly in a.components.items():
        term = Form(chart, 0, a.twist, {(): poly.substitute_linear(mat)})
        for i in idx:
            term = wedge(term, row_forms[i])
        out = out + term
    if a.twist and det < 0:
        out = -out
    return out


def components_equal(a, b):
    """Componentwise equality ignoring twist parity.

    Only for checks that are stated componentwise (factorization through
    Hodge stars, self-dual eigenforms); everywhere else use ==, which
    refuses cross-twist comparison.
    """
    if a.chart != b.chart or a.degree != b.degree:
        raise StructuralError("componentwise comparison needs matching chart and degree")
    return a.components == b.components


def _det_inverse(mat):
    """(det, inverse) of a square rational matrix by Gauss-Jordan
    elimination; the inverse is None when det is 0."""
    n = len(mat)
    zero, one = Fraction(0), Fraction(1)
    work = [[Fraction(x) for x in row] + [one if i == j else zero for j in range(n)]
            for i, row in enumerate(mat)]
    det = one
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            return zero, None
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        lead = work[col][col]
        det *= lead
        if lead != 1:
            work[col] = [x / lead for x in work[col]]
        for r in range(n):
            factor = work[r][col]
            if r != col and factor != 0:
                work[r] = [x - factor * y if y else x
                           for x, y in zip(work[r], work[col])]
    return det, [row[n:] for row in work]
