"""Differential forms with polynomial coefficients on a coordinate chart.

A degree-p form stores one Polynomial per strictly increasing index tuple
(i1 < ... < ip); no zero components are kept, so two forms are equal iff
their component maps coincide.  Every form carries a twist parity:
untwisted forms transform as usual under linear pullbacks, twisted (odd)
forms pick up an extra sign(det) factor.  The operations below track that
parity: wedge XORs it, d / contraction / Lie derivative preserve it, and
scaling with pseudo=True flips it, which is how the pseudoscalars of the
paper (the impedance Z, the reciprocity parameter z and the axion
coefficient alpha) act: their only effect is that flip.

Degrees above the chart dimension are permitted but carry no components;
wedging past top degree therefore yields a canonical zero form rather than
an error, which is what the vanishing (n+1)-form arguments in the identity
suites rely on.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .errors import StructuralError
from .scalars import Polynomial, _multiplier, _scaled, poly_sum


class Chart(namedtuple("Chart", "n orientation complex_mode")):
    """A single n-dimensional coordinate chart x0 .. x(n-1).

    orientation fixes the sign of the top basis form dx0^...^dx(n-1) used
    by volume elements; complex_mode selects Gaussian-rational coefficients
    for every object built over the chart.
    """

    __slots__ = ()

    def __new__(cls, n, orientation=1, complex_mode=False):
        if not 2 <= n <= 8:
            raise StructuralError(f"chart dimension must be in 2..8, got {n}")
        if orientation not in (1, -1):
            raise StructuralError(f"orientation must be +1 or -1, got {orientation}")
        return super().__new__(cls, n, orientation, complex_mode)

    def to_complex(self):
        return Chart(self.n, self.orientation, True)

    def zero_poly(self):
        return Polynomial.zero(self.n, self.complex_mode)

    def const_poly(self, value):
        return Polynomial.constant(self.n, value, self.complex_mode)

    def variable(self, i):
        return Polynomial.variable(self.n, i, self.complex_mode)


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

    def scale(self, s, *, pseudo=False):
        """Scale by a number (an int, a Fraction or, on a complex chart, an
        (re, im) pair) or by a Polynomial.

        pseudo=True marks s as a pseudoscalar and flips the twist parity.
        """
        if isinstance(s, Polynomial):
            comps = {}
            for i, p in self.components.items():
                q = p * s
                if not q.is_zero():
                    comps[i] = q
        elif isinstance(s, (int, Fraction, tuple)):
            # the mode is checked even when the result is zero
            m = _multiplier(s, self.chart.complex_mode)
            comps = ({i: _scaled(p, *m) for i, p in self.components.items()}
                     if m else {})
        else:
            raise StructuralError(f"cannot scale a form by {s!r}")
        return self._raw(self.degree, self.twist != bool(pseudo), comps)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        """Componentwise; chart, degree and twist must agree, as for +."""
        if not isinstance(other, Form):
            return NotImplemented
        _like((self.chart, self.degree, self.twist),
              other.chart, other.degree, other.twist)
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


def sort_indices(indices):
    """(sorted tuple, (-1)^inversions), or sign 0 on repeats: the one sign
    rule for reordering dx-words, read by the wedge table (which d and
    contraction read too), the Hodge star, the 3+1 split and the parser."""
    indices = tuple(indices)
    if len(set(indices)) != len(indices):
        return indices, 0
    inversions = sum(a > b for k, a in enumerate(indices) for b in indices[k + 1:])
    return tuple(sorted(indices)), -1 if inversions % 2 else 1


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
def _contract_table(n, p):
    """table[idx] = ((i, rest, sign), ...): d/dx_i _| dx_idx = sign * dx_rest,
    read off the wedge table's dx_i ^ dx_rest = sign * dx_idx."""
    table = {idx: [] for idx in combinations(range(n), p)}
    for (i,), row in _wedge_table(n, 1, p - 1).items():
        for rest, (idx, sign) in row.items():
            table[idx].append((i, rest, sign))
    return table


def _components(chart, groups):
    """Sum each output index's terms with poly_sum; zero sums are dropped."""
    n, complex_mode = chart.n, chart.complex_mode
    comps = {}
    for idx, terms in groups.items():
        poly = poly_sum(n, complex_mode, terms)
        if poly.nums:
            comps[idx] = poly
    return comps


def _d_terms(groups, m, a):
    """Add the poly_sum terms of m * d(a) to groups, by output index; the
    wedge table gives dx_idx ^ dx_k, and dx_k ^ dx_idx is (-1)^p times it."""
    table = _wedge_table(a.chart.n, a.degree, 1)
    m = -m if a.degree % 2 else m
    for idx, poly in a.components.items():
        for (k,), (merged, sign) in table[idx].items():
            groups.setdefault(merged, []).append((sign * m, poly, k))
    return groups


def _contract_terms(groups, u, a):
    """Add the poly_sum terms of u _| a (a of degree >= 1) to groups."""
    table = _contract_table(a.chart.n, a.degree)
    uc = u.components
    for idx, poly in a.components.items():
        for i, rest, sign in table[idx]:
            if uc[i].nums:
                groups.setdefault(rest, []).append((sign, uc[i], poly))
    return groups


def check_shape(name, form, chart, degree, twist):
    """Raise unless the form `name` lives on chart as a degree-form of the
    given twist parity."""
    if form.chart != chart:
        raise StructuralError(f"{name}: chart mismatch")
    if form.degree != degree or form.twist != twist:
        raise StructuralError(
            f"{name} must be a {'twisted' if twist else 'untwisted'} {degree}-form")


def _like(shape, chart, degree, twist):
    """(chart, degree, twist) of one summand, checked as for + against
    shape, the first summand's (None while there is none)."""
    if shape is not None:
        if chart != shape[0]:
            raise StructuralError("chart mismatch")
        if degree != shape[1]:
            raise StructuralError(f"degree mismatch: {shape[1]} vs {degree}")
        if twist != shape[2]:
            raise StructuralError("twist parity mismatch")
    return chart, degree, twist


# -- core operations --------------------------------------------------------


def combine(*terms):
    """The linear combination sum of m * form over (m, form) terms, m an
    int or Fraction; each component is one poly_sum.  A term (m, ext_d, a)
    stands for m * d(a): its partial derivatives join the same sums, so
    d(a) is never built.

    The summands must agree in chart, degree and twist, as for +.
    """
    groups = {}
    shape = None
    for m, *op, form in terms:
        if op:
            _d_terms(groups, m, form)
        else:
            for idx, poly in form.components.items():
                groups.setdefault(idx, []).append((m, poly, None))
        shape = _like(shape, form.chart, form.degree + len(op), form.twist)
    return form._raw(shape[1], shape[2], _components(form.chart, groups))


def wedge_sum(*terms):
    """The sum of m * (a ^ b) over (m, a, b) terms, m an int or Fraction,
    with one poly_sum per output component.  The products must agree in
    chart, degree and twist; past top degree the sum is the canonical zero
    form (an (n+1)-form has no components), which the identity suites use.
    """
    groups = {}
    shape = None
    for m, a, b in terms:
        if a.chart != b.chart:
            raise StructuralError("chart mismatch")
        shape = _like(shape, a.chart, a.degree + b.degree, a.twist != b.twist)
        table = _wedge_table(a.chart.n, a.degree, b.degree)
        bc = b.components
        signed = {1: m, -1: -m}
        # each row lists the disjoint partners of ia only
        for ia, pa in a.components.items():
            for ib, (merged, sign) in table[ia].items():
                pb = bc.get(ib)
                if pb is not None:
                    groups.setdefault(merged, []).append((signed[sign], pa, pb))
    return a._raw(shape[1], shape[2], _components(a.chart, groups))


def wedge(a, b):
    """Exterior product; twist parities XOR, degrees add (see wedge_sum)."""
    return wedge_sum((1, a, b))


def ext_d(a):
    """Exterior derivative; nilpotent, graded Leibniz, preserves twist."""
    return a._raw(a.degree + 1, a.twist, _components(a.chart, _d_terms({}, 1, a)))


def contract(u, a):
    """Interior product u _| a; degree drops by one, twist is preserved.

    On 0-forms the result is the canonical zero 0-form (there is no degree
    -1; see lie_derivative for how Cartan's formula handles that edge).
    """
    if u.chart != a.chart:
        raise StructuralError("chart mismatch")
    if a.degree == 0:
        return Form.zero(a.chart, 0, a.twist)
    return a._raw(a.degree - 1, a.twist, _components(a.chart, _contract_terms({}, u, a)))


def lie_derivative(u, a, ua=None, da=None, uda=None):
    """Lie derivative of a along u.

    If every component of u is a rational constant, L_u dx_i = d(u^i) = 0
    and L_u a = sum_j u^j d(a_I)/dx_j.  Any other u takes Cartan's formula
    d(u _| a) + u _| da, reusing the caller's u _| a, da or u _| da when
    given (u _| da alone on 0-forms); the terms of d(u _| a) and u _| da go
    into the same sums, so neither form is built.  Either way each
    component is one poly_sum.
    """
    if u.chart != a.chart:
        raise StructuralError("chart mismatch")
    rates = _rational_constants(u)
    if rates is not None:
        groups = {idx: [(c, poly, j) for j, c in enumerate(rates) if c]
                  for idx, poly in a.components.items()}
    elif uda is None:
        groups = _contract_terms({}, u, ext_d(a) if da is None else da)
    else:
        groups = {idx: [(1, poly, None)] for idx, poly in uda.components.items()}
    if rates is None and a.degree:
        _d_terms(groups, 1, contract(u, a) if ua is None else ua)
    return a._raw(a.degree, a.twist, _components(a.chart, groups))


def _rational_constants(u):
    """The components of u as Fractions when each is a rational constant
    (with no imaginary part), else None."""
    rates = []
    for p in u.components:
        re, im = p.nums.get(0, (0, 0)) if p.complex_mode else (p.nums.get(0, 0), 0)
        if im or p.nums.keys() - {0}:
            return None
        rates.append(Fraction(re, p.den))
    return rates
