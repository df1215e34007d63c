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

Each output component is one scalars.term_sum over finished terms
(num, d, a, b) that the term adders below append by output index, each
reading its multiplier once per call, and _built sums them; the kernel
only takes the lcm of the ds and reads every term once.  Only this module
and scalars write finished terms (hodge and LinearLocal use _row_terms).
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .errors import StructuralError
from .scalars import Polynomial, _index, _multiplier, _scaled, check_flag, term_sum


class Chart(namedtuple("Chart", "n orientation complex_mode")):
    """A single n-dimensional coordinate chart x0 .. x(n-1).

    orientation fixes the sign of the top basis form dx0^...^dx(n-1) used
    by volume elements; complex_mode selects Gaussian-rational coefficients
    for every object built over the chart.
    """

    __slots__ = ()

    def __new__(cls, n, orientation=1, complex_mode=False):
        if n.__class__ is not int or not 2 <= n <= 8:
            raise StructuralError(f"chart dimension must be in 2..8, got {n}")
        if orientation.__class__ is not int or orientation not in (1, -1):
            raise StructuralError(f"orientation must be +1 or -1, got {orientation}")
        check_flag("complex_mode", complex_mode)
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
        if degree.__class__ is not int or degree < 0:
            raise StructuralError(f"form degree must be an int >= 0, got {degree!r}")
        check_flag("twist", twist)
        self.chart = chart
        self.degree = degree
        self.twist = twist
        clean = {}
        for idx, poly in (components or {}).items():
            idx = tuple(idx)
            if len(idx) != degree:
                raise StructuralError(f"index tuple {idx} has wrong length for degree {degree}")
            if any(i.__class__ is not int for i in idx):
                raise StructuralError(f"index tuple {idx} has a non-int entry")
            if any(not 0 <= i < chart.n for i in idx):
                raise StructuralError(f"index tuple {idx} out of range for n={chart.n}")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise StructuralError(f"index tuple {idx} is not strictly increasing")
            if not isinstance(poly, Polynomial):
                raise StructuralError(f"component {idx} is not a Polynomial: {poly!r}")
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

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return combine((1, self), (1, other))

    def __neg__(self):
        return _form(self.chart, self.degree, self.twist,
                     {i: -p for i, p in self.components.items()})

    def __sub__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return combine((1, self), (-1, other))

    def scale(self, s, *, pseudo=False):
        """Scale by a number (an int, a Fraction or, on a complex chart, an
        (re, im) pair) or by a Polynomial.

        pseudo=True marks s as a pseudoscalar and flips the twist parity.
        Scaling by the int 1 shares the (never mutated) component map.
        """
        check_flag("pseudo", pseudo)
        if s.__class__ is int and s == 1:
            comps = self.components
        elif isinstance(s, Polynomial):
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
        return _form(self.chart, self.degree, self.twist != pseudo, comps)

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

    __slots__ = ("chart", "components", "rates")

    def __init__(self, chart, components):
        components = tuple(components)
        if len(components) != chart.n:
            raise StructuralError(f"expected {chart.n} components, got {len(components)}")
        for i, p in enumerate(components):
            if not isinstance(p, Polynomial):
                raise StructuralError(f"component {i} is not a Polynomial: {p!r}")
            if p.n != chart.n or p.complex_mode != chart.complex_mode:
                raise StructuralError("component polynomial does not match the chart")
        self.chart = chart
        self.components = components
        self.rates = _rational_constants(self)

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
    _index(k, chart.n, "coordinate")
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


# -- term adders ------------------------------------------------------------
#
# Each adder reads its multiplier m (an int or a Fraction) once per call as
# integers num/dm and appends finished term_sum terms (num, d, a, b) to
# groups, by output index: d is dm times the dens of the term's factors.


def _form(chart, degree, twist, components):
    """The Form with these slots, unchecked: for components valid by
    construction (nonzero Polynomials of the chart's mode, increasing keys)."""
    f = object.__new__(Form)
    f.chart, f.degree, f.twist, f.components = chart, degree, twist, components
    return f


def _built(chart, degree, twist, groups):
    """The unchecked form on chart with each output index's finished terms
    summed by term_sum; zero sums are dropped."""
    n, complex_mode = chart.n, chart.complex_mode
    comps = {}
    for idx, terms in groups.items():
        poly = term_sum(n, complex_mode, terms)
        if poly._nums:
            comps[idx] = poly
    return _form(chart, degree, twist, comps)


def _num_den(m):
    """m, an int or a Fraction, as integers (num, dm) with m = num/dm."""
    return (m, 1) if m.__class__ is int else (m.numerator, m.denominator)


def _signed(m):
    """({1: num, -1: -num}, dm) for m = num/dm, num signed by a table sign."""
    num, dm = _num_den(m)
    return {1: num, -1: -num}, dm


def _d_terms(groups, m, a):
    """Add the terms of m * d(a) to groups; the wedge table gives
    dx_idx ^ dx_k, and dx_k ^ dx_idx is (-1)^p times it."""
    table = _wedge_table(a.chart.n, a.degree, 1)
    signed, dm = _signed(-m if a.degree % 2 else m)
    for idx, poly in a.components.items():
        d = dm * poly._den
        for (k,), (merged, sign) in table[idx].items():
            groups.setdefault(merged, []).append((signed[sign], d, poly, k))
    return groups


class _Top(namedtuple("_Top", "chart twist groups")):
    """An (n-1)-form as its components' unsummed terms, as the adders leave them."""

    __slots__ = ()
    degree = property(lambda self: self.chart.n - 1)


def _top_d_terms(groups, m, a):
    """Add the terms of m * d(a), m = +-1, for a _Top a to groups: a term
    (c, d, p, q) of the component without dx_k gives c/d * d(p * q)/dx_k,
    or c/d * dp/dx_k; d stays, since it counts the dens of p and q."""
    if m not in (1, -1):
        raise StructuralError(f"d of unsummed terms takes m = +-1, got {m!r}")
    n = a.chart.n
    for idx, terms in a.groups.items():
        ((k,), (top, sign)), = _wedge_table(n, n - 1, 1)[idx].items()
        keep = sign == (m if n % 2 else -m)  # dx_k ^ dx_idx = (-1)^(n-1) sign dx_top
        groups.setdefault(top, []).extend(
            [(c if keep else -c, d, p, k if q is None else (q, k)) for c, d, p, q in terms])
    return groups


def _wedge_terms(groups, m, a, b):
    """Add the terms of m * (a ^ b) to groups."""
    table = _wedge_table(a.chart.n, a.degree, b.degree)
    bc, (signed, dm) = b.components, _signed(m)
    for ia, pa in a.components.items():
        da = dm * pa._den
        for ib, (merged, sign) in table[ia].items():
            pb = bc.get(ib)
            if pb is not None:
                groups.setdefault(merged, []).append((signed[sign], da * pb._den, pa, pb))
    return groups


def _contract_terms(groups, m, u, a):
    """Add the terms of m * (u _| a), a of degree >= 1, to groups; along
    rational constants c_i, a's components scaled by sign * m * c_i."""
    table = _contract_table(a.chart.n, a.degree)
    rates, (signed, dm) = u.rates, _signed(m)
    rows = ([c._nums and (signed, dm * c._den, c) for c in u.components] if rates is None else
            [c and ((signed, dm) if c == 1 else _signed(m * c)) + (None,) for c in rates])
    for idx, poly in a.components.items():
        for i, rest, sign in table[idx]:
            if row := rows[i]:
                groups.setdefault(rest, []).append(
                    (row[0][sign], row[1] * poly._den, poly, row[2]))
    return groups


def _row_terms(groups, rows, a):
    """Add the terms of a sparse matrix acting on a's components, output J
    the sum of m * a_I over the pairs (I, m) of rows[J], to groups: an int
    or Fraction m scales a_I, and a Polynomial m multiplies it."""
    comps = a.components
    for idx, row in rows.items():
        if terms := [(1, m._den * p._den, m, p) if m.__class__ is Polynomial
                     else (m.numerator, m.denominator * p._den, p, None)
                     for i_idx, m in row if (p := comps.get(i_idx)) is not None]:
            groups[idx] = terms
    return groups


def check_shape(name, form, chart, degree, twist):
    """Raise unless the form `name` lives on chart as a degree-form of the
    given twist parity."""
    if form.chart != chart:
        raise StructuralError(f"{name}: chart mismatch")
    if form.degree != degree or form.twist != twist:
        raise StructuralError(
            f"{name} must be {'a twisted' if twist else 'an untwisted'} {degree}-form")


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
    """The linear combination of the summands, m an int or Fraction, with
    one term_sum per component.  A summand (m, b) is m * b, (m, ext_d, b)
    is m * d(b), b a Form or a _Top (its terms never summed), and
    (m, wedge, a, b) is m * (a ^ b), told apart by length: derivatives and
    products join the same sums, so neither d(b) nor a ^ b is built.

    The summands, at least one, must agree in chart, degree and twist; past
    top degree a wedge has no components, so the sum is the canonical zero.
    """
    if not terms:
        raise StructuralError("an empty sum needs at least one term")
    groups, shape = {}, None
    for m, *op, b in terms:
        degree, twist = b.degree, b.twist
        if len(op) == 2:
            a = op[1]
            if a.chart != b.chart:
                raise StructuralError("chart mismatch")
            degree, twist = a.degree + degree, a.twist != twist
            if m:
                _wedge_terms(groups, m, a, b)
        elif op:
            degree += 1
            (_d_terms if b.__class__ is Form else _top_d_terms)(groups, m, b)
        elif m:
            num, dm = _num_den(m)
            for idx, poly in b.components.items():
                groups.setdefault(idx, []).append((num, dm * poly._den, poly, None))
        shape = _like(shape, b.chart, degree, twist)
    return _built(*shape, groups)


def wedge(a, b):
    """Exterior product; twist parities XOR, degrees add (see combine)."""
    return combine((1, wedge, a, b))


def ext_d(a):
    """Exterior derivative; nilpotent, graded Leibniz, preserves twist."""
    return _built(a.chart, a.degree + 1, a.twist, _d_terms({}, 1, a))


def contract(u, a):
    """Interior product u _| a; degree drops by one, twist is preserved.

    On 0-forms the result is the canonical zero 0-form (there is no degree
    -1; see lie_derivative for how Cartan's formula handles that edge).
    """
    if u.chart != a.chart:
        raise StructuralError("chart mismatch")
    if a.degree == 0:
        return Form.zero(a.chart, 0, a.twist)
    return _built(a.chart, a.degree - 1, a.twist, _contract_terms({}, 1, u, a))


def lie_derivative(u, a, ua=None, da=None, uda=None):
    """Lie derivative of a along u.

    If every component of u is a rational constant, L_u dx_i = d(u^i) = 0
    and L_u a = sum_j u^j d(a_I)/dx_j.  Any other u takes Cartan's formula
    d(u _| a) + u _| da, reusing the caller's u _| a, da or u _| da when
    given (u _| da alone on 0-forms); the terms of d(u _| a) and u _| da go
    into the same sums, so neither form is built.  Either way each
    component is one term_sum.  A given reuse form must have the chart,
    degree and twist of the one it stands for, whichever way u takes.
    """
    chart, p, twist = a.chart, a.degree, a.twist
    if u.chart != chart:
        raise StructuralError("chart mismatch")
    for name, form, degree in (("ua", ua, max(p - 1, 0)), ("da", da, p + 1), ("uda", uda, p)):
        if form is not None:
            check_shape(name, form, chart, degree, twist)
    rates = u.rates
    if rates is not None:
        rows = [(j, *_num_den(c)) for j, c in enumerate(rates) if c]
        groups = {idx: [(c, d * poly._den, poly, j) for j, c, d in rows]
                  for idx, poly in a.components.items()}
    elif uda is None:
        groups = _contract_terms({}, 1, u, ext_d(a) if da is None else da)
    else:
        groups = {idx: [(1, poly._den, poly, None)] for idx, poly in uda.components.items()}
    if rates is None and p:
        _d_terms(groups, 1, contract(u, a) if ua is None else ua)
    return _built(chart, p, twist, groups)


def _rational_constants(u):
    """u.rates, read once per field: its components as rationals when each
    is a rational constant (with no imaginary part), else None; an int when
    its den is 1, so a coordinate field builds no Fraction."""
    rates = []
    for p in u.components:
        re, im = p._nums.get(0, (0, 0)) if p.complex_mode else (p._nums.get(0, 0), 0)
        if im or p._nums.keys() - {0}:
            return None
        rates.append(re if p._den == 1 else Fraction(re, p._den))
    return rates
