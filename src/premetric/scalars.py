"""Exact scalars and sparse multivariate polynomials.

All arithmetic is over exact rationals or Gaussian rationals (re + im*i
with rational parts), so equality is decidable and every identity in the
test suites is checked with zero tolerance.

`Scalar` wraps `fractions.Fraction` values and carries the pseudoscalar
bit; it is used for law parameters and form scaling.  `Polynomial` keeps
its coefficients as integer numerators over one shared denominator (the
content/primitive split of FLINT's fmpq_poly) and keys its monomials by
packed exponent integers (Monagan & Pearce, CASC 2007), so polynomial
arithmetic is integer work plus one gcd normalisation per result.  A sum
of many terms (one component of a wedge, a derivative or a Hodge dual)
is accumulated by poly_sum or partial_sum in one pass, without building
any partial sum.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from types import MappingProxyType

from .errors import StructuralError


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise StructuralError(f"not an exact rational: {x!r}")


class Scalar:
    """Exact number with a real/complex mode and a pseudoscalar parity bit.

    Real mode holds a single rational (im is None); complex mode holds a
    Gaussian rational (re, im).  Modes never mix silently: combining a
    real-mode and a complex-mode value raises StructuralError, so real
    values cannot acquire imaginary parts by accident.

    The ``pseudo`` bit marks values that change sign under orientation
    reversal (impedances, axion coefficients).  Products and quotients XOR
    the bit; sums require it to agree.  Scaling a differential form by a
    pseudo-tagged scalar flips the form's twist parity (see forms.py).
    """

    __slots__ = ("re", "im", "pseudo")

    def __init__(self, re=0, im=None, pseudo=False):
        self.re = _as_fraction(re)
        self.im = None if im is None else _as_fraction(im)
        self.pseudo = bool(pseudo)

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, complex_mode=False):
        return cls(1, Fraction(0) if complex_mode else None)

    @classmethod
    def i(cls):
        """The imaginary unit (complex mode)."""
        return cls(0, 1)

    # -- predicates --------------------------------------------------------

    @property
    def complex_mode(self):
        return self.im is not None

    def is_zero(self):
        return self.re == 0 and (self.im is None or self.im == 0)

    # -- mode handling -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar(other, Fraction(0) if self.complex_mode else None)
        raise StructuralError(f"cannot combine Scalar with {other!r}")

    def _check_mode(self, other):
        if self.complex_mode != other.complex_mode:
            raise StructuralError("real/complex scalar mode mismatch")

    def to_complex(self):
        return Scalar(self.re, self.im if self.im is not None else Fraction(0),
                      self.pseudo)

    def as_plain(self):
        """Same value with the pseudoscalar bit cleared."""
        if not self.pseudo:
            return self
        return Scalar(self.re, self.im, False)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        self._check_mode(other)
        if self.pseudo != other.pseudo:
            raise StructuralError("cannot add scalar and pseudoscalar")
        im = None if self.im is None else self.im + other.im
        return Scalar(self.re + other.re, im, self.pseudo)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.re, None if self.im is None else -self.im,
                      self.pseudo)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        self._check_mode(other)
        pseudo = self.pseudo != other.pseudo
        if self.im is None:
            return Scalar(self.re * other.re, None, pseudo)
        re = self.re * other.re - self.im * other.im
        im = self.re * other.im + self.im * other.re
        return Scalar(re, im, pseudo)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse; parity is preserved (x * 1/x is even)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        if self.im is None:
            return Scalar(1 / self.re, None, self.pseudo)
        norm = self.re * self.re + self.im * self.im
        return Scalar(self.re / norm, -self.im / norm, self.pseudo)

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inverse()

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            if isinstance(other, (int, Fraction)):
                other = self._coerce(other)
            else:
                return NotImplemented
        return (self.re == other.re and self.im == other.im
                and self.pseudo == other.pseudo)

    def __hash__(self):
        # agrees with __eq__ against int and Fraction, which equal the
        # non-pseudo scalar with a zero (or absent) imaginary part
        if not self.pseudo and not self.im:
            return hash(self.re)
        return hash((self.re, self.im, self.pseudo))

    def __repr__(self):
        tag = ", pseudo" if self.pseudo else ""
        if self.im is None:
            return f"Scalar({self.re}{tag})"
        return f"Scalar({self.re}, {self.im}{tag})"


# -- packed exponent keys ------------------------------------------------------
#
# A monomial x0^e0 * ... * x(n-1)^e(n-1) is keyed by one integer holding each
# exponent in a FIELD_BITS-wide field, variable 0 in the most significant
# one, so numeric key order is lexicographic exponent-tuple order and the
# product of two monomials is the sum of their keys.  The top bit of every
# field is a guard: exponents stay at or below MAX_EXPONENT, so a sum of two
# keys never carries between fields, and a set guard bit after the sum
# flags an exponent that left the representable range.

FIELD_BITS = 8
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
_FIELD_MASK = (1 << FIELD_BITS) - 1


@lru_cache(maxsize=None)
def _guard_mask(n):
    """The guard bit of every one of the n fields."""
    return sum(1 << (FIELD_BITS * j + FIELD_BITS - 1) for j in range(n))


def _shift(n, i):
    return FIELD_BITS * (n - 1 - i)


def _pack(exps):
    key = 0
    for e in exps:
        if e > MAX_EXPONENT:
            raise StructuralError(
                f"exponent {e} exceeds the limit {MAX_EXPONENT} in {tuple(exps)}")
        key = (key << FIELD_BITS) | e
    return key


def _unpack(key, n):
    # FIELD_BITS is 8, so each field is one byte of the key
    return tuple(key.to_bytes(n, "big"))


def _check_guard(keys, n):
    guard = _guard_mask(n)
    if any(map(guard.__and__, keys)):
        raise StructuralError(
            f"product exponent exceeds the limit {MAX_EXPONENT}")


class Polynomial:
    """Sparse exact polynomial in n variables x0 .. x(n-1).

    The value is (1/den) * sum over ``nums`` of numerator * monomial.
    ``nums`` maps packed exponent keys (see FIELD_BITS) to nonzero integer
    numerators in real mode and to (re, im) integer pairs, not both zero,
    in complex mode.  The form is canonical: den > 0 and gcd(den, every
    numerator part) == 1, so equal polynomials have equal (den, nums).
    Coefficients never carry the pseudoscalar bit; parity bookkeeping
    happens one level up, on forms.

    ``terms`` is a derived read-only view, exponent tuple -> Scalar, for
    printing and inspection; arithmetic never builds it.
    """

    __slots__ = ("n", "complex_mode", "den", "nums")

    def __init__(self, n, terms=None, complex_mode=False):
        """Checked constructor from {exponent tuple: coefficient}, e.g.
        {(2, 0, 1): Fraction(3, 4)} is (3/4)*x0^2*x2."""
        if n < 1:
            raise StructuralError(f"polynomial dimension must be >= 1, got {n}")
        complex_mode = bool(complex_mode)
        coeffs = {}
        for exps, coeff in (terms or {}).items():
            if not isinstance(coeff, Scalar):
                coeff = Scalar(coeff, Fraction(0) if complex_mode else None)
            if len(exps) != n or any(not isinstance(e, int) or e < 0 for e in exps):
                raise StructuralError(f"bad exponent tuple {exps} for n={n}")
            if coeff.complex_mode != complex_mode:
                raise StructuralError("coefficient mode does not match polynomial mode")
            if coeff.pseudo:
                raise StructuralError("polynomial coefficients must not be pseudo-tagged")
            if not coeff.is_zero():
                coeffs[_pack(exps)] = coeff
        # over the lcm of the reduced denominators the numerators already
        # have no common factor with den
        den = lcm(1, *(q.denominator for c in coeffs.values()
                       for q in (c.re, c.im) if q is not None))

        def num(q):
            return q.numerator * (den // q.denominator)

        self.n = n
        self.complex_mode = complex_mode
        self.den = den
        self.nums = ({k: (num(c.re), num(c.im)) for k, c in coeffs.items()}
                     if complex_mode else
                     {k: num(c.re) for k, c in coeffs.items()})

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n, complex_mode=False):
        return cls(n, {}, complex_mode)

    @classmethod
    def constant(cls, n, value, complex_mode=False):
        return cls(n, {(0,) * n: value}, complex_mode)

    @classmethod
    def variable(cls, n, i, complex_mode=False):
        if not 0 <= i < n:
            raise StructuralError(f"variable index {i} out of range for n={n}")
        complex_mode = bool(complex_mode)
        return _make(n, complex_mode, 1,
                     {1 << _shift(n, i): (1, 0) if complex_mode else 1})

    # -- views and predicates ----------------------------------------------

    @property
    def terms(self):
        """Read-only map exponent tuple -> nonzero Scalar coefficient."""
        n, den = self.n, self.den
        if self.complex_mode:
            view = {_unpack(k, n): Scalar(Fraction(r, den), Fraction(i, den))
                    for k, (r, i) in self.nums.items()}
        else:
            view = {_unpack(k, n): Scalar(Fraction(v, den))
                    for k, v in self.nums.items()}
        return MappingProxyType(view)

    def is_zero(self):
        return not self.nums

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.nums:
            return -1
        return max(sum(_unpack(k, self.n)) for k in self.nums)

    def _check_compatible(self, other):
        if not isinstance(other, Polynomial):
            raise StructuralError(f"expected Polynomial, got {other!r}")
        if self.n != other.n:
            raise StructuralError(f"dimension mismatch: {self.n} vs {other.n}")
        if self.complex_mode != other.complex_mode:
            raise StructuralError("real/complex polynomial mode mismatch")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other, sign=1):
        """self + sign * other for sign in (1, -1); __sub__ passes -1."""
        self._check_compatible(other)
        return poly_sum(self.n, self.complex_mode,
                        ((1, self, None), (sign, other, None)))

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __neg__(self):
        if self.complex_mode:
            nums = {k: (-r, -i) for k, (r, i) in self.nums.items()}
        else:
            nums = {k: -v for k, v in self.nums.items()}
        return _make(self.n, self.complex_mode, self.den, nums)

    def __mul__(self, other):
        self._check_compatible(other)
        out = {}
        _add_product(out, 1, self.nums, other.nums, self.complex_mode)
        return _reduced(self.n, self.complex_mode, self.den * other.den, out)

    def scale(self, s):
        """Multiply by a Scalar value.  The pseudo bit must be cleared first."""
        if not isinstance(s, Scalar):
            s = Scalar(s, Fraction(0) if self.complex_mode else None)
        if s.pseudo:
            raise StructuralError("scale polynomials by plain values; route parity via the form")
        num, d = _multiplier(s, self.complex_mode)
        if s.is_zero():
            return _make(self.n, self.complex_mode, 1, {})
        return _scaled(self, num, d)

    def partial(self, i):
        """Exact partial derivative with respect to x_i."""
        if not 0 <= i < self.n:
            raise StructuralError(f"coordinate index {i} out of range for n={self.n}")
        return partial_sum(self.n, self.complex_mode, ((1, self, i),))

    def substitute_linear(self, matrix):
        """Substitute x_i -> sum_j matrix[i][j] * x_j (linear change of variables)."""
        images = []
        for i in range(self.n):
            row = {}
            for j in range(self.n):
                v = _as_fraction(matrix[i][j])
                if v != 0:
                    row[tuple(1 if m == j else 0 for m in range(self.n))] = v
            images.append(Polynomial(self.n, row, self.complex_mode))
        terms = []
        for exps, coeff in self.terms.items():
            term = Polynomial.constant(self.n, coeff, self.complex_mode)
            for i, e in enumerate(exps):
                for _ in range(e):
                    term = term * images[i]
            terms.append((1, term, None))
        return poly_sum(self.n, self.complex_mode, terms)

    def to_complex(self):
        if self.complex_mode:
            return self
        return _make(self.n, True, self.den,
                     {k: (v, 0) for k, v in self.nums.items()})

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.n, self.complex_mode, self.den,
                     frozenset(self.nums.items())))

    def __repr__(self):
        if not self.nums:
            return f"Polynomial({self.n}, 0)"
        bits = []
        for exps, c in sorted(self.terms.items()):
            mono = "*".join(f"x{i}^{e}" for i, e in enumerate(exps) if e)
            bits.append(f"{c!r}*{mono}" if mono else repr(c))
        return f"Polynomial({self.n}, {' + '.join(bits)})"


def _make(n, complex_mode, den, nums):
    # unchecked: (den, nums) is canonical already
    p = object.__new__(Polynomial)
    p.n = n
    p.complex_mode = complex_mode
    p.den = den
    p.nums = nums
    return p


def _multiplier(s, complex_mode):
    """The Scalar s as an integer multiplier (num, d) with d > 0: s is
    num/d, num an int in real mode and an (re, im) pair in complex mode.
    The pseudo bit is ignored; the mode must match."""
    if s.complex_mode != complex_mode:
        raise StructuralError("real/complex scalar mode mismatch")
    re, im = s.re, s.im
    if im is None:
        return re.numerator, re.denominator
    d = lcm(re.denominator, im.denominator)
    return (re.numerator * (d // re.denominator),
            im.numerator * (d // im.denominator)), d


def _scaled(p, num, d):
    """p * num/d for a nonzero multiplier from `_multiplier`.  Z and Z[i]
    have no zero divisors, so every key stays and no entry becomes zero:
    one pass and one gcd, with no exponent guard and no zero filter."""
    if d == 1 and num in (1, -1):
        return p if num == 1 else -p
    if p.complex_mode:
        sr, si = num
        nums = {k: (r * sr - i * si, r * si + i * sr)
                for k, (r, i) in p.nums.items()}
    else:
        nums = {k: v * num for k, v in p.nums.items()}
    return _divided(p.n, p.complex_mode, p.den * d, nums)


def _reduced(n, complex_mode, den, nums):
    """Canonical polynomial nums/den: no zero entries, den > 0.

    The exponent guard runs before zero entries go, so a key past the
    limit raises even when the terms that reached it cancelled.
    """
    _check_guard(nums, n)
    zero = (0, 0) if complex_mode else 0
    if zero in nums.values():
        nums = {k: v for k, v in nums.items() if v != zero}
    return _divided(n, complex_mode, den, nums)


def _divided(n, complex_mode, den, nums):
    """nums/den, den > 0 and no zero entry, with the gcd divided out."""
    if den != 1:
        if complex_mode:
            g = gcd(den, *chain.from_iterable(nums.values()))
            if g != 1:
                nums = {k: (r // g, i // g) for k, (r, i) in nums.items()}
        else:
            g = gcd(den, *nums.values())
            if g != 1:
                nums = {k: v // g for k, v in nums.items()}
        den //= g
    return _make(n, complex_mode, den, nums)


# -- accumulation kernels ------------------------------------------------------
#
# Every sum of several polynomial terms (a form component built from many
# products, partial derivatives or scaled inputs) goes through one of the
# two kernels below, as do + and partial themselves.


def _over_lcm(terms, dens):
    """L, the lcm of the term denominators dens, and each term's rational
    multiplier m as the integer m * L / d over it."""
    den = lcm(*dens)
    return den, [t[0].numerator * (den // d) for t, d in zip(terms, dens)]


def _add_product(out, f, a, b, complex_mode):
    """out += f * a * b on numerator dicts, f an int folded into the
    shorter factor."""
    if len(a) < len(b):
        a, b = b, a
    get = out.get
    a = a.items()
    if complex_mode:
        b = (b.items() if f == 1 else
             [(k, (r * f, i * f)) for k, (r, i) in b.items()])
        for kb, (br, bi) in b:
            for ka, (ar, ai) in a:
                k = ka + kb
                re = ar * br - ai * bi
                im = ar * bi + ai * br
                cur = get(k)
                out[k] = (re, im) if cur is None else (cur[0] + re, cur[1] + im)
    else:
        b = b.items() if f == 1 else [(k, v * f) for k, v in b.items()]
        for kb, vb in b:
            for ka, va in a:
                k = ka + kb
                out[k] = get(k, 0) + va * vb


def poly_sum(n, complex_mode, terms):
    """Canonical sum of m * a * b (m * a where b is None) over terms.

    Each term is (m, a, b): m an int or Fraction, a and b Polynomials in
    n variables of the given mode (the caller has checked that).  All
    terms go over the lcm of their denominators and accumulate into one
    dict, which is normalised once; a lone term with m = 1 is the factor
    or the plain product.
    """
    terms = [t for t in terms
             if t[0] and t[1].nums and (t[2] is None or t[2].nums)]
    if len(terms) == 1 and terms[0][0] == 1:
        _, a, b = terms[0]
        return a if b is None else a * b
    den, factors = _over_lcm(terms, [
        m.denominator * a.den * (1 if b is None else b.den) for m, a, b in terms])
    out = {}
    get = out.get
    for f, (_, a, b) in zip(factors, terms):
        if b is not None:
            _add_product(out, f, a.nums, b.nums, complex_mode)
        elif complex_mode:
            for k, (r, i) in a.nums.items():
                cur = get(k)
                out[k] = ((r * f, i * f) if cur is None
                          else (cur[0] + r * f, cur[1] + i * f))
        else:
            for k, v in a.nums.items():
                out[k] = get(k, 0) + v * f
    return _reduced(n, complex_mode, den, out)


def partial_sum(n, complex_mode, terms):
    """Canonical sum of m * (d a / d x_i) over terms (m, a, i), accumulated
    and normalised like poly_sum."""
    terms = [t for t in terms if t[0] and t[1].nums]
    den, factors = _over_lcm(terms, [m.denominator * a.den for m, a, _ in terms])
    out = {}
    get = out.get
    for f, (_, a, i) in zip(factors, terms):
        shift = _shift(n, i)
        step = 1 << shift
        if complex_mode:
            for k, (r, im) in a.nums.items():
                e = (k >> shift) & _FIELD_MASK
                if e:
                    e *= f
                    k -= step
                    cur = get(k)
                    out[k] = ((r * e, im * e) if cur is None
                              else (cur[0] + r * e, cur[1] + im * e))
        else:
            for k, v in a.nums.items():
                e = (k >> shift) & _FIELD_MASK
                if e:
                    k -= step
                    out[k] = get(k, 0) + v * e * f
    return _reduced(n, complex_mode, den, out)
