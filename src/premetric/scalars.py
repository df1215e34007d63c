"""Exact scalars and sparse multivariate polynomials.

All arithmetic is over exact rationals or Gaussian rationals (re + im*i
with rational parts), so equality is decidable and every identity in the
test suites is checked with zero tolerance.

A number is an int or a `fractions.Fraction`, or, in complex mode, an
(re, im) pair of them; law parameters and scale factors are plain
numbers, and pseudoscalar parity is tracked on forms.  `Polynomial` keeps
its coefficients as integer numerators over one shared denominator (the
content/primitive split of FLINT's fmpq_poly) and keys its monomials by
packed exponent integers (Monagan & Pearce, CASC 2007), so polynomial
arithmetic is integer work plus one gcd normalisation per result.  A sum
of many products, scaled polynomials and partial derivatives (one
component of a wedge, a derivative or a Hodge dual) is accumulated by
poly_sum, and one given as loose monomials by monomial_sum, in one pass
without building any partial sum.
"""

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


def nonzero_rational(value, name):
    """value as a nonzero Fraction; name labels the error."""
    value = _as_fraction(value)
    if not value:
        raise StructuralError(f"{name} must be nonzero")
    return value


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
    Coefficients carry no pseudoscalar parity; that lives one level up,
    on forms.

    ``terms`` is a derived read-only view, exponent tuple -> Fraction (an
    (re, im) pair of Fractions in complex mode), for printing and
    inspection; arithmetic never builds it.
    """

    __slots__ = ("n", "complex_mode", "den", "nums")

    def __init__(self, n, terms=None, complex_mode=False):
        """Checked constructor from {exponent tuple: coefficient}, e.g.
        {(2, 0, 1): Fraction(3, 4)} is (3/4)*x0^2*x2."""
        if n < 1:
            raise StructuralError(f"polynomial dimension must be >= 1, got {n}")
        complex_mode = bool(complex_mode)
        monomials = []
        for exps, coeff in (terms or {}).items():
            m = _multiplier(coeff, complex_mode)
            if len(exps) != n or any(not isinstance(e, int) or e < 0 for e in exps):
                raise StructuralError(f"bad exponent tuple {exps} for n={n}")
            if m:
                monomials.append((*m, _pack(exps)))
        p = monomial_sum(n, complex_mode, monomials)
        self.n = n
        self.complex_mode = complex_mode
        self.den = p.den
        self.nums = p.nums

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
        """Read-only map exponent tuple -> nonzero coefficient."""
        n, den = self.n, self.den
        if self.complex_mode:
            view = {_unpack(k, n): (Fraction(r, den), Fraction(i, den))
                    for k, (r, i) in self.nums.items()}
        else:
            view = {_unpack(k, n): Fraction(v, den)
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
        _check_guard(out, self.n)
        return _reduced(self.n, self.complex_mode, self.den * other.den, out)

    def scale(self, s):
        """Multiply by a number (see _multiplier)."""
        m = _multiplier(s, self.complex_mode)
        return _scaled(self, *m) if m else _make(self.n, self.complex_mode, 1, {})

    def partial(self, i):
        """Exact partial derivative with respect to x_i."""
        if not 0 <= i < self.n:
            raise StructuralError(f"coordinate index {i} out of range for n={self.n}")
        return poly_sum(self.n, self.complex_mode, ((1, self, i),))

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
    """The number s as an integer multiplier (num, d) with d > 0: s is
    num/d, num an int in real mode and an (re, im) pair in complex mode.
    s is an int, a Fraction or a rational string, or, in complex mode
    only, an (re, im) pair of them.  None when s is zero; the mode is
    checked first."""
    if isinstance(s, tuple) and len(s) == 2:
        if not complex_mode:
            raise StructuralError("real/complex scalar mode mismatch")
        re, im = _as_fraction(s[0]), _as_fraction(s[1])
    else:
        re, im = _as_fraction(s), 0
    if not (re or im):
        return None
    if not complex_mode:
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

    Only products make keys past the exponent limit; the callers that
    multiply run the guard first, so such a key raises even if it cancelled.
    """
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
# products, partial derivatives or scaled inputs) goes through poly_sum, as
# do + and partial themselves; every loose monomial goes through
# monomial_sum.


def monomial_sum(n, complex_mode, monomials):
    """Canonical sum of num/den * x^key over a sequence of (num, den, key):
    num an int, or an (re, im) int pair in complex mode, den > 0 not
    necessarily reduced, key packed.  Accumulated over the lcm of the dens
    into one dict and normalised once, like poly_sum."""
    den = lcm(*(d for _, d, _ in monomials))
    out = {}
    get = out.get
    if complex_mode:
        for (r, i), d, k in monomials:
            f = den // d
            cur = get(k)
            out[k] = ((r * f, i * f) if cur is None
                      else (cur[0] + r * f, cur[1] + i * f))
    else:
        for v, d, k in monomials:
            out[k] = get(k, 0) + v * (den // d)
    return _reduced(n, complex_mode, den, out)


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
    """Canonical sum over terms (m, a, b) of m * a * b when b is a
    Polynomial, m * a when b is None and m * (d a / d x_b) when b is an int.

    m is an int or Fraction, a and b Polynomials in n variables of the
    given mode (the caller has checked that).  One pass drops the zero
    terms and builds the lcm of the term denominators; a second
    accumulates every term over it into one dict, which is normalised
    once.  Only a sum with a product runs the exponent guard.  A lone term
    with m = 1 and no derivative is the factor or the plain product.
    """
    kept = []
    den = 1
    product = False
    for m, a, b in terms:
        if not (m and a.nums):
            continue
        d = m.denominator * a.den
        if b.__class__ is Polynomial:
            if not b.nums:
                continue
            d *= b.den
            product = True
        if den % d:
            den = lcm(den, d)
        kept.append((m, a, b, d))
    if len(kept) == 1:
        m, a, b, _ = kept[0]
        if m == 1 and b.__class__ is not int:
            return a if b is None else a * b
    out = {}
    get = out.get
    for m, a, b, d in kept:
        f = m.numerator * (den // d)
        if b is None:
            if complex_mode:
                for k, (r, i) in a.nums.items():
                    cur = get(k)
                    out[k] = ((r * f, i * f) if cur is None
                              else (cur[0] + r * f, cur[1] + i * f))
            else:
                for k, v in a.nums.items():
                    out[k] = get(k, 0) + v * f
        elif b.__class__ is int:
            shift = _shift(n, b)
            step = 1 << shift
            if complex_mode:
                for k, (r, i) in a.nums.items():
                    e = (k >> shift) & _FIELD_MASK
                    if e:
                        e *= f
                        k -= step
                        cur = get(k)
                        out[k] = ((r * e, i * e) if cur is None
                                  else (cur[0] + r * e, cur[1] + i * e))
            else:
                for k, v in a.nums.items():
                    e = (k >> shift) & _FIELD_MASK
                    if e:
                        k -= step
                        out[k] = get(k, 0) + v * e * f
        else:
            _add_product(out, f, a.nums, b.nums, complex_mode)
    if product:
        _check_guard(out, n)
    return _reduced(n, complex_mode, den, out)
