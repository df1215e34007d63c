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
arithmetic is integer work; like fmpq_poly's internal sums, a kernel
leaves its result's common factor in the raw slots for a read of den,
nums or the hash to divide out.  Every sum of products,
scaled polynomials and partial derivatives of either is accumulated by
term_sum from finished terms (num, d, a, b), which only the form adders
and Polynomial's own +, - and partial write; monomial_sum sums loose
monomials.  Each runs in one pass without building any partial sum.
The exponent limit is checked on the factors of each product, through
the OR of their keys that a polynomial keeps beside its raw slots, not
on the keys the product makes.
"""

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain
from math import gcd, lcm
from operator import or_
from types import MappingProxyType

from .errors import StructuralError


def _as_fraction(x) -> Fraction:
    """An int or a Fraction as a Fraction; a bool or text (whose digits only
    the config and the parser bound) is refused."""
    if isinstance(x, Fraction):
        return x
    if type(x) is int:
        return Fraction(x)
    raise StructuralError(f"not an exact rational: {x!r}")


def check_flag(name, value):
    """Raise unless the flag `name` (complex_mode, twist or pseudo) is a
    bool; 1, None or text are refused."""
    if value.__class__ is not bool:
        raise StructuralError(f"{name} must be a bool, got {value!r}")


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
# product of two monomials is the sum of their keys.  Exponents stay at or
# below MAX_EXPONENT, so the top bit of every field is clear and a sum of two
# keys never carries between fields.  A product is guarded before it is
# multiplied out: when neither factor has an exponent of 64 or more (bits 6
# and 7 of every field of the OR of its keys clear), no sum of two keys can
# leave the range; otherwise _check_guard compares the largest exponents.

FIELD_BITS = 8
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
_FIELD_MASK = (1 << FIELD_BITS) - 1


@lru_cache(maxsize=None)
def _high_mask(n):
    """Bits 6 and 7 of every one of the n fields: set in a key exactly when
    one of its exponents is 64 or more."""
    return sum(0xC0 << (FIELD_BITS * j) for j in range(n))


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


def _check_guard(ka, kb, n):
    """Raise if some key of ka plus some key of kb leaves the exponent range:
    in some field the largest exponents of the two sides sum past the limit."""
    tops = [map(max, zip(*[_unpack(k, n) for k in keys])) for keys in (ka, kb)]
    if any(x + y > MAX_EXPONENT for x, y in zip(*tops)):
        raise StructuralError(
            f"product exponent exceeds the limit {MAX_EXPONENT}")


def _key_bits(p):
    """The OR of p's raw keys, kept in _bits from the first time p is a
    product factor; the raw keys never change, so neither does it."""
    bits = p._bits
    if bits is None:
        bits = p._bits = reduce(or_, p._nums, 0)
    return bits


class Polynomial:
    """Sparse exact polynomial in n variables x0 .. x(n-1).

    The value is (1/den) * sum over ``nums`` of numerator * monomial.
    ``nums`` maps packed exponent keys (see FIELD_BITS) to nonzero integer
    numerators in real mode and to (re, im) integer pairs, not both zero,
    in complex mode.  Every (den, nums) read is canonical: den > 0 and
    gcd(den, every numerator part) == 1, so equal polynomials read equal.
    The raw slots _den, _nums may carry a factor that divides den and
    every numerator; zeros are dropped at once, and each read of den or
    nums, and each hash, divides it out into a new copy.  == compares raw
    slots without it: numerators over equal dens, else same keys and
    a_k * den_b == b_k * den_a part by part.  The raw slots never change
    after a polynomial is made (a kernel term may hold a den read from
    them before its numerators are read); only the OR of the raw keys,
    which the exponent guard reads, is filled in later, in _bits.
    Coefficients carry no pseudoscalar parity; that lives one level up,
    on forms.

    ``terms`` is a derived read-only view, exponent tuple -> Fraction (an
    (re, im) pair of Fractions in complex mode), for printing and
    inspection; arithmetic never builds it.
    """

    __slots__ = ("n", "complex_mode", "_den", "_nums", "_bits")

    def __init__(self, n, terms=None, complex_mode=False):
        """Checked constructor from {exponent tuple: coefficient}, e.g.
        {(2, 0, 1): Fraction(3, 4)} is (3/4)*x0^2*x2."""
        if n.__class__ is not int or n < 1:
            raise StructuralError(f"polynomial dimension must be an int >= 1, got {n!r}")
        check_flag("complex_mode", complex_mode)
        monomials = []
        for exps, coeff in (terms or {}).items():
            m = _multiplier(coeff, complex_mode)
            if len(exps) != n or any(e.__class__ is not int or e < 0 for e in exps):
                raise StructuralError(f"bad exponent tuple {exps} for n={n}")
            if m:
                monomials.append((*m, _pack(exps)))
        p = monomial_sum(n, complex_mode, monomials)
        self.n = n
        self.complex_mode = complex_mode
        self._den, self._nums, self._bits = p._den, p._nums, None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n, complex_mode=False):
        return cls(n, {}, complex_mode)

    @classmethod
    def constant(cls, n, value, complex_mode=False):
        return cls(n, {(0,) * n: value}, complex_mode)

    @classmethod
    def variable(cls, n, i, complex_mode=False):
        _index(i, n, "variable")
        check_flag("complex_mode", complex_mode)
        return _make(n, complex_mode, 1,
                     {1 << _shift(n, i): (1, 0) if complex_mode else 1})

    # -- views and predicates ----------------------------------------------

    den = property(lambda self: self._reduce()._den)
    nums = property(lambda self: self._reduce()._nums)

    def _reduce(self):
        """self with the gcd of den and every numerator part divided out:
        self when it is 1, else a new canonical copy.  Nothing is kept."""
        nums, mode = self._nums, self.complex_mode
        g = gcd(self._den, *(chain.from_iterable(nums.values()) if mode else nums.values()))
        if g == 1:
            return self
        return _make(self.n, mode, self._den // g,
                     {k: (r // g, i // g) for k, (r, i) in nums.items()} if mode
                     else {k: v // g for k, v in nums.items()})

    @property
    def terms(self):
        """Read-only map exponent tuple -> nonzero coefficient, read from
        the raw slots: each Fraction is reduced on its own."""
        n, den, nums = self.n, self._den, self._nums
        if self.complex_mode:
            view = {_unpack(k, n): (Fraction(r, den), Fraction(i, den))
                    for k, (r, i) in nums.items()}
        else:
            view = {_unpack(k, n): Fraction(v, den) for k, v in nums.items()}
        return MappingProxyType(view)

    def is_zero(self):
        return not self._nums

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self._nums:
            return -1
        return max(sum(_unpack(k, self.n)) for k in self._nums)

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
        return term_sum(self.n, self.complex_mode,
                        ((1, self._den, self, None), (sign, other._den, other, None)))

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __neg__(self):
        if self.complex_mode:
            nums = {k: (-r, -i) for k, (r, i) in self._nums.items()}
        else:
            nums = {k: -v for k, v in self._nums.items()}
        return _make(self.n, self.complex_mode, self._den, nums)

    def __mul__(self, other):
        self._check_compatible(other)
        den = self._den * other._den
        return _accumulate(self.n, self.complex_mode, den, ((1, den, self, other),))

    def scale(self, s):
        """Multiply by a number (see _multiplier)."""
        m = _multiplier(s, self.complex_mode)
        return _scaled(self, *m) if m else _make(self.n, self.complex_mode, 1, {})

    def partial(self, i):
        """Exact partial derivative with respect to x_i."""
        _index(i, self.n, "coordinate")
        return term_sum(self.n, self.complex_mode, ((1, self._den, self, i),))

    def to_complex(self):
        if self.complex_mode:
            return self
        return _make(self.n, True, self._den,
                     {k: (v, 0) for k, v in self._nums.items()})

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        a, b, da, db = self._nums, other._nums, self._den, other._den
        if da == db:
            return a == b
        if a.keys() != b.keys():
            return False
        if self.complex_mode:
            return all(r * db == (c := b[k])[0] * da and i * db == c[1] * da
                       for k, (r, i) in a.items())
        return all(v * db == b[k] * da for k, v in a.items())

    def __hash__(self):
        p = self._reduce()
        return hash((self.n, self.complex_mode, p._den, frozenset(p._nums.items())))

    def __repr__(self):
        if not self._nums:
            return f"Polynomial({self.n}, 0)"
        bits = []
        for exps, c in sorted(self.terms.items()):
            mono = "*".join(f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(exps) if e)
            bits.append(f"{c!r}*{mono}" if mono else repr(c))
        return f"Polynomial({self.n}, {' + '.join(bits)})"


def _make(n, complex_mode, den, nums):
    # unchecked: den > 0 and no zero entry; den and nums may share a factor
    p = object.__new__(Polynomial)
    p.n = n
    p.complex_mode = complex_mode
    p._den = den
    p._nums = nums
    p._bits = None
    return p


def _index(i, n, what):
    """Raise unless i is an int in 0 .. n-1; a bool or a float is refused."""
    if i.__class__ is not int or not 0 <= i < n:
        raise StructuralError(f"{what} index {i!r} is not an int in 0..{n - 1}")


def _multiplier(s, complex_mode):
    """The number s as an integer multiplier (num, d) with d > 0 and
    gcd(num's parts, d) == 1: s is num/d, num an int in real mode and an
    (re, im) pair in complex mode.  s is an int or a Fraction, or, in
    complex mode only, an (re, im) pair of them.  None when s is zero;
    the mode is checked first.  Plain ints are read without a Fraction."""
    if isinstance(s, tuple) and len(s) == 2:
        if not complex_mode:
            raise StructuralError("real/complex scalar mode mismatch")
        re, im = s
        if re.__class__ is int and im.__class__ is int:
            return ((re, im), 1) if re or im else None
        re, im = _as_fraction(re), _as_fraction(im)
    elif s.__class__ is int:
        return ((s, 0) if complex_mode else s, 1) if s else None
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
    """p * num/d for a nonzero multiplier from `_multiplier`, in one pass
    over p's keys, which stay within the exponent limit; p itself or -p
    for a real multiplier of +-1, and over p's den its parts swapped, one
    negated, for +-i.

    For a real or purely imaginary multiplier s/d no gcd is taken over
    the result: if p is canonical, gcd(den, content(p)) == 1, and
    gcd(s, d) == 1, so prime by prime the result's gcd is g * c with
    g = gcd(den, s) and c = gcd(d, content(p)).  Each entry is divided by
    c and multiplied by s/g, and Z and Z[i] have no zero divisors, so no
    entry becomes zero; a factor in p's raw slots stays in the result's.  A
    multiplier with both parts nonzero is multiplied out and ends in
    _reduced: a Gaussian product's content is not multiplicative.
    """
    if d == 1 and num in (1, -1, (1, 0), (-1, 0)):
        return p if num in (1, (1, 0)) else -p
    n, mode, nums, den = p.n, p.complex_mode, p._nums, p._den
    if d == 1 and num in ((0, 1), (0, -1)):
        s = num[1]
        return _make(n, True, den, {k: (-s * i, s * r) for k, (r, i) in nums.items()})
    if mode:
        sr, si = num
        if sr and si:
            return _reduced(n, True, den * d,
                            {k: (r * sr - i * si, r * si + i * sr)
                             for k, (r, i) in nums.items()})
        s = sr or si
        c = gcd(d, *chain.from_iterable(nums.values())) if d > 1 else 1
    else:
        s = num
        c = gcd(d, *nums.values()) if d > 1 else 1
    g = gcd(den, s)
    f = s // g
    if not mode:
        out = {k: v // c * f for k, v in nums.items()}
    elif si:
        out = {k: (-i // c * f, r // c * f) for k, (r, i) in nums.items()}
    else:
        out = {k: (r // c * f, i // c * f) for k, (r, i) in nums.items()}
    return _make(n, mode, den // g * (d // c), out)


def _reduced(n, complex_mode, den, nums):
    """The polynomial nums/den for den > 0 with its zero entries dropped
    and its common factor left to the reads (see Polynomial), which give
    input that cancels completely den 1.  It ends the kernels, `*` and
    scaling by a Gaussian multiplier with both parts nonzero (see _scaled).

    No key here is past the exponent limit: _accumulate guards each
    product before it multiplies, so such a product raises even where its
    terms would cancel.
    """
    zero = (0, 0) if complex_mode else 0
    if zero in nums.values():
        nums = {k: v for k, v in nums.items() if v != zero}
    return _make(n, complex_mode, den, nums)


# -- accumulation kernels ------------------------------------------------------
#
# Every sum of polynomial terms (a form component built from many products,
# partial derivatives or scaled inputs, and + and partial themselves) goes
# through term_sum as finished terms; every loose monomial goes through
# monomial_sum.


def monomial_sum(n, complex_mode, monomials):
    """Sum of num/den * x^key over a sequence of (num, den, key):
    num an int, or an (re, im) int pair in complex mode, den > 0 not
    necessarily reduced, key packed.  Accumulated over the lcm of the dens
    into one dict, like term_sum."""
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


def term_sum(n, complex_mode, terms):
    """Sum of finished terms (num, d, a, b): num/d times the raw numerators
    of a * b, a, d(a)/dx_b or d(a * c)/dx_k as b is a Polynomial, None, an
    int or a pair (c, k); num is an int and d the multiplier's den times
    the raw dens of the term's factors, a and c Polynomials in n variables
    of the given mode.  The lcm of the ds is the sum's den.  A lone term
    with multiplier 1 (num 1, d the factors' dens) and no derivative is
    the factor itself or the plain product a * b."""
    if len(terms) == 1:
        num, den, a, b = terms[0]
        if num == 1:
            if b is None:
                if den == a._den:
                    return a
            elif b.__class__ is Polynomial and den == a._den * b._den:
                return a * b
    else:
        den = lcm(*[t[1] for t in terms])
    return _accumulate(n, complex_mode, den, terms)


def _accumulate(n, complex_mode, den, terms):
    """Finished terms (num, d, a, b) summed over den into one dict, zeros
    dropped; a product folds its multiplier num * (den // d) into each row
    of its shorter factor.  Polynomial.__mul__ is one product.  Each
    product and derivative of a product is guarded on its factors'
    _key_bits before its loop, so a key ka + kb past the limit raises
    where d/dx_k would lower or drop it."""
    out = {}
    get = out.get
    high = _high_mask(n)
    for num, d, a, b in terms:
        f = num * (den // d)
        if b is None:
            if complex_mode:
                for k, (r, i) in a._nums.items():
                    cur = get(k)
                    out[k] = ((r * f, i * f) if cur is None
                              else (cur[0] + r * f, cur[1] + i * f))
            else:
                for k, v in a._nums.items():
                    out[k] = get(k, 0) + v * f
        elif b.__class__ is int:
            shift = FIELD_BITS * (n - 1 - b)  # _shift(n, b), inlined
            step = 1 << shift
            if complex_mode:
                for k, (r, i) in a._nums.items():
                    e = (k >> shift) & _FIELD_MASK
                    if e:
                        e *= f
                        k -= step
                        cur = get(k)
                        out[k] = ((r * e, i * e) if cur is None
                                  else (cur[0] + r * e, cur[1] + i * e))
            else:
                for k, v in a._nums.items():
                    e = (k >> shift) & _FIELD_MASK
                    if e:
                        k -= step
                        out[k] = get(k, 0) + v * e * f
        elif b.__class__ is tuple:  # shift is _shift(n, k), inlined
            b, step, mask = b[0], 1 << (shift := FIELD_BITS * (n - 1 - b[1])), _FIELD_MASK
            if ((a._bits or _key_bits(a)) | (b._bits or _key_bits(b))) & high:
                _check_guard(a._nums, b._nums, n)
            a, b = a._nums, b._nums
            if len(a) < len(b):
                a, b = b, a
            a = a.items()
            if complex_mode:
                for kb, (br, bi) in b.items():
                    br, bi = br * f, bi * f
                    for ka, (ar, ai) in a:
                        if e := ((k := ka + kb) >> shift) & mask:
                            k -= step
                            re, im = (ar * br - ai * bi) * e, (ar * bi + ai * br) * e
                            cur = get(k)
                            out[k] = (re, im) if cur is None else (cur[0] + re, cur[1] + im)
            else:
                for kb, vb in b.items():
                    vb *= f
                    for ka, va in a:
                        if e := ((k := ka + kb) >> shift) & mask:
                            k -= step
                            out[k] = get(k, 0) + va * vb * e
        else:
            if ((a._bits or _key_bits(a)) | (b._bits or _key_bits(b))) & high:
                _check_guard(a._nums, b._nums, n)
            a, b = a._nums, b._nums
            if len(a) < len(b):
                a, b = b, a
            a = a.items()
            if complex_mode:
                for kb, (br, bi) in b.items():
                    br, bi = br * f, bi * f
                    for ka, (ar, ai) in a:
                        k = ka + kb
                        re = ar * br - ai * bi
                        im = ar * bi + ai * br
                        cur = get(k)
                        out[k] = (re, im) if cur is None else (cur[0] + re, cur[1] + im)
            else:
                for kb, vb in b.items():
                    vb *= f
                    for ka, va in a:
                        k = ka + kb
                        out[k] = get(k, 0) + va * vb
    return _reduced(n, complex_mode, den, out)
