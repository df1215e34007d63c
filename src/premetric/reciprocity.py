"""The pair-space complex structure (F, G) -> (zG, -F/z) and its checks.

The map acts on PAIRS of an untwisted p-form and a twisted p-form over an
n = 2p dimensional chart, never on a single form: there is no well-defined
image of one p-form alone, because the z-scaling that makes the square
equal -identity lives on the pair.  Accordingly this module exposes no
single-form operation, and the test suite demonstrates why (two pairs
sharing the same F map to different images).

z is a nonzero pseudoscalar stored per pair as a Fraction, so each pair
carries its own complex structure; orientation reversal sends z to -z and
the structure transforms along.  Every scaling by z, by 1/z or by i*z
passes pseudo=True, which is what moves a form between the two slots.
The pair tensor F (x) G keeps its two factors and is compared by the exact
rank-one test, so no comparison multiplies out every component product.
"""

from .electrodynamics import MaxwellLorentz
from .errors import MetricError, StructuralError
from .forms import _form, check_shape
from .hodge import double_hodge_sign, hodge
from .report import residual_check
from .scalars import nonzero_rational


class FieldPairZ:
    """(F, G) with an impedance-like pseudoscalar z; the unit of reciprocity.
    _images caches self_reciprocal_pair's izG and iF/z; == and repr skip it."""

    __slots__ = ("chart", "F", "G", "z", "_images")

    def __init__(self, F, G, z):
        chart, p = F.chart, F.degree
        if chart.n != 2 * p:
            raise StructuralError(f"field pairs need n = 2p, got n={chart.n}, p={p}")
        check_shape("F", F, chart, p, False)
        check_shape("G", G, chart, p, True)
        self.chart = chart
        self.F = F
        self.G = G
        self.z = nonzero_rational(z, "z")
        self._images = None

    def to_complex(self):
        if self.chart.complex_mode:
            return self
        chart = self.chart.to_complex()
        conv = lambda f: _form(chart, f.degree, f.twist,
                               {i: p.to_complex() for i, p in f.components.items()})
        return FieldPairZ(conv(self.F), conv(self.G), self.z)

    def __eq__(self, other):
        if not isinstance(other, FieldPairZ):
            return NotImplemented
        return (self.chart == other.chart and self.z == other.z
                and self.F == other.F and self.G == other.G)

    def __repr__(self):
        return f"FieldPairZ(z={self.z!r}, F={self.F!r}, G={self.G!r})"


def star_z(pair):
    """(F, G) -> (zG, -F/z); applying it twice negates the pair.

    The pseudoscalar scalings carry the twist bookkeeping: zG lands
    untwisted in the F slot and -F/z lands twisted in the G slot.
    """
    new_F = pair.G.scale(pair.z, pseudo=True)
    new_G = pair.F.scale(-1 / pair.z, pseudo=True)
    return FieldPairZ(new_F, new_G, pair.z)


class _Tensor:
    """A (x) B, the tensor {(I, J): A_I * B_J}, kept as A's and B's component
    maps and never multiplied out.  == is the rank-one test: both empty, or
    supp A = supp C, supp B = supp D, A_I B_J0 = C_I D_J0 and
    A_I0 B_J = C_I0 D_J for every I, J, with I0, J0 the first keys of A, B.
    Exact: (A_I B_J)(A_I0 B_J0) = (A_I B_J0)(A_I0 B_J) = (C_I D_J0)(C_I0 D_J)
    = (C_I D_J)(A_I0 B_J0), and A_I0 B_J0 cancels, as polynomials over Q and
    Q(i) have no zero divisors (so no entry is zero either).  That is
    2(|A| + |B| - 1) products in place of 2|A||B|."""

    def __init__(self, a, b):
        if a and b:     # raise A_I * B_J's mode or dimension error now
            next(iter(a.values()))._check_compatible(next(iter(b.values())))
        self._a, self._b = a, b

    def __eq__(self, other):
        if other.__class__ is not _Tensor:
            return NotImplemented
        a, b, c, d = self._a, self._b, other._a, other._b
        if not (a and b and c and d) or a.keys() != c.keys() or b.keys() != d.keys():
            return not (a and b or c and d)
        I0, J0 = next(iter(a)), next(iter(b))
        return (all(a[I] * b[J0] == c[I] * d[J0] for I in a)
                and all(a[I0] * b[J] == c[I0] * d[J] for J in b if J != J0))


def tensor(A, B):
    """A (x) B over the nonzero components, kept factored (see _Tensor)."""
    return _Tensor(A.components, B.components)


def pair_tensor(pair):
    """The z-independent tensor product of the pair's component arrays."""
    return tensor(pair.F, pair.G)


def self_reciprocal_pair(pair, sign):
    """Eigenpair (F -+ izG, G +- iF/z) of the pair map, eigenvalue +-i.

    Needs Gaussian-rational (complex) scalar mode; sign is the int +1 or
    -1 and picks the eigenvalue +i or -i.  The two components are
    proportional: F_eig = -+ iz G_eig.  Both signs share one pair of images.
    """
    if sign.__class__ is not int or sign not in (1, -1):
        raise StructuralError("sign must be +1 or -1")
    if not pair.chart.complex_mode:
        raise StructuralError("eigenpairs need a complex-mode chart")
    if pair._images is None:
        pair._images = (pair.G.scale((0, pair.z), pseudo=True),
                        pair.F.scale((0, 1 / pair.z), pseudo=True))
    izG, iF_z = pair._images
    if sign == 1:
        return FieldPairZ(pair.F - izG, pair.G + iF_z, pair.z)
    return FieldPairZ(pair.F + izG, pair.G - iF_z, pair.z)


def check_double_dual(metric, p):
    """Raise unless hodge(hodge(A)) = -A on p-forms, as the factorization needs."""
    if double_hodge_sign(metric, p) != -1:
        raise MetricError(f"factorization needs double-dual -1 on {p}-forms")


def check_factorization(metric, Z0, F, id_prefix=""):
    """With G = hodge(F)/Z0 and z = Z0, the pair map IS the Hodge star.

    Verifies componentwise that star_z(F, G) = (hodge F, hodge G), and that
    the induced eigenpairs are Hodge self-dual: hodge(F_eig) = +-i F_eig.
    Only the eigenpairs' field strengths F_eig = F -+ izG are read, so they
    are built from one izG, without self_reciprocal_pair's G slots.
    Needs n = 2p for F's degree p and a metric whose double dual is -1 on
    p-forms; as for hodge, F's chart may differ from the metric's in
    complex_mode, and the checks use F's.
    """
    check_double_dual(metric, F.degree)
    law = MaxwellLorentz(metric, Z0)
    pair = FieldPairZ(F, law.apply(F), law.Z)
    starred = star_z(pair)

    checks = [
        residual_check(
            id_prefix + "factor-F", "factor",
            "first slot of the pair map equals hodge(F) componentwise",
            (starred.F, hodge(metric, F).scale(1, pseudo=True))),
        residual_check(
            id_prefix + "factor-G", "factor",
            "second slot of the pair map equals hodge(G) componentwise",
            (starred.G, hodge(metric, pair.G).scale(1, pseudo=True))),
    ]
    cpair = pair.to_complex()
    izG = cpair.G.scale((0, cpair.z), pseudo=True)
    for sign, name, eig_F in ((1, "plus", cpair.F - izG), (-1, "minus", cpair.F + izG)):
        checks.append(residual_check(
            id_prefix + f"selfdual-{name}", "factor",
            f"eigen field strength is hodge self-dual with eigenvalue "
            f"{'+' if sign > 0 else '-'}i",
            (eig_F.scale((0, sign)), hodge(metric, eig_F).scale(1, pseudo=True))))
    return checks
