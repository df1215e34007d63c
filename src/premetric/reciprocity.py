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
"""

from .electrodynamics import MaxwellLorentz
from .errors import MetricError, StructuralError
from .forms import Form, check_shape
from .hodge import double_hodge_sign, hodge
from .report import residual_check
from .scalars import nonzero_rational


class FieldPairZ:
    """(F, G) with an impedance-like pseudoscalar z; the unit of reciprocity."""

    __slots__ = ("chart", "F", "G", "z")

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

    def to_complex(self):
        if self.chart.complex_mode:
            return self
        chart = self.chart.to_complex()
        conv = lambda f: Form(chart, f.degree, f.twist,
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


def tensor(A, B):
    """{(I, J): A_I * B_J} over the nonzero components; no entry is zero, as
    polynomials over Q and Q(i) have no zero divisors."""
    return {(I, J): a * b for I, a in A.components.items()
            for J, b in B.components.items()}


def pair_tensor(pair):
    """The z-independent tensor product of the pair's component arrays."""
    return tensor(pair.F, pair.G)


def self_reciprocal_pair(pair, sign):
    """Eigenpair (F -+ izG, G +- iF/z) of the pair map, eigenvalue +-i.

    Needs Gaussian-rational (complex) scalar mode; sign is +1 or -1 and
    picks the eigenvalue +i or -i.  The two components are proportional:
    F_eig = -+ iz G_eig.
    """
    if sign not in (1, -1):
        raise StructuralError("sign must be +1 or -1")
    if not pair.chart.complex_mode:
        raise StructuralError("eigenpairs need a complex-mode chart")
    F_eig = pair.F - pair.G.scale((0, sign * pair.z), pseudo=True)
    G_eig = pair.G + pair.F.scale((0, sign / pair.z), pseudo=True)
    return FieldPairZ(F_eig, G_eig, pair.z)


def check_double_dual(metric, p):
    """Raise unless hodge(hodge(A)) = -A on p-forms, as the factorization needs."""
    if double_hodge_sign(metric, p) != -1:
        raise MetricError(f"factorization needs double-dual -1 on {p}-forms")


def check_factorization(metric, Z0, F, id_prefix=""):
    """With G = hodge(F)/Z0 and z = Z0, the pair map IS the Hodge star.

    Verifies componentwise that star_z(F, G) = (hodge F, hodge G), and that
    the induced eigenpairs are Hodge self-dual: hodge(F_eig) = +-i F_eig.
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
            starred.F - hodge(metric, F).scale(1, pseudo=True)),
        residual_check(
            id_prefix + "factor-G", "factor",
            "second slot of the pair map equals hodge(G) componentwise",
            starred.G - hodge(metric, pair.G).scale(1, pseudo=True)),
    ]
    cpair = pair.to_complex()
    for sign, name in ((1, "plus"), (-1, "minus")):
        eig = self_reciprocal_pair(cpair, sign)
        checks.append(residual_check(
            id_prefix + f"selfdual-{name}", "factor",
            f"eigen field strength is hodge self-dual with eigenvalue "
            f"{'+' if sign > 0 else '-'}i",
            eig.F.scale((0, sign)) - hodge(metric, eig.F).scale(1, pseudo=True)))
    return checks
