"""Constant pseudo-Riemannian metrics and the induced Hodge star.

Everything stays in exact rational arithmetic, which restricts the metrics
to those whose |det g| is the square of a rational (all diagonal +-1
metrics qualify).  The star convention used throughout the repo:

    (*A)_J = orientation * sqrt|det g| * sum_K sign(K, J) * A^K

where K runs over increasing p-tuples, J is the complement of K, sign(K, J)
is the parity of the concatenated permutation of 0..n-1, and A^K raises
indices with the p-fold minors of the inverse metric.  Equivalently,
a ^ *b = <a, b> vol with vol = orientation * sqrt|det g| * dx0^...^dx(n-1);
that defining identity is what the oracle tests check.  The star flips the
twist parity: the volume element it carries is an odd object.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import isqrt

from .errors import MetricError, StructuralError
from .forms import _components, _det_inverse, _perm_sign
from .scalars import poly_sum


def _rational_sqrt(x: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return Fraction(rn, rd)


def _signature(mat):
    """(plus, minus) counts via exact congruence diagonalization.

    Sylvester's law: row and matching column operations preserve the
    signature, so counting pivot signs after symmetric elimination gives
    the inertia without eigenvalues.
    """
    n = len(mat)
    m = [row[:] for row in mat]
    plus = minus = 0
    for k in range(n):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][r] != 0), None)
            if swap is not None:
                m[k], m[swap] = m[swap], m[k]
                for row in m:
                    row[k], row[swap] = row[swap], row[k]
            else:
                # all remaining diagonal entries vanish: fold a nonzero
                # off-diagonal onto the diagonal (row j and column j added
                # to row/column k give 2*m[k][j] there)
                j = next((j for j in range(k + 1, n) if m[k][j] != 0), None)
                if j is None:
                    raise MetricError("metric is singular")
                for col in range(n):
                    m[k][col] += m[j][col]
                for row in m:
                    row[k] += row[j]
        pivot = m[k][k]
        if pivot > 0:
            plus += 1
        else:
            minus += 1
        for r in range(k + 1, n):
            f = m[r][k] / pivot
            if f != 0:
                for col in range(n):
                    m[r][col] -= f * m[k][col]
                for row in range(n):
                    m[row][r] -= f * m[row][k]
    return plus, minus


class MetricSpec:
    """Constant symmetric nondegenerate metric on a chart.

    Derived data (inverse, sqrt|det|, signature) is computed exactly at
    construction; metrics whose |det g| is not a rational square are
    rejected rather than approximated.  The metric is rational data, so it
    serves forms of either scalar mode on charts that differ from its own
    only in complex_mode.
    """

    __slots__ = ("chart", "g", "g_inv", "det", "sqrt_abs_det", "signature",
                 "_compounds")

    def __init__(self, chart, g):
        n = chart.n
        rows = [[Fraction(g[i][j]) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                if rows[i][j] != rows[j][i]:
                    raise MetricError("metric must be symmetric")
        det, g_inv = _det_inverse(rows)
        if det == 0:
            raise MetricError("metric is singular")
        root = _rational_sqrt(abs(det))
        if root is None:
            raise MetricError(
                f"|det g| = {abs(det)} is not the square of a rational; "
                "exact mode cannot represent this volume factor")
        self.chart = chart
        self.g = rows
        self.det = det
        self.g_inv = g_inv
        self.sqrt_abs_det = root
        self.signature = _signature(rows)
        self._compounds = {}

    @classmethod
    def diagonal(cls, chart, entries):
        n = chart.n
        entries = [Fraction(e) for e in entries]
        if len(entries) != n:
            raise MetricError(f"need {n} diagonal entries, got {len(entries)}")
        g = [[entries[i] if i == j else Fraction(0) for j in range(n)]
             for i in range(n)]
        return cls(chart, g)

    @classmethod
    def minkowski(cls, chart):
        return cls.diagonal(chart, [1] + [-1] * (chart.n - 1))

    @classmethod
    def euclidean(cls, chart):
        return cls.diagonal(chart, [1] * chart.n)

    def sign_det(self):
        return 1 if self.det > 0 else -1

    def compound(self, p):
        """The p-th compound matrix of g_inv, built on first use.

        Maps (K, I), both increasing p-tuples, to the minor
        det(g_inv[K, I]); zero minors are left out.
        """
        table = self._compounds.get(p)
        if table is None:
            table = {}
            tuples = list(combinations(range(self.chart.n), p))
            for k_idx in tuples:
                for i_idx in tuples:
                    minor = _det_inverse([[self.g_inv[r][c] for c in i_idx]
                                          for r in k_idx])[0]
                    if minor != 0:
                        table[k_idx, i_idx] = minor
            self._compounds[p] = table
        return table

    def __repr__(self):
        return f"MetricSpec(n={self.chart.n}, g={self.g})"


def double_hodge_sign(metric, p):
    """The exact scalar with hodge(hodge(A)) = sign * A on p-forms."""
    n = metric.chart.n
    if not 0 <= p <= n:
        raise StructuralError(f"degree {p} out of range for n={n}")
    return (-1 if (p * (n - p)) % 2 else 1) * metric.sign_det()


@lru_cache(maxsize=None)
def _complements(n, p):
    """((K, J, sign(K, J)), ...) over increasing p-tuples K, J the
    complement of K."""
    out = []
    for k_idx in combinations(range(n), p):
        j_idx = tuple(i for i in range(n) if i not in k_idx)
        out.append((k_idx, j_idx, _perm_sign(k_idx + j_idx)))
    return tuple(out)


def hodge(metric, a):
    """Hodge dual; degree p -> n-p, twist parity flipped.

    The form's chart may differ from the metric's in complex_mode only;
    the dual lives on the form's chart.
    """
    chart = a.chart
    if (chart.n, chart.orientation) != (metric.chart.n, metric.chart.orientation):
        raise StructuralError("chart mismatch")
    n, p = chart.n, a.degree
    if p > n:
        raise StructuralError(f"cannot take the dual of a degree-{p} form on an n={n} chart")
    minors = metric.compound(p)
    root = metric.sqrt_abs_det * chart.orientation
    groups = {}
    for k_idx, j_idx, sign in _complements(n, p):
        # raise indices, a^K = sum_I det(g_inv[K, I]) a_I, with the volume
        # factor and the sign folded into each multiplier; each K has its
        # own complement J, so no two K share an output slot
        terms = [(sign * root * minors[k_idx, i_idx], poly, None)
                 for i_idx, poly in a.components.items()
                 if (k_idx, i_idx) in minors]
        if terms:
            groups[j_idx] = terms
    return a._raw(n - p, not a.twist, _components(chart, groups, poly_sum))
