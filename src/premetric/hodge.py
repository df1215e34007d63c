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

from bisect import bisect
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import isqrt

from .errors import MetricError, StructuralError
from .forms import _components, _perm_sign


def _rational_sqrt(x: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return Fraction(rn, rd)


def _det(mat):
    """det mat by exact Gaussian elimination with row swaps; 0 if singular."""
    m = [row[:] for row in mat]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        r = next((r for r in range(k, n) if m[r][k]), None)
        if r is None:
            return Fraction(0)
        if r != k:
            m[k], m[r] = m[r], m[k]
            det = -det
        pivot = m[k][k]
        det *= pivot
        for i in range(k + 1, n):
            f = m[i][k] / pivot
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return det


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


class MetricSpec:
    """Constant symmetric nondegenerate metric on a chart.

    det g and sqrt|det g| are computed exactly at construction; metrics
    whose |det g| is not a rational square are rejected rather than
    approximated.  No inverse is formed: compound() reads the minors of
    g^-1 from the tower of nonzero minors of g (_minors), which its first
    call builds.  The metric is rational data, so it serves forms of either
    scalar mode on charts that differ from its own only in complex_mode.
    """

    __slots__ = ("chart", "g", "det", "sqrt_abs_det", "_tower", "_compounds")

    def __init__(self, chart, g):
        n = chart.n
        rows = [[Fraction(g[i][j]) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                if rows[i][j] != rows[j][i]:
                    raise MetricError("metric must be symmetric")
        det = _det(rows)
        if not det:
            raise MetricError("metric is singular")
        root = _rational_sqrt(abs(det))
        if root is None:
            raise MetricError(
                f"|det g| = {abs(det)} is not the square of a rational; "
                "exact mode cannot represent this volume factor")
        self.chart = chart
        self.g = rows
        self.det = det
        self.sqrt_abs_det = root
        self._tower = None
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
        """The p-th compound matrix of g^-1, built on first use.

        Maps (K, I), both increasing p-tuples, to the nonzero minor
        det(g^-1[K, I]) = (-1)^(sum K + sum I) det g[I^c, K^c] / det g, read
        from the tower of g by Jacobi's identity.
        """
        table = self._compounds.get(p)
        if table is None:
            if self._tower is None:
                self._tower = _minors(self.g)
            n = self.chart.n
            comp = {idx: rest for idx, rest, _ in _complements(n, n - p)}
            table = {}
            for (rows, cols), minor in self._tower.items():
                if len(rows) == n - p:
                    # sum K + sum I and sum rows + sum cols share a parity
                    sign = -1 if (sum(rows) + sum(cols)) % 2 else 1
                    table[comp[cols], comp[rows]] = sign * minor / self.det
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
        # raise indices, a^K = sum_I det(g^-1[K, I]) a_I, with the volume
        # factor and the sign folded into each multiplier; each K has its
        # own complement J, so no two K share an output slot
        terms = [(sign * root * minors[k_idx, i_idx], poly, None)
                 for i_idx, poly in a.components.items()
                 if (k_idx, i_idx) in minors]
        if terms:
            groups[j_idx] = terms
    return a._raw(n - p, not a.twist, _components(chart, groups))
