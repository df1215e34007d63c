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
from math import isqrt

from .errors import MetricError, StructuralError
from .forms import _built, _row_terms, _wedge_table
from .scalars import _as_fraction


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
    approximated.  Entries are exact rationals (see scalars._as_fraction);
    a float is refused, not read as a binary fraction.  No inverse is
    formed: star() reads the minors of g^-1 from the tower of nonzero
    minors of g (_minors), which its first call builds.  The metric is
    rational data, so it serves forms of either scalar mode on charts that
    differ from its own only in complex_mode.
    """

    __slots__ = ("chart", "g", "det", "sqrt_abs_det", "_tower", "_stars")

    def __init__(self, chart, g):
        n = chart.n
        if len(g) != n or any(len(row) != n for row in g):
            raise MetricError(f"metric must be {n}x{n} on an n={n} chart")
        rows = [[_as_fraction(x) for x in row] for row in g]
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
        self._stars = {}

    @classmethod
    def diagonal(cls, chart, entries):
        n = chart.n
        entries = [_as_fraction(e) for e in entries]
        if len(entries) != n:
            raise MetricError(f"need {n} diagonal entries, got {len(entries)}")
        g = [[entries[i] if i == j else Fraction(0) for j in range(n)]
             for i in range(n)]
        return cls(chart, g)

    @classmethod
    def minkowski(cls, chart):
        return cls.diagonal(chart, [1] + [-1] * (chart.n - 1))

    def star(self, p):
        """{J: [(I, m), ...]} with (*A)_J = sum m * A_I on p-forms, built on
        first use: m = orientation * sqrt|det g| * sign(K, J) *
        det(g^-1[K, I]), K the complement of J.  By Jacobi's identity
        det(g^-1[K, I]) = (-1)^(sum K + sum I) det g[I^c, J] / det g, read
        from the tower of g's minors on rows I^c and columns J."""
        stars = self._stars.get(p)
        if stars is None:
            if self._tower is None:
                self._tower = _minors(self.g)
            n = self.chart.n
            root = self.sqrt_abs_det * self.chart.orientation / self.det
            # X -> (X^c, sign(X^c, X)), the one entry of X^c's wedge-table row
            comp = {x_idx: (k_idx, sign)
                    for k_idx, row in _wedge_table(n, p, n - p).items()
                    for x_idx, (_, sign) in row.items()}
            stars = self._stars[p] = {}
            for (rows, cols), minor in self._tower.items():
                if len(rows) == n - p:
                    # sum K + sum I and sum rows + sum cols share a parity
                    sign = comp[cols][1] * (-1) ** (sum(rows) + sum(cols))
                    stars.setdefault(cols, []).append((comp[rows][0], sign * root * minor))
        return stars

    def __repr__(self):
        return f"MetricSpec(n={self.chart.n}, g={self.g})"


def double_hodge_sign(metric, p):
    """The exact scalar with hodge(hodge(A)) = sign * A on p-forms."""
    n = metric.chart.n
    if not 0 <= p <= n:
        raise StructuralError(f"degree {p} out of range for n={n}")
    return (-1 if (p * (n - p)) % 2 else 1) * (1 if metric.det > 0 else -1)


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
    return _built(chart, n - p, not a.twist, _row_terms({}, metric.star(p), a))
