"""Form operations against an oracle that shares no arithmetic with them.

wedge, ext_d, contract and hodge run on seeded forms for n = 2..6, every
degree, real and complex mode.  The reference recomputes every component
in `sympy.polys.rings` over QQ / QQ_I, with permutation signs from
`sympy.combinatorics.Permutation` parity and the minors of the inverse
metric from sympy `Matrix.det()`; the package's results are read from
their raw (den, nums) storage (see test_coefficient_oracle) and must also
be in canonical form.  sympy is a test-only dependency.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest

sympy = pytest.importorskip("sympy")
from sympy.combinatorics import Permutation  # noqa: E402

from premetric.forms import Chart, VectorField, contract, ext_d, wedge  # noqa: E402
from premetric.hodge import MetricSpec, hodge  # noqa: E402
from premetric.randgen import random_form, random_polynomial  # noqa: E402
from test_coefficient_oracle import assert_canonical, sympy_ring, to_sympy  # noqa: E402

CASES = [(n, complex_mode) for n in range(2, 7) for complex_mode in (False, True)]
CASE_IDS = [f"n{n}-{'complex' if c else 'real'}" for n, c in CASES]


def sorted_with_sign(seq):
    """(sorted tuple, parity of seq as a permutation); sign 0 on repeats."""
    if len(set(seq)) != len(seq):
        return None, 0
    order = sorted(seq)
    return tuple(order), Permutation([order.index(x) for x in seq]).signature()


def package_components(form):
    """index tuple -> oracle element, every component canonical."""
    out = {}
    for idx, poly in form.components.items():
        assert_canonical(poly)
        assert poly.nums
        out[idx] = to_sympy(poly)
    return out


def nonzero(components):
    return {idx: e for idx, e in components.items() if e}


def add_to(out, idx, value):
    out[idx] = out[idx] + value if idx in out else value


def oracle_wedge(a, b):
    out = {}
    for ia, ea in a.items():
        for ib, eb in b.items():
            merged, sign = sorted_with_sign(ia + ib)
            if sign:
                add_to(out, merged, ea * eb * sign)
    return nonzero(out)


def oracle_ext_d(R, n, a):
    out = {}
    for idx, e in a.items():
        for k in range(n):
            merged, sign = sorted_with_sign((k,) + idx)
            if sign:
                add_to(out, merged, e.diff(R.gens[k]) * sign)
    return nonzero(out)


def oracle_contract(u, a):
    out = {}
    for idx, e in a.items():
        for j, i in enumerate(idx):
            rest = idx[:j] + idx[j + 1:]
            _, sign = sorted_with_sign((i,) + rest)
            add_to(out, rest, u[i] * e * sign)
    return nonzero(out)


@lru_cache(maxsize=None)
def inverse_minors(g, p):
    """(K, I) -> det(g_inv[K, I]) over increasing p-tuples, for an
    immutable sympy metric g."""
    g_inv = g.inv()
    tuples = list(combinations(range(g.rows), p))
    return {(k_idx, i_idx): g_inv.extract(list(k_idx), list(i_idx)).det()
            for k_idx in tuples for i_idx in tuples}


def oracle_hodge(R, g, orientation, a, p):
    """(*A)_J = orientation sqrt|det g| sum_K sign(K, J) det(g_inv[K, I]) A_I."""
    n = g.rows
    minors = inverse_minors(g, p)
    root = sympy.sqrt(abs(g.det()))
    assert root.is_Rational
    out = {}
    for k_idx in combinations(range(n), p):
        j_idx = tuple(i for i in range(n) if i not in k_idx)
        _, sign = sorted_with_sign(k_idx + j_idx)
        for i_idx, e in a.items():
            factor = orientation * root * sign * minors[k_idx, i_idx]
            if factor:
                add_to(out, j_idx, e * R.domain.from_sympy(factor))
    return nonzero(out)


def metrics(n, rng):
    """Minkowski, Euclidean and a non-diagonal g = A^T D A with A
    unimodular and |det D| a rational square, as sympy matrices."""
    mink = sympy.diag(1, *([-1] * (n - 1)))
    a = sympy.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            a[i, j] = rng.randint(-2, 2)
    d = sympy.diag(sympy.Rational(1, 4), -1, *([1] * (n - 3)), 9) if n > 2 else sympy.diag(4, -1)
    return [sympy.ImmutableMatrix(g) for g in (mink, sympy.eye(n), a.T * d * a)]


def random_field(rng, chart):
    return VectorField(chart, [random_polynomial(rng, chart.n, 2, chart.complex_mode)
                               for _ in range(chart.n)])


@pytest.mark.parametrize("n,complex_mode", CASES, ids=CASE_IDS)
def test_wedge_ext_d_contract_match_the_oracle(n, complex_mode):
    chart = Chart(n, complex_mode=complex_mode)
    R = sympy_ring(n, complex_mode)
    rng = random.Random(5000 + 10 * n + complex_mode)
    u = random_field(rng, chart)
    u_oracle = [to_sympy(c) for c in u.components]
    forms = [random_form(rng, chart, p, bool(p % 2)) for p in range(n + 1)]
    for p, a in enumerate(forms):
        ea = package_components(a)
        d = ext_d(a)
        assert (d.degree, d.twist) == (p + 1, a.twist)
        assert package_components(d) == oracle_ext_d(R, n, ea), p
        c = contract(u, a)
        assert (c.degree, c.twist) == (max(p - 1, 0), a.twist)
        assert package_components(c) == oracle_contract(u_oracle, ea), p
        for q, b in enumerate(forms):
            w = wedge(a, b)
            assert (w.degree, w.twist) == (p + q, a.twist != b.twist)
            assert package_components(w) == oracle_wedge(ea, package_components(b)), (p, q)


@pytest.mark.parametrize("n,complex_mode", CASES, ids=CASE_IDS)
def test_hodge_matches_the_oracle(n, complex_mode):
    R = sympy_ring(n, complex_mode)
    rng = random.Random(6000 + 10 * n + complex_mode)
    # one orientation per metric: the non-diagonal metric's minors are
    # the slow part on both sides
    for g, orientation in zip(metrics(n, rng), (-1, 1, -1)):
        chart = Chart(n, orientation, complex_mode)
        metric = MetricSpec(chart, [[Fraction(str(x)) for x in g.row(i)]
                                    for i in range(n)])
        for p in range(n + 1):
            a = random_form(rng, chart, p, False)
            star = hodge(metric, a)
            assert (star.degree, star.twist) == (n - p, True)
            assert (package_components(star)
                    == oracle_hodge(R, g, orientation, package_components(a), p)), (g, p)
