import random
from fractions import Fraction
from itertools import combinations

import pytest

from oracles import dense_inner_product, volume_form
from premetric.errors import MetricError, StructuralError
from premetric.forms import (Chart, Form, VectorField, basis_form,
                             lie_derivative, wedge)
from premetric.hodge import MetricSpec, _det, _minors, double_hodge_sign, hodge
from premetric.randgen import random_form


def _minkowski4(orientation=1):
    ch = Chart(4, orientation=orientation)
    return ch, MetricSpec.minkowski(ch)


# -- metric construction ------------------------------------------------------


def test_metric_validation():
    ch = Chart(2)
    with pytest.raises(MetricError, match="^metric must be symmetric$"):
        MetricSpec(ch, [[1, 1], [0, 1]])      # not symmetric
    with pytest.raises(MetricError, match="^metric must be symmetric$"):
        MetricSpec(ch, [[0, 1], [0, 0]])      # checked before singular
    with pytest.raises(MetricError, match="^metric is singular$"):
        MetricSpec(ch, [[1, 1], [1, 1]])
    with pytest.raises(MetricError, match="is not the square of a rational"):
        MetricSpec.diagonal(ch, [2, 1])       # |det| = 2 has no rational root
    # a float entry is refused, not read as the binary fraction it stores
    with pytest.raises(StructuralError, match=r"^not an exact rational: 0\.25$"):
        MetricSpec(ch, [[0.25, 0], [0, -4.0]])
    with pytest.raises(StructuralError, match=r"^not an exact rational: 0\.1$"):
        MetricSpec.diagonal(ch, [0.1, -10.0])
    # text (whose digits nothing here bounds) and a bool are refused too
    for bad in ("1", "1e400000", True):
        with pytest.raises(StructuralError, match="^not an exact rational: "):
            MetricSpec.diagonal(ch, [bad, -1])
    # g is neither cut to its top-left block nor read past its edge
    with pytest.raises(MetricError, match="^metric must be 2x2 on an n=2 chart$"):
        MetricSpec(Chart(2), [[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    with pytest.raises(MetricError, match="^metric must be 3x3 on an n=3 chart$"):
        MetricSpec(Chart(3), [[1, 0], [0, -1]])
    with pytest.raises(MetricError, match="^metric must be 3x3 on an n=3 chart$"):
        MetricSpec(Chart(3), [[1, 0, 0], [0, -1], [0, 0, -1]])


def test_det_signs():
    assert MetricSpec.minkowski(Chart(4)).det == -1
    assert MetricSpec.diagonal(Chart(3), [1] * 3).det == 1
    assert MetricSpec.diagonal(Chart(3), [1, 1, -1]).det == -1
    offdiag = MetricSpec(Chart(4), [[0, 1, 0, 0],
                                    [1, 0, 0, 0],
                                    [0, 0, -1, 0],
                                    [0, 0, 0, -1]])
    assert offdiag.det == -1
    assert offdiag.det < 0
    assert offdiag.sqrt_abs_det == 1


def test_sqrt_abs_det_exact():
    assert MetricSpec.diagonal(Chart(2), [4, 9]).sqrt_abs_det == 6
    assert MetricSpec.diagonal(Chart(2), [Fraction(1, 4), 1]).sqrt_abs_det == Fraction(1, 2)
    assert MetricSpec.diagonal(Chart(2), [1, -4]).sqrt_abs_det == 2


# -- frozen duals -------------------------------------------------------------


def test_minkowski_two_form_duals():
    ch, m = _minkowski4()
    table = {
        (0, 1): [((2, 3), -1)],
        (0, 2): [((1, 3), 1)],
        (0, 3): [((1, 2), -1)],
        (1, 2): [((0, 3), 1)],
        (1, 3): [((0, 2), -1)],
        (2, 3): [((0, 1), 1)],
    }
    for src, image in table.items():
        out = hodge(m, basis_form(ch, src))
        expect = Form(ch, 2, True,
                      {idx: ch.const_poly(c) for idx, c in image})
        assert out == expect


def test_euclidean3_one_form_duals():
    ch = Chart(3)
    m = MetricSpec.diagonal(ch, [1] * ch.n)
    assert hodge(m, basis_form(ch, (0,))) == basis_form(ch, (1, 2), twist=True)
    assert hodge(m, basis_form(ch, (1,))) == basis_form(ch, (0, 2), twist=True,
                                                        coefficient=ch.const_poly(-1))
    assert hodge(m, basis_form(ch, (2,))) == basis_form(ch, (0, 1), twist=True)


def test_unit_dual_is_volume():
    ch, m = _minkowski4()
    one = Form(ch, 0, False, {(): ch.const_poly(1)})
    assert hodge(m, one) == volume_form(m)
    neg = Chart(4, orientation=-1)
    mneg = MetricSpec.minkowski(neg)
    assert hodge(mneg, Form(neg, 0, False, {(): neg.const_poly(1)})) == volume_form(mneg)
    assert hodge(mneg, Form(neg, 0, False, {(): neg.const_poly(1)})).components[(0, 1, 2, 3)] \
        == neg.const_poly(-1)


def test_double_hodge_sign_table():
    ch, m = _minkowski4()
    e = MetricSpec.diagonal(Chart(4), [1] * 4)
    assert double_hodge_sign(m, 2) == -1
    assert double_hodge_sign(m, 1) == 1
    assert double_hodge_sign(m, 0) == -1
    assert double_hodge_sign(e, 2) == 1
    assert double_hodge_sign(e, 1) == -1
    with pytest.raises(StructuralError):
        double_hodge_sign(m, 5)


# -- randomized properties ----------------------------------------------------


def _square_diagonal(rng, n):
    # diagonal entries whose absolute values are rational squares, so the
    # metric stays inside exact mode
    pool = [1, -1, 4, -4, 9, Fraction(1, 4)]
    return [pool[rng.randrange(len(pool))] for _ in range(n)]


def test_double_hodge_is_signed_identity():
    rng = random.Random(201)
    for _ in range(40):
        n = rng.randint(2, 5)
        ch = Chart(n, orientation=1 if rng.randrange(2) else -1)
        m = MetricSpec.diagonal(ch, _square_diagonal(rng, n))
        p = rng.randint(0, n)
        a = random_form(rng, ch, p, bool(rng.randrange(2)))
        twice = hodge(m, hodge(m, a))
        assert twice.twist == a.twist
        assert twice == a.scale(double_hodge_sign(m, p))


def test_inner_product_identity():
    # a ^ *b == <a, b> vol, with the inner product from the dense oracle
    rng = random.Random(202)
    for _ in range(30):
        n = rng.randint(2, 4)
        ch = Chart(n, orientation=1 if rng.randrange(2) else -1)
        m = MetricSpec.diagonal(ch, _square_diagonal(rng, n))
        p = rng.randint(0, n)
        a = random_form(rng, ch, p, False)
        b = random_form(rng, ch, p, False)
        lhs = wedge(a, hodge(m, b))
        rhs = volume_form(m).scale(dense_inner_product(m, a, b))
        assert lhs == rhs


def test_inner_product_identity_offdiagonal():
    ch = Chart(4)
    m = MetricSpec(ch, [[0, 1, 0, 0],
                        [1, 0, 0, 0],
                        [0, 0, -1, 0],
                        [0, 0, 0, -1]])
    rng = random.Random(203)
    for _ in range(10):
        p = rng.randint(1, 3)
        a = random_form(rng, ch, p, False)
        b = random_form(rng, ch, p, False)
        assert wedge(a, hodge(m, b)) == volume_form(m).scale(dense_inner_product(m, a, b))
        assert wedge(a, hodge(m, b)) == wedge(b, hodge(m, a))


def test_pairing_symmetry():
    rng = random.Random(204)
    for _ in range(30):
        n = rng.randint(2, 4)
        ch = Chart(n)
        m = MetricSpec.diagonal(ch, _square_diagonal(rng, n))
        p = rng.randint(0, n)
        a = random_form(rng, ch, p, False)
        b = random_form(rng, ch, p, False)
        assert wedge(a, hodge(m, b)) == wedge(b, hodge(m, a))


def test_hodge_is_linear():
    rng = random.Random(205)
    ch, m = _minkowski4()
    for _ in range(15):
        p = rng.randint(0, 4)
        a = random_form(rng, ch, p, False)
        b = random_form(rng, ch, p, False)
        assert hodge(m, a + b) == hodge(m, a) + hodge(m, b)
        assert hodge(m, a.scale(Fraction(3, 7))) == hodge(m, a).scale(Fraction(3, 7))


def test_hodge_commutes_with_translation_lie():
    # constant metric coefficients: L_u commutes with * for constant u
    rng = random.Random(206)
    ch, m = _minkowski4()
    for k in range(4):
        u = VectorField(ch, [ch.const_poly(2) if i == k else ch.zero_poly()
                             for i in range(4)])
        a = random_form(rng, ch, 2, False, 3)
        assert lie_derivative(u, hodge(m, a)) == hodge(m, lie_derivative(u, a))


def test_hodge_flips_twist_every_degree():
    ch, m = _minkowski4()
    for p in range(5):
        for idx in combinations(range(4), p):
            out = hodge(m, basis_form(ch, idx))
            assert out.twist is True
            assert out.degree == 4 - p


def test_orientation_reverses_dual_sign():
    plus, mplus = _minkowski4(1)
    minus, mminus = _minkowski4(-1)
    a_plus = basis_form(plus, (0, 1))
    a_minus = basis_form(minus, (0, 1))
    out_plus = hodge(mplus, a_plus)
    out_minus = hodge(mminus, a_minus)
    assert out_plus.components[(2, 3)] == -out_minus.components[(2, 3)]


# -- one metric for both scalar modes; the star table ---------------------------

OFFDIAG = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]


def test_complex_form_under_real_metric_matches_rebuilt_metric():
    rng = random.Random(211)
    for orientation in (1, -1):
        real_chart = Chart(4, orientation=orientation)
        cchart = real_chart.to_complex()
        for g in (OFFDIAG, MetricSpec.minkowski(real_chart).g):
            metric = MetricSpec(real_chart, g)
            rebuilt = MetricSpec(cchart, metric.g)
            for p in range(5):
                for _ in range(3):
                    a = random_form(rng, cchart, p, bool(rng.randrange(2)), 2)
                    dual = hodge(metric, a)
                    assert dual.chart == cchart
                    assert dual == hodge(rebuilt, a)
                    # and a real form under the complex-chart metric
                    r = random_form(rng, real_chart, p, False, 2)
                    assert hodge(rebuilt, r) == hodge(metric, r)


def test_hodge_chart_mismatch_still_raises():
    metric = MetricSpec.minkowski(Chart(4))
    for chart in (Chart(3), Chart(3, complex_mode=True),
                  Chart(4, orientation=-1), Chart(4, -1, True)):
        with pytest.raises(StructuralError):
            hodge(metric, basis_form(chart, (0, 1)))


def test_star_table_holds_the_nonzero_multipliers_once():
    # OFFDIAG and a dense A^T diag(1, -1, -1, -1) A with A unimodular: the
    # multiplier of A_I in (*A)_J is orientation * sqrt|det g| * sign(K, J)
    # * det(g^-1[K, I]), K the complement of J, with g^-1 and sqrt|det g|
    # taken from sympy
    sympy = pytest.importorskip("sympy")
    dense = [[1, 2, -1, 0], [2, 3, -3, -1], [-1, -3, -1, 1], [0, -1, 1, -6]]
    for g in (OFFDIAG, dense):
        ref = _sympy([[Fraction(x) for x in row] for row in g])
        root, ref_inv = _fraction(sympy.sqrt(abs(ref.det()))), ref.inv()
        for orientation in (1, -1):
            metric = MetricSpec(Chart(4, orientation=orientation), g)
            for p in range(5):
                table = metric.star(p)
                assert metric.star(p) is table
                tuples = list(combinations(range(4), p))
                for k_idx in tuples:
                    j_idx = tuple(i for i in range(4) if i not in k_idx)
                    sign = (-1) ** sum(1 for k in k_idx for j in j_idx if k > j)
                    row = table.get(j_idx, [])
                    multipliers = dict(row)
                    assert len(multipliers) == len(row), (g, p, j_idx)
                    for i_idx in tuples:
                        minor = _fraction(ref_inv.extract(list(k_idx), list(i_idx)).det())
                        assert multipliers.get(i_idx, 0) == \
                            orientation * root * sign * minor, (g, p, j_idx, i_idx)
                assert all(m for row in table.values() for _, m in row)


# -- exact linear algebra against sympy ------------------------------------------
# sympy (a test-only dependency) shares no arithmetic with the package.


def _rational_matrix(rng, n, singular, sparse=False):
    m = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4))
          if not sparse or rng.randrange(2) else Fraction(0) for _ in range(n)]
         for _ in range(n)]
    if singular:
        # the last row is a rational combination of the others (zero at n=1)
        k = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        m[-1] = ([k * a + b for a, b in zip(m[0], m[1 % n])] if n > 1
                 else [Fraction(0)])
    return m


def _sympy(m):
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in m])


def _fraction(x):
    return Fraction(int(x.p), int(x.q))


def test_minor_tower_matches_sympy():
    # every minor for n <= 6 (the tower keeps exactly the nonzero ones),
    # the determinant alone for n = 7, 8
    rng = random.Random(252)
    for n in range(1, 9):
        for singular, sparse in ((False, False), (False, False), (False, True),
                                 (True, False), (True, True)):
            m = _rational_matrix(rng, n, singular, sparse)
            ref = _sympy(m)
            tower = _minors(m)
            assert tower.get((tuple(range(n)),) * 2, 0) == _fraction(ref.det()), (n, m)
            if n > 6:
                continue
            expected = {}
            for k in range(n + 1):
                for rows in combinations(range(n), k):
                    for cols in combinations(range(n), k):
                        minor = _fraction(ref.extract(list(rows), list(cols)).det())
                        if minor:
                            expected[rows, cols] = minor
            assert tower == expected, (n, m)


def test_det_matches_sympy():
    # symmetric matrices, some with a zero diagonal; MetricSpec keeps det g
    # or refuses it as singular or as no rational square, naming |det g|
    rng = random.Random(253)
    for n in range(1, 9):
        for zero_diagonal in (False, False, True):
            m = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    if i == j and zero_diagonal:
                        continue
                    m[i][j] = m[j][i] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            det = _fraction(_sympy(m).det())
            assert _det(m) == det, (n, m)
            if n == 1:
                continue
            if det == 0:
                with pytest.raises(MetricError, match="^metric is singular$"):
                    MetricSpec(Chart(n), m)
                continue
            try:
                assert MetricSpec(Chart(n), m).det == det, (n, m)
            except MetricError as e:
                assert str(e).startswith(f"|det g| = {abs(det)} is not the square"), (n, m)
