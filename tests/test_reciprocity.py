import random
from fractions import Fraction
from itertools import combinations

import pytest

from premetric.electrodynamics import FieldConfig, MaxwellLorentz, densities
from premetric.errors import MetricError, StructuralError
from oracles import dense_tensor, pullback_linear
from premetric.forms import Chart, Form, basis_form
from premetric.hodge import MetricSpec, hodge
from premetric.randgen import random_form, random_polynomial, random_vector_field
from premetric.reciprocity import (
    FieldPairZ,
    check_factorization,
    pair_tensor,
    self_reciprocal_pair,
    star_z,
    tensor,
)
from premetric.scalars import Polynomial
from test_kernels import forms, polys

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

CH4 = Chart(4)
MINK = MetricSpec.minkowski(CH4)

Z_VALUES = (1, 2, -3, Fraction(1, 5))


def _pair(rng, z=1, chart=CH4, bound=2):
    p = chart.n // 2
    return FieldPairZ(random_form(rng, chart, p, False, bound),
                      random_form(rng, chart, p, True, bound), z)


# -- the pair map ---------------------------------------------------------------


def test_star_z_example():
    p = FieldPairZ(basis_form(CH4, (0, 1)), basis_form(CH4, (2, 3), twist=True), 2)
    s = star_z(p)
    assert s.F == basis_form(CH4, (2, 3)).scale(2)
    assert s.G == basis_form(CH4, (0, 1), twist=True).scale(Fraction(-1, 2))
    assert not s.F.twist and s.G.twist


def test_star_z_on_zero_pair():
    p = FieldPairZ(Form.zero(CH4, 2), Form.zero(CH4, 2, True), 1)
    s = star_z(p)
    assert s.F.is_zero() and s.G.is_zero()


def test_star_z_squares_to_minus_identity():
    rng = random.Random(401)
    for z in Z_VALUES:
        for _ in range(8):
            p = _pair(rng, z)
            ss = star_z(star_z(p))
            assert ss.F == -p.F and ss.G == -p.G
            assert ss.z == p.z
    for n in (2, 4, 6, 8):
        for z in (Fraction(3, 7), -2):
            p = _pair(rng, z, Chart(n), bound=1)
            ss = star_z(star_z(p))
            assert ss.F == -p.F and ss.G == -p.G, n


def test_pair_validation():
    F = basis_form(CH4, (0, 1))
    G = basis_form(CH4, (2, 3), twist=True)
    with pytest.raises(StructuralError):
        FieldPairZ(F, G, 0)
    with pytest.raises(StructuralError):
        FieldPairZ(F, G, 2.0)                # z is exact
    with pytest.raises(StructuralError):
        FieldPairZ(F, G, (0, 2))             # and rational
    for bad in ("2", "1e400000", True):      # a number, not text or a bool
        with pytest.raises(StructuralError, match="^not an exact rational: "):
            FieldPairZ(F, G, bad)
    with pytest.raises(StructuralError):
        FieldPairZ(G, F, 1)                  # twists swapped
    with pytest.raises(StructuralError):
        FieldPairZ(basis_form(Chart(3), (0, 1)),
                   basis_form(Chart(3), (2,), twist=True), 1)
    with pytest.raises(StructuralError, match="^field pairs need n = 2p, got n=6, p=2$"):
        FieldPairZ(basis_form(Chart(6), (0, 1)),
                   basis_form(Chart(6), (2, 3), twist=True), 1)


# -- every n = 2p -----------------------------------------------------------------


def test_densities_pick_up_the_sign_of_p():
    # star_z multiplies Sigma_u, f_u and phi_u by (-1)^p; only samples whose
    # three densities are nonzero count, so neither sign holds vacuously
    rng = random.Random(412)
    for n in (2, 4, 6):
        chart = Chart(n)
        sign = (-1) ** (n // 2)
        tested = 0
        while tested < 2:
            pair = _pair(rng, Fraction(3, 7), chart)
            u = random_vector_field(rng, chart)
            before = densities(u, FieldConfig(pair.F, pair.G))
            if any(b.is_zero() for b in before):
                continue
            tested += 1
            st = star_z(pair)
            after = densities(u, FieldConfig(st.F, st.G))
            for a, b in zip(after, before):
                assert a == b.scale(sign), n
                assert (a - b).is_zero() == (sign == 1), n


@pytest.mark.parametrize("n, mode", [(2, "real"), (4, "complex")])
def test_densities_row_keeps_its_witness(n, mode, monkeypatch):
    # the row sums after - (-1)^p before into one term_sum per component of
    # each density; under a wrong star_z it must FAIL with the witness of
    # after.X - (-1)^p before.X for the first density X that differs, the
    # witness it gave when after and before were built and compared
    from premetric import suites
    from premetric.config import RunConfig
    from premetric.report import nonzero_witness

    def wrong(pair):   # twice the right map's F slot
        return FieldPairZ(pair.G.scale(2 * pair.z, pseudo=True),
                          pair.F.scale(-1 / pair.z, pseudo=True), pair.z)

    seen, fused = [], suites.densities

    def recorded(u, cfg, before=None, c=1):
        seen.append((u, cfg, before, c))
        return fused(u, cfg, before, c)

    monkeypatch.setattr(suites, "star_z", wrong)
    monkeypatch.setattr(suites, "densities", recorded)
    cfg = RunConfig(n=n, p=n // 2, mode=mode, seed=5, samples=6)
    rows = [r for r in suites.reciprocity_suite(cfg) if r.check_id.endswith("-densities")]
    assert len(rows) == len(seen) == 6
    failed = 0
    for row, (u, starred, unstarred, c) in zip(rows, seen):
        assert c == (-1) ** (n // 2)
        after, before = densities(u, starred), densities(u, unstarred)
        diffs = [a - b.scale(c) for a, b in zip(after, before)]
        assert list(fused(u, starred, unstarred, c)) == diffs
        # a zero u (or field) leaves every density zero, and the row passes
        first = next((d for d in diffs if not d.is_zero()), None)
        assert row.passed is (first is None)
        assert row.witness == ("" if first is None else nonzero_witness(first))
        failed += first is not None
    assert failed >= 3


def test_density_difference_needs_one_chart():
    rng = random.Random(414)
    pair = _pair(rng)
    cfg = FieldConfig(pair.F, pair.G)
    other = pair.to_complex()
    with pytest.raises(StructuralError, match="chart mismatch"):
        densities(random_vector_field(rng, CH4), cfg, FieldConfig(other.F, other.G))


def test_factorization_at_every_n():
    rng = random.Random(413)
    for n, metric in ((2, MetricSpec.diagonal(Chart(2), [1, 1])),
                      (6, MetricSpec.diagonal(Chart(6), [1] * 6)),
                      (8, MetricSpec.minkowski(Chart(8)))):
        checks = check_factorization(metric, Fraction(2, 5),
                                     random_form(rng, metric.chart, n // 2, False, 1))
        assert len(checks) == 4 and all(c.passed for c in checks), n
    with pytest.raises(MetricError, match="^factorization needs double-dual -1 on 3-forms$"):
        check_factorization(MetricSpec.minkowski(Chart(6)), 1,
                            basis_form(Chart(6), (0, 1, 2)))


# -- tensor invariants ------------------------------------------------------------


def test_pair_tensor_rescaling_invariance():
    rng = random.Random(402)
    for k_val in (3, Fraction(2, 7), -5):
        p = _pair(rng)
        q = FieldPairZ(p.F.scale(k_val), p.G.scale(1 / Fraction(k_val)), p.z)
        assert pair_tensor(q) == pair_tensor(p)


def test_pair_tensor_of_star_is_minus_swapped():
    rng = random.Random(403)
    for z in Z_VALUES:
        p = _pair(rng, z)
        assert pair_tensor(star_z(p)) == tensor(-p.G, p.F)


def test_pair_tensor_zero():
    p = FieldPairZ(Form.zero(CH4, 2), Form.zero(CH4, 2, True), 1)
    assert dense_tensor(p.F, p.G) == {}
    # an empty factor on either side gives the one empty tensor
    assert pair_tensor(p) == tensor(basis_form(CH4, (0, 1)), p.G)
    assert pair_tensor(p) == tensor(p.F, basis_form(CH4, (2, 3), True))


def _inverse(k):
    """1/k for an int, a Fraction or a Gaussian (re, im) pair."""
    if isinstance(k, tuple):
        norm = Fraction(k[0] ** 2 + k[1] ** 2)
        return (k[0] / norm, -k[1] / norm)
    return 1 / Fraction(k)


def _multipliers(chart):
    units = st.one_of(st.integers(-9, 9).filter(bool),
                      st.fractions(-9, 9, max_denominator=7).filter(bool))
    if not chart.complex_mode:
        return units
    return st.one_of(units, st.tuples(units, units))


def _with(form, idx, poly):
    """form with component idx replaced by poly (dropped when poly is zero)."""
    return Form(form.chart, form.degree, form.twist, {**form.components, idx: poly})


def _nonzero_polys(chart):
    return polys(chart.n, chart.complex_mode).filter(lambda h: not h.is_zero())


def _relate(data, chart, A, B):
    """Factors (A', B'), (C, D) whose tensors are equal by construction
    (True), differ by construction (False) or are unrelated (None)."""
    p, q = A.degree, B.degree
    kind = data.draw(st.sampled_from(
        ("fresh", "copy", "scaled", "poly", "empty", "support-A", "support-B")))
    if kind == "fresh":
        return (A, B), (data.draw(forms(chart, p, False)),
                        data.draw(forms(chart, q, True))), None
    if kind == "copy":
        return (A, B), (Form(chart, p, False, dict(A.components)),
                        Form(chart, q, True, dict(B.components))), True
    if kind == "scaled":        # (kA, B/k)
        k = data.draw(_multipliers(chart))
        return (A, B), (A.scale(k), B.scale(_inverse(k))), True
    if kind == "poly":          # (hA, B) and (A, hB)
        h = data.draw(_nonzero_polys(chart))
        return (A.scale(h), B), (A, B.scale(h)), True
    if kind == "empty":         # an empty factor on either side
        zA, zB = Form.zero(chart, p), Form.zero(chart, q, True)
        return (zA, B), data.draw(st.sampled_from(((A, zB), (zA, B), (zA, zB)))), True
    # supports that differ by one component of one factor
    X = A if kind == "support-A" else B
    idx = data.draw(st.sampled_from(list(combinations(range(chart.n), X.degree))))
    if idx in X.components:
        Y = Form(chart, X.degree, X.twist,
                 {i: c for i, c in X.components.items() if i != idx})
    else:
        Y = _with(X, idx, data.draw(_nonzero_polys(chart)))
    other = B if X is A else A
    right = (Y, B) if X is A else (A, Y)
    return (A, B), right, False if other.components else True


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_tensor_equality_agrees_with_the_dense_tensor(data):
    # == is the rank-one test; the oracle multiplies every entry out
    chart = Chart(data.draw(st.sampled_from((2, 4, 6))),
                  complex_mode=data.draw(st.booleans()))
    p, q = data.draw(st.integers(0, chart.n)), data.draw(st.integers(0, chart.n))
    A, B = data.draw(forms(chart, p, False)), data.draw(forms(chart, q, True))
    (A, B), (C, D), expected = _relate(data, chart, A, B)
    left, right = tensor(A, B), tensor(C, D)
    for t, (X, Y) in ((left, (A, B)), (right, (C, D))):
        # a tensor is compared with tensors only, never with a mapping
        assert t.__eq__(dense_tensor(X, Y)) is NotImplemented and t != dense_tensor(X, Y)
    equal = dense_tensor(A, B) == dense_tensor(C, D)
    if expected is not None:
        assert equal == expected
    assert (left == right) == (right == left) == equal
    assert (left != right) == (not equal)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tensor_perturbed_in_any_component_is_unequal(data):
    # (kA, B/k) has A (x) B's tensor with other factors, so the anchor rows
    # of the rank-one test do not compare a component with itself
    chart = Chart(data.draw(st.sampled_from((2, 4, 6))),
                  complex_mode=data.draw(st.booleans()))
    p, q = data.draw(st.integers(0, chart.n)), data.draw(st.integers(0, chart.n))
    nonempty = lambda f: bool(f.components)
    A = data.draw(forms(chart, p, False).filter(nonempty))
    B = data.draw(forms(chart, q, True).filter(nonempty))
    k = data.draw(_multipliers(chart))
    C, D = A.scale(k), B.scale(_inverse(k))
    assert tensor(A, B) == tensor(C, D)
    key = data.draw(st.tuples(*[st.integers(0, 3)] * chart.n))
    coeff = data.draw(_multipliers(chart))
    delta = Polynomial(chart.n, {key: coeff}, chart.complex_mode)
    for slot, X in ((0, C), (1, D)):
        for idx, poly in X.components.items():
            Y = _with(X, idx, poly + delta)
            pert = (Y, D) if slot == 0 else (C, Y)
            assert dense_tensor(A, B) != dense_tensor(*pert)
            assert tensor(A, B) != tensor(*pert) and tensor(*pert) != tensor(A, B)


def _full(chart, p, twist, rng):
    comps = {}
    for idx in combinations(range(chart.n), p):
        while idx not in comps:
            poly = random_polynomial(rng, chart.n, 2, chart.complex_mode)
            if not poly.is_zero():
                comps[idx] = poly
    return Form(chart, p, twist, comps)


def test_tensor_modes_must_match():
    rng = random.Random(414)
    A, B = _full(CH4, 2, False, rng), _full(CH4, 2, True, rng)
    c = FieldPairZ(A, B, 1).to_complex()
    with pytest.raises(StructuralError, match="^real/complex polynomial mode mismatch$"):
        tensor(A, B) == tensor(c.F, c.G)
    with pytest.raises(StructuralError, match="^real/complex polynomial mode mismatch$"):
        tensor(A, c.G)


def _count_products(monkeypatch):
    calls = []
    mul = Polynomial.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    return calls


def test_full_tensor_comparison_takes_twenty_two_products(monkeypatch):
    # two n = 4 tensors of 6 x 6 nonzero entries: multiplying both out took
    # 72 products; the rank-one test takes 2 * (6 + 6 - 1)
    rng = random.Random(416)
    A, B = _full(CH4, 2, False, rng), _full(CH4, 2, True, rng)
    left = tensor(A, B)
    right = tensor(A.scale(Fraction(-2, 3)), B.scale(Fraction(-3, 2)))
    calls = _count_products(monkeypatch)
    assert left == right
    assert len(calls) == 22


# -- eigenpairs -------------------------------------------------------------------


def test_eigenpair_example():
    p = FieldPairZ(basis_form(CH4, (0, 1)),
                   basis_form(CH4, (2, 3), twist=True), 1).to_complex()
    eig, _ = self_reciprocal_pair(p)
    ch = p.chart
    i = (0, 1)
    assert eig.F.components == (
        basis_form(ch, (0, 1)) + basis_form(ch, (2, 3),
                                            coefficient=ch.const_poly((0, -1)))).components
    assert eig.G.components == (
        basis_form(ch, (2, 3)) + basis_form(ch, (0, 1),
                                            coefficient=ch.const_poly(i))).components


def test_eigenpair_relations():
    rng = random.Random(404)
    for z in Z_VALUES:
        for _ in range(7):
            p = _pair(rng, z).to_complex()
            plus, minus = self_reciprocal_pair(p)
            for sign, eig in ((1, plus), (-1, minus)):
                ev = (0, sign)
                s = star_z(eig)
                assert s.F == eig.F.scale(ev)
                assert s.G == eig.G.scale(ev)
                # the two slots are proportional: F = -+ iz G
                assert eig.F == eig.G.scale((0, -sign * p.z), pseudo=True)
            assert plus.F + minus.F == p.F.scale(2)
            assert plus.G + minus.G == p.G.scale(2)


def test_eigenpair_needs_complex_mode():
    rng = random.Random(405)
    with pytest.raises(StructuralError, match="^eigenpairs need a complex-mode chart$"):
        self_reciprocal_pair(_pair(rng))


def _eigenpair_by_formula(pair, sign):
    """(F -+ izG, G +- iF/z), each image scaled for this sign alone."""
    z = pair.z
    return (pair.F - pair.G.scale((0, sign * z), pseudo=True),
            pair.G + pair.F.scale((0, sign / z), pseudo=True))


def _complex_pair(rng, z, chart):
    p = chart.n // 2
    chart = chart.to_complex()
    return FieldPairZ(random_form(rng, chart, p, False, 1),
                      random_form(rng, chart, p, True, 1), z)


def test_shared_images_give_the_eigenpair_formula():
    rng = random.Random(411)
    for n in (2, 4, 6, 8):
        for z in (3, Fraction(2, 7), -2):
            for make in (lambda: _pair(rng, z, Chart(n), bound=1).to_complex(),
                         lambda: _complex_pair(rng, z, Chart(n))):
                pair = make()
                for sign, eig in zip((1, -1), self_reciprocal_pair(pair)):
                    assert (eig.F, eig.G) == _eigenpair_by_formula(pair, sign), (n, z)
                    assert eig.z == pair.z
                    assert not eig.F.twist and eig.G.twist


def test_both_eigenpairs_scale_two_images(monkeypatch):
    calls = []
    scale = Form.scale

    def counted(self, s, **kw):
        calls.append(s)
        return scale(self, s, **kw)

    monkeypatch.setattr(Form, "scale", counted)
    p = _pair(random.Random(412), Fraction(-3, 5)).to_complex()
    self_reciprocal_pair(p)
    assert calls == [(0, Fraction(-3, 5)), (0, Fraction(-5, 3))]


# -- factorization through the metric dual ----------------------------------------


def test_factorization_random():
    rng = random.Random(406)
    for z0 in (1, 3, Fraction(2, 5)):
        for _ in range(5):
            F = random_form(rng, CH4, 2, False)
            checks = check_factorization(MINK, z0, F)
            assert len(checks) == 4
            assert all(c.passed for c in checks)


def test_factorization_fixed_example():
    checks = check_factorization(MINK, 3, basis_form(CH4, (0, 2)))
    assert all(c.passed for c in checks)


def test_factorization_offdiagonal_lorentzian():
    m = MetricSpec(CH4, [[0, 1, 0, 0],
                         [1, 0, 0, 0],
                         [0, 0, -1, 0],
                         [0, 0, 0, -1]])
    rng = random.Random(407)
    checks = check_factorization(m, 2, random_form(rng, CH4, 2, False))
    assert all(c.passed for c in checks)
    # the abstract's "any Lorentzian metric": seeded g = A^T eta A with A
    # unimodular rational upper-triangular, so sqrt|det g| = 1
    eta = (1, -1, -1, -1)
    for z0 in Z_VALUES:
        a = [[Fraction(1) if i == j else
              Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if i < j else Fraction(0)
              for j in range(4)] for i in range(4)]
        g = [[sum(a[k][i] * eta[k] * a[k][j] for k in range(4)) for j in range(4)]
             for i in range(4)]
        assert any(g[i][j] for i in range(4) for j in range(4) if i != j)
        for chart in (CH4, Chart(4, -1), Chart(4, complex_mode=True), Chart(4, -1, True)):
            m = MetricSpec(chart, g)
            assert (m.det, m.sqrt_abs_det) == (-1, 1)
            checks = check_factorization(m, z0, random_form(rng, chart, 2, False))
            assert len(checks) == 4 and all(c.passed for c in checks), (g, chart)


def test_factorization_on_a_complex_chart():
    chart = Chart(4, complex_mode=True)
    metric = MetricSpec.minkowski(chart)
    rng = random.Random(409)
    for z0 in (2, Fraction(2, 5)):
        checks = check_factorization(metric, z0, random_form(rng, chart, 2, False))
        assert len(checks) == 4 and all(c.passed for c in checks)


def test_factorization_mixes_scalar_modes():
    # a real metric serves a complex F, and a complex-chart metric a real F
    rng = random.Random(410)
    real, cplx = CH4, Chart(4, complex_mode=True)
    for metric_chart, form_chart in ((real, cplx), (cplx, real)):
        metric = MetricSpec.minkowski(metric_chart)
        for z0 in (2, Fraction(2, 5)):
            checks = check_factorization(metric, z0, random_form(rng, form_chart, 2, False))
            assert len(checks) == 4 and all(c.passed for c in checks)


def test_factorization_rejects_euclidean():
    with pytest.raises(MetricError):
        check_factorization(MetricSpec.diagonal(CH4, [1] * 4), 1, basis_form(CH4, (0, 1)))


def test_factorization_agrees_with_constitutive_layer():
    rng = random.Random(408)
    z0 = 3
    F = random_form(rng, CH4, 2, False)
    G = MaxwellLorentz(MINK, z0).apply(F)
    s = star_z(FieldPairZ(F, G, z0))
    assert s.F.components == hodge(MINK, F).components
    assert s.G.components == hodge(MINK, G).components


# -- no single-form operation ------------------------------------------------------


def test_no_single_form_reciprocity():
    # the image of F alone is not well defined: two pairs sharing F disagree
    import premetric.reciprocity as mod

    F = basis_form(CH4, (0, 1))
    p1 = FieldPairZ(F, basis_form(CH4, (2, 3), twist=True), 1)
    p2 = FieldPairZ(F, basis_form(CH4, (1, 2), twist=True), 1)
    assert star_z(p1).F != star_z(p2).F
    public = [name for name in dir(mod) if not name.startswith("_")]
    for name in public:
        assert "star" not in name or name == "star_z"


# -- orientation reversal law ------------------------------------------------------


def test_reflection_flips_z():
    # reflecting x1 reverses orientation; the pair map built with -z on the
    # pulled-back pair matches the pullback of the original map, slot by slot
    refl = [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    rng = random.Random(409)
    for z in Z_VALUES:
        p = _pair(rng, z)
        pulled = FieldPairZ(pullback_linear(refl, p.F),
                            pullback_linear(refl, p.G), -p.z)
        lhs = star_z(pulled)
        rhs_F = pullback_linear(refl, star_z(p).F)
        rhs_G = pullback_linear(refl, star_z(p).G)
        assert lhs.F == rhs_F and lhs.G == rhs_G
        assert not lhs.F.twist and lhs.G.twist


# -- work per run ------------------------------------------------------------------


def _reciprocity_run(tmp_path, capsys):
    """A seed-1 `reciprocity` CLI run of configs/reciprocity.json, 4 samples."""
    import json
    from pathlib import Path

    from premetric import cli

    shipped = Path(__file__).resolve().parent.parent / "configs" / "reciprocity.json"
    cfg = dict(json.loads(shipped.read_text()), samples=4, seed=1)
    path = tmp_path / "reciprocity.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["reciprocity", "--config", str(path)]) == 0
    capsys.readouterr()


def test_reciprocity_run_scales_each_image_once(tmp_path, monkeypatch, capsys):
    # 4 instances of the reciprocity and factorization suites at seed 1:
    # 20 and 13 scalings per instance if each eigenpair scaled its own two
    # images (132); sharing them across the two eigenpairs saves 2 of each (116),
    # and the factorization's selfdual rows build only the eigen field
    # strengths F -+ izG, so its unread iF/z image goes too (112)
    calls = []
    scale = Form.scale

    def counted(self, s, **kw):
        calls.append(s)
        return scale(self, s, **kw)

    monkeypatch.setattr(Form, "scale", counted)
    _reciprocity_run(tmp_path, capsys)
    assert len(calls) == 112


def test_reciprocity_run_compares_tensors_by_rank_one(tmp_path, monkeypatch, capsys):
    # the same run made 230 polynomial products while each pair tensor was
    # multiplied out, and 132 with the rank-one comparisons of the k and
    # O22 rows.  It makes 128 now that the densities row sums after - c *
    # before into one term_sum per component: the 4 components of sigma_u
    # whose sum was a lone product with multiplier 1 are no longer built
    # alone.  The count still includes the 2 components of the shared
    # F ^ G that are such a lone product
    calls = _count_products(monkeypatch)
    _reciprocity_run(tmp_path, capsys)
    assert len(calls) == 128
