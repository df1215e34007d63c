import random
from fractions import Fraction

import pytest

from premetric.electrodynamics import FieldConfig, MaxwellLorentz, densities
from premetric.errors import MetricError, StructuralError
from oracles import pullback_linear
from premetric.forms import Chart, Form, basis_form
from premetric.hodge import MetricSpec, hodge
from premetric.randgen import random_form, random_vector_field
from premetric.reciprocity import (
    FieldPairZ,
    check_factorization,
    pair_tensor,
    self_reciprocal_pair,
    star_z,
    tensor,
)

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
    assert pair_tensor(p) == {}


# -- eigenpairs -------------------------------------------------------------------


def test_eigenpair_example():
    p = FieldPairZ(basis_form(CH4, (0, 1)),
                   basis_form(CH4, (2, 3), twist=True), 1).to_complex()
    eig = self_reciprocal_pair(p, 1)
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
            for sign in (1, -1):
                eig = self_reciprocal_pair(p, sign)
                ev = (0, sign)
                s = star_z(eig)
                assert s.F == eig.F.scale(ev)
                assert s.G == eig.G.scale(ev)
                # the two slots are proportional: F = -+ iz G
                assert eig.F == eig.G.scale((0, -sign * p.z), pseudo=True)
            plus = self_reciprocal_pair(p, 1)
            minus = self_reciprocal_pair(p, -1)
            assert plus.F + minus.F == p.F.scale(2)
            assert plus.G + minus.G == p.G.scale(2)


def test_eigenpair_needs_complex_mode():
    rng = random.Random(405)
    with pytest.raises(StructuralError):
        self_reciprocal_pair(_pair(rng), 1)
    with pytest.raises(StructuralError):
        self_reciprocal_pair(_pair(rng).to_complex(), 2)


@pytest.mark.parametrize("sign", [True, 1.0, Fraction(1), False, -1.0, Fraction(-1)])
def test_eigenpair_sign_is_the_int_plus_or_minus_one(sign):
    # a bool, float or Fraction equal to +-1 is not a sign
    p = _pair(random.Random(410)).to_complex()
    with pytest.raises(StructuralError, match=r"^sign must be \+1 or -1$"):
        self_reciprocal_pair(p, sign)
    assert p._images is None


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
                for order in ((1, -1), (-1, 1)):
                    pair = make()
                    expected = {s: _eigenpair_by_formula(pair, s) for s in order}
                    for sign in order + order:      # repeated calls reuse the images
                        eig = self_reciprocal_pair(pair, sign)
                        assert (eig.F, eig.G) == expected[sign], (n, z, order)
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
    self_reciprocal_pair(p, 1)
    self_reciprocal_pair(p, -1)
    self_reciprocal_pair(p, 1)
    assert calls == [(0, Fraction(-3, 5)), (0, Fraction(-5, 3))]


def test_pair_equality_and_repr_ignore_the_images():
    rng = random.Random(413)
    p = _pair(rng, 2).to_complex()
    fresh = FieldPairZ(p.F, p.G, p.z)
    self_reciprocal_pair(p, -1)
    assert p._images is not None and fresh._images is None
    assert p == fresh and fresh == p
    assert repr(p) == repr(fresh)


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


def test_reciprocity_run_scales_each_image_once(tmp_path, monkeypatch, capsys):
    # 4 instances of the reciprocity and factorization suites at seed 1:
    # 20 and 13 scalings per instance if each eigenpair scaled its own two
    # images (132); sharing them across the two signs saves 2 of each (116)
    import json
    from pathlib import Path

    from premetric import cli

    shipped = Path(__file__).resolve().parent.parent / "configs" / "reciprocity.json"
    cfg = dict(json.loads(shipped.read_text()), samples=4, seed=1)
    path = tmp_path / "reciprocity.json"
    path.write_text(json.dumps(cfg))
    calls = []
    scale = Form.scale

    def counted(self, s, **kw):
        calls.append(s)
        return scale(self, s, **kw)

    monkeypatch.setattr(Form, "scale", counted)
    assert cli.main(["reciprocity", "--config", str(path)]) == 0
    capsys.readouterr()
    assert len(calls) == 116
