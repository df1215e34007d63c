"""Equation rows decided by equality against the same rows built by difference.

A row whose claim is an equation lhs = rhs between two computed forms
hands `report.residual_check` the pair (lhs, rhs).  Polynomials are
canonical and a Form keeps no zero component, so lhs == rhs holds exactly
when lhs - rhs is the zero form, and the difference is formed only to
print a FAIL row's witness.  This file checks that invariant on random
forms, checks that the `reciprocity`, `factorization` and `split` suites
give the rows they would give with every residual built as a difference,
witnesses included, and keeps every equation row in `src/` on pair
claims.
"""

import ast
from pathlib import Path

import pytest

import premetric.reciprocity as reciprocity
import premetric.suites as suites
from premetric import validate_config
from premetric.electrodynamics import (FieldConfig, MaxwellLorentz, densities,
                                       split_3plus1)
from premetric.forms import Chart, Form, basis_form
from premetric.reciprocity import FieldPairZ
from premetric.report import nonzero_witness, residual_check
from test_kernels import COEFF, forms

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

SRC = Path(__file__).resolve().parent.parent / "src" / "premetric"


# -- the invariant: equality is an exact zero test ------------------------------


def _forms(chart, degree, twist):
    if degree > chart.n:  # no index tuple to sample
        return st.just(Form.zero(chart, degree, twist))
    return forms(chart, degree, twist)


def _multipliers(complex_mode):
    nonzero = COEFF.filter(bool)
    if not complex_mode:
        return nonzero
    return nonzero | st.tuples(COEFF, nonzero)


def _inverse(k):
    if not isinstance(k, tuple):
        return 1 / k
    norm = k[0] * k[0] + k[1] * k[1]
    return (k[0] / norm, -k[1] / norm)


@st.composite
def _pairs(draw):
    """(a, b) of one shape: b is independent of a, a perturbed copy, or a
    equal to it but built by another route."""
    chart = Chart(draw(st.integers(2, 6)), complex_mode=draw(st.booleans()))
    degree, twist = draw(st.integers(0, chart.n + 1)), draw(st.booleans())
    a = draw(_forms(chart, degree, twist))
    c = draw(_forms(chart, degree, twist))
    route = draw(st.sampled_from(("independent", "perturbed", "sum", "scale")))
    if route == "independent":
        return a, c
    if route == "perturbed":
        return a, a + c
    if route == "sum":
        return (a + c) - c, a
    k = draw(_multipliers(chart.complex_mode))
    return a.scale(k).scale(_inverse(k)), a


@settings(max_examples=200, deadline=None)
@given(_pairs())
def test_equal_forms_are_exactly_those_with_a_zero_difference(pair):
    a, b = pair
    assert (a == b) == (a - b).is_zero()
    row = residual_check("r", "tag", "desc", (a, b))
    assert row.passed == (a == b)
    assert row.witness == nonzero_witness(a - b)


# -- suite rows against the rows built by difference ------------------------------

# (n, p) = (2, 1) and (6, 3) take the negated densities row, (4, 2) the
# unchanged one; the factorization needs a double dual of -1 on p-forms.
CONFIGS = {
    "n2-real": {"n": 2, "p": 1, "mode": "real", "metric": {"diagonal": [1, 1]},
                "Z0": "3/2", "samples": 6, "seed": 5},
    "n4-complex": {"n": 4, "p": 2, "mode": "complex",
                   "metric": {"diagonal": [1, -1, -1, -1]}, "Z0": "377/120",
                   "z": [1, 2, -3, "1/5"], "samples": 3, "seed": 7},
    "n6-complex": {"n": 6, "p": 3, "mode": "complex",
                   "metric": {"diagonal": [1] * 6}, "samples": 2, "seed": 11,
                   "degree_bound": 1},
}


def _extra(form):
    """A nonzero form of form's shape, to add to one slot."""
    chart = form.chart
    return basis_form(chart, range(form.degree), form.twist,
                      chart.variable(chart.n - 1))


def _difference_rows(cfg, suite):
    """(check_id, residuals) of the suite's equation rows, each residual
    built as a difference (or, for a negation, a sum) of forms, through
    the module attributes the suites read, so that a patch reaches both."""
    star, hod = suites.star_z, reciprocity.hodge
    rows = []
    if suite == "reciprocity":
        zs = cfg.z if cfg.z else suites._DEFAULT_Z
        for k, (F, G, u) in suites._instances(cfg, suite, "FGu"):
            pair = FieldPairZ(F, G, zs[k % len(zs)])
            starred = star(pair)
            twice = star(starred)
            before = densities(u, FieldConfig(pair.F, pair.G))
            after = densities(u, FieldConfig(starred.F, starred.G))
            rows.append((f"recip-{k:04d}-square", (twice.F + F, twice.G + G)))
            rows.append((f"recip-{k:04d}-densities",
                         tuple(a + b if cfg.p % 2 else a - b
                               for a, b in zip(after, before))))
    elif suite == "factorization":
        metric = cfg.metric_spec()
        for k, (F,) in suites._instances(cfg, suite, "F"):
            law = MaxwellLorentz(metric, cfg.Z0 if cfg.Z0 is not None else 1)
            pair = FieldPairZ(F, law.apply(F), law.Z)
            starred = star(pair)
            rows.append((f"factor-{k:04d}-factor-F",
                         (starred.F - hod(metric, F).scale(1, pseudo=True),)))
            rows.append((f"factor-{k:04d}-factor-G",
                         (starred.G - hod(metric, pair.G).scale(1, pseudo=True),)))
            cpair = pair.to_complex()
            for sign, name in ((1, "plus"), (-1, "minus")):
                eig = reciprocity.self_reciprocal_pair(cpair, sign)
                rows.append((f"factor-{k:04d}-selfdual-{name}",
                             (eig.F.scale((0, sign))
                              - hod(metric, eig.F).scale(1, pseudo=True),)))
    else:
        for k, (F, G, J) in suites._instances(cfg, suite, "FGJ"):
            F2, G2, J2 = suites.recompose(split_3plus1(F, G, J))
            rows += [(f"split-{k:04d}-F", (F2 - F,)), (f"split-{k:04d}-G", (G2 - G,)),
                     (f"split-{k:04d}-J", (J2 - J,))]
    return rows


def _equation_rows(cfg, suite):
    rows = suites.SUITE_RUNNERS[suite](cfg)
    return [row for row in rows if row.equation in ("recip2", "factor", "F", "G")]


def _patch(monkeypatch, broken):
    """Perturb one slot of star_z, hodge or recompose, as `broken` names."""
    if broken == "star_z":
        real = reciprocity.star_z

        def star(pair):
            out = real(pair)
            return FieldPairZ(out.F + _extra(out.F), out.G, out.z)

        monkeypatch.setattr(suites, "star_z", star)
        monkeypatch.setattr(reciprocity, "star_z", star)
    elif broken == "hodge":
        real = reciprocity.hodge

        def hodge(metric, a):
            out = real(metric, a)
            return out + _extra(out)

        monkeypatch.setattr(reciprocity, "hodge", hodge)
    elif broken == "recompose":
        real = suites.recompose

        def recompose(split):
            F2, G2, J2 = real(split)
            return F2, G2 + _extra(G2), J2

        monkeypatch.setattr(suites, "recompose", recompose)


# the row kinds that FAIL under each perturbation, per suite
FAILING = {
    None: {},
    "star_z": {"reciprocity": {"square", "densities"}, "factorization": {"factor-F"}},
    "hodge": {"factorization": {"factor-F", "factor-G", "selfdual-plus",
                                "selfdual-minus"}},
    "recompose": {"split": {"G"}},
}


@pytest.mark.parametrize("broken", list(FAILING), ids=lambda b: b or "exact")
@pytest.mark.parametrize("name", list(CONFIGS))
def test_equation_rows_are_the_rows_built_by_difference(name, broken, monkeypatch):
    _patch(monkeypatch, broken)
    cfg = validate_config(CONFIGS[name])
    suite_names = ["reciprocity", "factorization"] + (["split"] if cfg.n == 4 else [])
    for suite in suite_names:
        got = _equation_rows(cfg, suite)
        built = _difference_rows(cfg, suite)
        assert [row.check_id for row in got] == [check_id for check_id, _ in built]
        assert got == [residual_check(check_id, row.equation, row.description, *res)
                       for (check_id, res), row in zip(built, got)]
        failed = {row.check_id.split("-", 2)[2] for row in got if not row.passed}
        assert failed == FAILING[broken].get(suite, set()), suite
        assert all(row.witness for row in got if not row.passed)


# -- no row subtracts in order to test ----------------------------------------------


def _differences(node):
    """The binary + and - nodes in an expression, not looking inside calls:
    a call's arguments are its own business, but the value handed over
    must not be a sum or difference of forms."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        yield node
    if not isinstance(node, ast.Call):
        for child in ast.iter_child_nodes(node):
            yield from _differences(child)


def _claim_sums(tree):
    for call in ast.walk(tree):
        if (isinstance(call, ast.Call) and "residual_check" in (
                getattr(call.func, "id", None), getattr(call.func, "attr", None))):
            claims = call.args[3:] + [a for a in call.args[:3]
                                      if isinstance(a, ast.Starred)]
            for claim in claims:
                yield from _differences(claim)


def test_claims_are_never_differences_formed_to_be_tested():
    offenders = [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
                 for path in sorted(SRC.glob("*.py"))
                 for node in _claim_sums(ast.parse(path.read_text(encoding="utf-8")))]
    assert offenders == []


@pytest.mark.parametrize("source, found", [
    ("residual_check(i, e, d, twice.F + F, twice.G + G)", 2),
    ("residual_check(i, e, d, starred.F - hodge(m, F))", 1),
    ("residual_check(i, e, d, *(a + b if odd else a - b for a, b in zip(x, y)))", 2),
    ("report.residual_check(i, e, d, *[a - b for a, b in z])", 1),
    ("residual_check(p + 'sym', e, d, combine((1, w, a, b), (s, w, c, d)), f(a - b))", 0),
    ("residual_check(p + 'x', e, d, (a, -b), (twice.F, -F), r)", 0),
])
def test_the_claim_scan_finds_sums_and_differences(source, found):
    assert len(list(_claim_sums(ast.parse(source)))) == found
