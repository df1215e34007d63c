"""Config validation and suite-runner behavior (in-process)."""

import json
import re
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import premetric
from premetric import (ConfigError, FormSyntaxError, MetricError, StructuralError,
                       cli, load_config, run_suites, validate_config)
from premetric.config import RunConfig
from premetric.suites import SUITE_RUNNERS

ROOT = Path(__file__).resolve().parent.parent


def cfg_from(payload):
    return validate_config(payload)


def test_defaults():
    cfg = cfg_from({})
    assert (cfg.n, cfg.p, cfg.mode, cfg.orientation) == (4, 2, "real", 1)
    assert cfg.F == "random" and cfg.seed == 0 and cfg.format == "text"
    assert cfg.z == (Fraction(1), Fraction(2), Fraction(-3), Fraction(1, 5))
    assert [type(z) for z in cfg.z] == [Fraction] * 4
    assert cfg.suites_for("check") == ("conservation", "identities")
    assert cfg.suites_for("reciprocity") == ("reciprocity", "factorization")


@pytest.mark.parametrize("payload, fragment", [
    ({"n": 1}, "n:"),
    ({"n": 4, "p": 4}, "p:"),
    ({"mode": "quaternion"}, "mode:"),
    ({"orientation": 2}, "orientation:"),
    ({"Z0": 0}, "Z0:"),
    ({"z": [1, "0"]}, "z[1]:"),
    ({"z": "1/0"}, "not a rational"),
    ({"seed": -1}, "seed:"),
    ({"samples": 0}, "samples:"),
    ({"suites": ["bogus"]}, "unknown suite"),
    ({"format": "yaml"}, "format:"),
    ({"metric": {"diagonal": [1, -1, -1]}}, "metric"),
    ({"metric": {"matrix": [[1, 0], [1, 1]]}}, "metric"),
    ({"constitutive": {"kind": "cubic"}}, "constitutive.kind"),
    ({"constitutive": {"kind": "custom"}}, "constitutive.G"),
    ({"constitutive": {"kind": "axion", "Z0": 1}}, "alpha"),
    ({"constitutive": {"kind": "maxwell-lorentz"}}, "Z0"),
    ({"G": "dx0^dx1", "constitutive": {"kind": "maxwell-lorentz", "Z0": 1}},
     "either"),
    ({"frobs": 3}, "unknown config keys"),
    ({"G": "dx0^dx1", "constitutive": {"kind": "custom", "G": "(x1)*dx2^dx3"}},
     "either"),
    ({"alpha": "x1"}, "unknown config keys"),
    ({"suites": [["conservation"]]}, "unknown suite"),
])
def test_rejected_configs(payload, fragment):
    base = {"n": 4, "p": 2}
    base.update(payload)
    with pytest.raises(ConfigError) as err:
        cfg_from(base)
    assert fragment in str(err.value)


@pytest.mark.parametrize("z, message", [
    ("0", "z: must be nonzero"),
    ({}, "z: expected an integer or 'a/b' string, got {}"),
    ([1, "0"], "z[1]: must be nonzero"),
    ([1, {}], "z[1]: expected an integer or 'a/b' string, got {}"),
])
def test_a_scalar_z_is_named_z_and_list_items_by_index(z, message):
    with pytest.raises(ConfigError) as err:
        cfg_from({"z": z})
    assert str(err.value) == message


@pytest.mark.parametrize("path", sorted(
    str(p.relative_to(ROOT)) for p in [*(ROOT / "configs").glob("*.json"),
                                       *(ROOT / "tests" / "data").glob("*.json")]))
def test_shipped_configs_are_accepted(path):
    assert isinstance(load_config(str(ROOT / path)), RunConfig)


def test_rational_literals_accepted():
    cfg = cfg_from({"Z0": "3/7", "z": ["1/5", 2],
                    "metric": {"diagonal": ["1", -1, "-1", "-1/1"]}})
    assert cfg.Z0 == Fraction(3, 7)
    assert cfg.z == (Fraction(1, 5), Fraction(2))
    assert cfg.metric.det == -1


def test_a_loaded_metric_builds_its_minor_tower_only_for_a_dual():
    # g = A^T diag(1, -1, -1, -1) A for a unimodular A: dense, det g = -1
    cfg = cfg_from({"metric": {"matrix": [[1, 1, 0, 0], [1, 0, -1, 0],
                                          [0, -1, -2, 0], [0, 0, 0, -1]]},
                    "samples": 1})
    assert cfg.metric.det == -1 and cfg.metric._tower is None
    run_suites(cfg, cfg.suites_for("check"))
    assert cfg.metric._tower is None
    run_suites(cfg, ["factorization"])
    assert cfg.metric._tower is not None


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"n": 3, "p": 1, "seed": 9}), encoding="utf-8")
    cfg = load_config(str(path))
    assert (cfg.n, cfg.p, cfg.seed) == (3, 1, 9)
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_build_law_variants():
    cfg = cfg_from({"constitutive": {"kind": "axion", "Z0": 2, "alpha": "x1^2"},
                    "metric": {"diagonal": [1, -1, -1, -1]}})
    law = cfg.constitutive
    chart = cfg.chart()
    from premetric import parse_form
    G = law.apply(parse_form("dx0^dx1", chart, 2))
    assert G.twist and G.degree == 2

    cfg = cfg_from({"p": 2, "constitutive": {
        "kind": "linear-local",
        "chi": [[("1" if r == c else 0) for c in range(6)] for r in range(6)]}})
    law = cfg.constitutive
    G = law.apply(parse_form("(x3)*dx0^dx1", cfg.chart(), 2))
    assert G.twist and not G.is_zero()


def test_suites_are_deterministic_per_name():
    cfg = cfg_from({"samples": 4, "seed": 11})
    once = run_suites(cfg, ("conservation", "identities"))
    again = run_suites(cfg, ("identities",))
    # the identities stream does not depend on whether conservation ran
    ids_once = [c.check_id for c in once if c.check_id.startswith("identity")]
    assert ids_once == [c.check_id for c in again]
    assert all(c.passed for c in once)


def test_fixed_inputs_collapse_to_one_instance():
    cfg = cfg_from({"samples": 10, "F": "dx0^dx1", "G": "(x0)*dx2^dx3",
                    "u": "dx0 + (x1)*dx2"})
    checks = run_suites(cfg, ("conservation",))
    assert len(checks) == 1
    assert checks[0].passed


_ML = {"metric": {"diagonal": [1, -1, -1, -1]},
       "constitutive": {"kind": "maxwell-lorentz", "Z0": 1}}


@pytest.mark.parametrize("suite, given", [
    ("conservation", {"F": "dx0^dx1", "u": "dx2"}),
    ("identities", {"F": "dx0^dx1", "u": "dx2"}),
    ("reciprocity", {"F": "dx0^dx1", "u": "dx2"}),
    ("split", {"F": "dx0^dx1", "J": "(x1)*dx0^dx2^dx3"}),
])
def test_a_law_derived_G_counts_as_given(suite, given):
    # G = G(F) is fixed once F is: every field the suite uses is given
    cfg = cfg_from({"samples": 3, **given, **_ML})
    checks = SUITE_RUNNERS[suite](cfg)
    assert {c.check_id.split("-")[1] for c in checks} == {"0000"}
    assert all(c.passed for c in checks)
    # leaving one used field random runs every sample again
    name = "u" if "u" in given else "J"
    cfg = cfg_from({"samples": 3, **given, name: "random", **_ML})
    checks = SUITE_RUNNERS[suite](cfg)
    assert {c.check_id.split("-")[1] for c in checks} == {"0000", "0001", "0002"}


def _chi_with(entry):
    chi = [[0] * 6 for _ in range(6)]
    chi[1][2] = entry
    return {"n": 4, "p": 2, "constitutive": {"kind": "linear-local", "chi": chi}}


@pytest.mark.parametrize("entry, value", [
    ("1.5", Fraction(3, 2)), (" 3/4 ", Fraction(3, 4)), ("1e2", 100),
    ("3_0", 30), ("+3", 3), (7, 7), ("x0", None),
])
def test_chi_entries_read_as_rationals_or_polynomials(entry, value):
    # the sparse rows apply reads: chi[1][2] at row (0, 2), column (0, 3),
    # and every zero entry dropped
    law = cfg_from(_chi_with(entry)).constitutive
    chart = law.chart
    expect = chart.variable(0) if value is None else chart.const_poly(value)
    rows = list(combinations(range(4), 2))
    assert law._sparse == {jdx: [((0, 3), expect)] if jdx == rows[1] else [] for jdx in rows}


@pytest.mark.parametrize("alpha, value", [
    ("1.5", Fraction(3, 2)), ("1e2", 100), ("-1/3", Fraction(-1, 3)), (2, 2),
    ("x1", None),
])
def test_alpha_reads_like_a_chi_entry(alpha, value):
    law = cfg_from({**_ML, "constitutive": {
        "kind": "axion", "Z0": 1, "alpha": alpha}}).constitutive
    chart = law.metric.chart
    assert law.alpha == (chart.variable(1) if value is None else chart.const_poly(value))


@pytest.mark.parametrize("entry, error, message", [
    ("(x0", FormSyntaxError, "1:4: expected ')'"),
    ("1/0", FormSyntaxError, "1:1: zero denominator"),
    ("3/-4", FormSyntaxError, "1:2: unexpected trailing input"),
    ("", FormSyntaxError, "1:1: empty expression"),
    ("i", FormSyntaxError, "1:1: imaginary unit needs a complex-mode chart"),
    (True, ConfigError, "constitutive.chi[1][2]: expected a rational, got a boolean"),
    (1.5, ConfigError, "constitutive.chi[1][2]: expected an integer or 'a/b' string"),
    (None, ConfigError, "constitutive.chi[1][2]: expected an integer or 'a/b' string"),
    ([1], ConfigError, "constitutive.chi[1][2]: expected an integer or 'a/b' string"),
])
def test_chi_entries_rejected(entry, error, message):
    if error is FormSyntaxError:  # the parser's line:column follows the key
        message = f"constitutive.chi[1][2]: {message}"
    with pytest.raises(error) as err:
        cfg_from(_chi_with(entry))
    assert type(err.value) is error and str(err.value).startswith(message)


# test id -> (the key path the error names, a config around the literal)
_LITERAL_KEYS = {
    "Z0": ("Z0", lambda text: {"Z0": text}),
    "z[1]": ("z[1]", lambda text: {"z": [1, text]}),
    "metric.diagonal": ("metric.diagonal[3]",
                        lambda text: {"metric": {"diagonal": [1, -1, -1, text]}}),
    "metric.matrix": ("metric.matrix[3][3]", lambda text: {"metric": {"matrix": [
        [text if r == c == 3 else int(r == c) for c in range(4)] for r in range(4)]}}),
    "constitutive.Z0": ("constitutive.Z0", lambda text: {
        **_ML, "constitutive": {"kind": "maxwell-lorentz", "Z0": text}}),
    "constitutive.chi[1][2]": ("constitutive.chi[1][2]", _chi_with),
}


@pytest.mark.parametrize("text", [
    pytest.param("1e2000000", id="exponent"),
    pytest.param("-1e-2000000", id="negative-exponent"),
    pytest.param("1e4301", id="exponent-just-over"),
    pytest.param("1" + "0" * 4300, id="digit-run"),
    pytest.param("0." + "3" * 4301, id="decimal-run"),
    pytest.param("9e4300", id="numerator"),
    pytest.param("1e-4300", id="denominator"),
])
@pytest.mark.parametrize("key", _LITERAL_KEYS)
def test_rational_literals_over_the_digit_limit_are_refused(key, text):
    path, build = _LITERAL_KEYS[key]
    start = time.monotonic()
    with pytest.raises(ConfigError) as err:
        cfg_from(build(text))
    assert time.monotonic() - start < 0.1
    assert str(err.value) == f"{path}: rational literal exceeds the limit of 4300 digits"


@pytest.mark.parametrize("value", [10 ** 5000, -10 ** 4300, 10 ** 4300],
                         ids=["10^5000", "-10^4300", "10^4300"])
@pytest.mark.parametrize("key", _LITERAL_KEYS)
def test_integers_over_the_digit_limit_are_refused(key, value):
    # a library caller can pass any int; JSON text cannot carry these
    path, build = _LITERAL_KEYS[key]
    with pytest.raises(ConfigError) as err:
        cfg_from(build(value))
    assert str(err.value) == f"{path}: rational literal exceeds the limit of 4300 digits"


def test_integers_within_the_digit_limit_are_read():
    value = 10 ** 4300 - 1
    cfg = cfg_from({"Z0": value, "z": [-value]})
    assert cfg.Z0 == value and cfg.z == (-value,)


@pytest.mark.parametrize("text, value", [
    ("1.5", Fraction(3, 2)), ("3_0", 30), ("+3", 3), ("-1/1", -1),
    ("1e4299", 10 ** 4299), ("1e-4299", Fraction(1, 10 ** 4299)),
    ("0.5e-4299", Fraction(1, 2 * 10 ** 4299)),
])
def test_rational_literals_within_the_digit_limit_are_read(text, value):
    cfg = cfg_from({"Z0": text, "z": [text]})
    assert cfg.Z0 == value and cfg.z == (value,)


@pytest.mark.parametrize("text", ["1e 99999", "x0e99999", "1/2e99999", "1e2x"])
def test_malformed_literals_with_a_large_exponent_are_not_literals(text):
    with pytest.raises(ConfigError) as err:
        cfg_from({"Z0": text})
    assert str(err.value) == f"Z0: not a rational literal: {text!r}"


@pytest.mark.parametrize("key, payload", [
    ("F", {"F": "(x0"}),
    ("G", {"G": "(x0"}),
    ("J", {"J": "(x0"}),
    ("u", {"u": "(x0"}),
    ("constitutive.G", {"constitutive": {"kind": "custom", "G": "(x0"}}),
    ("constitutive.alpha", {**_ML, "constitutive": {
        "kind": "axion", "Z0": 1, "alpha": "(x0"}}),
    ("constitutive.chi[1][2]", _chi_with("(x0")),
])
def test_expression_errors_name_their_key(key, payload):
    with pytest.raises(FormSyntaxError) as err:
        cfg_from(payload)
    assert str(err.value) == f"{key}: 1:4: expected ')'"
    assert (err.value.line, err.value.column, err.value.message) == (1, 4, "expected ')'")


def test_expression_limits_name_their_key():
    start = time.monotonic()
    with pytest.raises(ConfigError) as err:
        cfg_from({**_ML, "constitutive": {"kind": "axion", "Z0": 1, "alpha": "1e2000000"}})
    assert time.monotonic() - start < 0.1
    assert str(err.value) == ("constitutive.alpha: rational literal exceeds the "
                              "limit of 4300 digits")
    with pytest.raises(StructuralError) as err:
        cfg_from({"F": "x0^100*x0^100*dx0^dx1"})
    assert str(err.value) == "F: product exponent exceeds the limit 127"


def test_phi_suite_requires_law():
    cfg = cfg_from({"samples": 1})
    with pytest.raises(ConfigError):
        run_suites(cfg, ("phi",))


@pytest.mark.parametrize("suite", ["split", "reciprocity", "factorization"])
def test_dimension_preconditions(suite):
    cfg = cfg_from({"n": 3, "p": 1, "samples": 1})
    with pytest.raises(ConfigError):
        SUITE_RUNNERS[suite](cfg)


def test_pair_suites_run_at_every_n_equal_2p():
    # the factorization needs a double dual of -1 on p-forms: a Euclidean
    # metric at odd p, a Lorentzian one at even p
    for n, diagonal in ((2, [1, 1]), (6, [1] * 6), (8, [1] + [-1] * 7)):
        cfg = cfg_from({"n": n, "p": n // 2, "samples": 1, "degree_bound": 1,
                        "metric": {"diagonal": diagonal}})
        for suite in ("reciprocity", "factorization"):
            checks = SUITE_RUNNERS[suite](cfg)
            assert checks and all(c.passed for c in checks), (n, suite)
    cfg = cfg_from({"n": 6, "p": 2, "samples": 1})
    for suite in ("reciprocity", "factorization"):
        with pytest.raises(ConfigError, match=f"^{suite} suite needs n = 2p$"):
            SUITE_RUNNERS[suite](cfg)
    cfg = cfg_from({"n": 6, "p": 3, "samples": 1})
    with pytest.raises(MetricError, match="^factorization needs double-dual -1 on 3-forms$"):
        SUITE_RUNNERS["factorization"](cfg)


@pytest.mark.parametrize("payload, message", [
    ({"n": 6, "p": 2}, "reciprocity suite needs n = 2p"),
    ({"n": 6, "p": 3}, "factorization needs double-dual -1 on 3-forms"),
    ({"n": 4, "p": 2, "metric": {"diagonal": [1, 1, -1, -1]}},
     "factorization needs double-dual -1 on 2-forms"),
])
def test_pair_suites_exit_2_naming_the_cause(tmp_path, capsys, payload, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**payload, "samples": 1, "degree_bound": 1}),
                    encoding="utf-8")
    assert cli.main(["reciprocity", "--config", str(path)]) == 2
    assert capsys.readouterr() == ("", f"premetric: error: {message}\n")


@pytest.mark.parametrize("command, payload, message", [
    ("check", {"n": 6, "p": 3, "suites": ["conservation", "split"]},
     "split suite needs n=4, p=2"),
    ("check", {"suites": ["identities", "phi"]}, "phi suite needs a constitutive law"),
    ("check", {"n": 6, "p": 2, "suites": ["conservation", "factorization"]},
     "factorization suite needs n = 2p"),
    ("reciprocity", {"metric": {"diagonal": [1, 1, 1, 1]}},
     "factorization needs double-dual -1 on 2-forms"),
])
def test_a_refused_suite_stops_the_run_before_any_draw(tmp_path, capsys, monkeypatch,
                                                       command, payload, message):
    import premetric.suites as suites
    drawn = []
    for name in ("random_form", "random_vector_field"):
        monkeypatch.setattr(suites, name, lambda *args, name=name: drawn.append(name))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**payload, "samples": 400}), encoding="utf-8")
    assert cli.main([command, "--config", str(path)]) == 2
    assert capsys.readouterr() == ("", f"premetric: error: {message}\n")
    assert drawn == []


def test_every_suite_passes_on_random_input():
    cfg = cfg_from({"samples": 2, "seed": 5, "mode": "complex",
                    "metric": {"diagonal": [1, -1, -1, -1]},
                    "Z0": "2",
                    "constitutive": {"kind": "maxwell-lorentz", "Z0": 2}})
    for name in ("conservation", "identities", "phi", "split",
                 "reciprocity", "factorization"):
        checks = SUITE_RUNNERS[name](cfg)
        assert checks and all(c.passed for c in checks), name
        ids = [c.check_id for c in checks]
        assert len(ids) == len(set(ids))


def test_reciprocity_square_witness_comes_from_the_failing_slot(monkeypatch):
    # break only the G slot of the outer map in star_z(star_z(pair)): the
    # F-slot residual is zero, so the witness must come from G
    import premetric.suites as suites
    from premetric.formexpr import parse_form
    from premetric.forms import basis_form
    from premetric.reciprocity import FieldPairZ, star_z

    cfg = cfg_from({"samples": 1, "seed": 3})
    chart = cfg.chart()
    extra = basis_form(chart, (0, 1), twist=True, coefficient=chart.variable(2))
    calls = []

    def broken(pair):
        calls.append(pair)
        out = star_z(pair)
        if len(calls) == 2:
            out = FieldPairZ(out.F, out.G + extra, out.z)
        return out

    monkeypatch.setattr(suites, "star_z", broken)
    checks = {c.check_id: c for c in SUITE_RUNNERS["reciprocity"](cfg)}
    square = checks["recip-0000-square"]
    assert not square.passed
    assert square.witness == "(x2)*dx0^dx1"
    assert parse_form(square.witness, chart, 2, twist=True) == extra
    assert all(c.passed for k, c in checks.items() if k != "recip-0000-square")


def test_sym_witness_comes_from_the_routed_side(monkeypatch):
    # the expansion of u _| (F^dG) stays zero; only the routed contraction
    # of the (n+1)-form is broken, so the witness must come from it
    import premetric.electrodynamics as electrodynamics
    from premetric.forms import basis_form, contract

    cfg = cfg_from({"samples": 1, "seed": 3})
    chart = cfg.chart()
    extra = basis_form(chart, (0, 1, 2, 3), twist=True,
                       coefficient=chart.variable(2))

    def broken(u, a):
        return extra if a.degree == chart.n + 1 else contract(u, a)

    monkeypatch.setattr(electrodynamics, "contract", broken)
    checks = {c.check_id: c for c in SUITE_RUNNERS["identities"](cfg)}
    sym = checks["identity-0000-sym"]
    assert not sym.passed and sym.witness == "(x2)*dx0^dx1^dx2^dx3"
    assert all(c.passed for k, c in checks.items() if k != "identity-0000-sym")


# -- drift guards -------------------------------------------------------------


def test_config_doc_lists_exactly_the_run_config_fields():
    doc = Path(__file__).resolve().parent.parent / "docs" / "config.md"
    table = doc.read_text(encoding="utf-8").split("## Constitutive laws")[0]
    documented = re.findall(r"^\| `(\w+)` \|", table, re.MULTILINE)
    assert sorted(documented) == sorted(RunConfig._fields)
    assert len(documented) == len(set(documented))


def _doc_rows(text):
    """(first cell, second cell) of each table row in text whose first cell
    is one backticked name."""
    return re.findall(r"^\| `([\w-]+)` \| ([^|]*?) \|", text, re.MULTILINE)


def test_config_doc_tables_are_the_code_tables():
    from premetric.config import _LAWS, COMMANDS
    doc = (ROOT / "docs" / "config.md").read_text(encoding="utf-8")
    fields, rest = doc.split("## Constitutive laws")
    laws, defaults = rest.split("## Subcommand defaults")
    assert [key for key, _ in _doc_rows(fields)] == list(RunConfig._fields)
    documented = [(kind, set(re.findall(r"`(\w+)`", keys)))
                  for kind, keys in _doc_rows(laws)]
    assert documented == [(kind, keys) for kind, (keys, _) in _LAWS.items()]
    documented = [(command, tuple(suites.split(", ")))
                  for command, suites in _doc_rows(defaults)]
    assert documented == [(command, suites) for command, (_, suites) in COMMANDS.items()]


def test_every_exported_name_resolves():
    assert len(premetric.__all__) == len(set(premetric.__all__))
    for name in premetric.__all__:
        assert getattr(premetric, name) is not None, name
    # the public surface, spelled out so that a change to it shows in review
    assert set(premetric.__all__) == {
        "Axion", "Chart", "CheckResult", "ConfigError", "Custom",
        "FieldConfig", "FieldPairZ", "Form", "FormSyntaxError",
        "LinearLocal", "MaxwellLorentz", "MetricError", "MetricSpec",
        "Polynomial", "Report", "RunConfig", "SCHEMA_VERSION",
        "SplitFields", "StructuralError", "SUITE_RUNNERS", "VectorField",
        "basis_form", "build_law", "check_factorization",
        "conservation_residual", "contract", "coordinate_field",
        "densities", "double_hodge_sign", "ext_d", "force_u", "hodge",
        "identity_suite", "lie_derivative", "load_config",
        "nonzero_witness", "obstruction_phi_u", "pair_tensor", "parse_form",
        "parse_polynomial", "parse_vector_field", "poly_str", "print_form",
        "random_form", "random_polynomial", "random_vector_field",
        "recompose", "run_suites", "self_reciprocal_pair", "sigma_u",
        "split_3plus1", "star_z", "tensor", "validate_config", "wedge",
    }


def test_readme_library_example_runs_as_written():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Library", 1)[1]
    blocks = re.findall(r"^```python\n(.*?)^```", section.split("\n## ", 1)[0],
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md (Library)", "exec"), {})


def test_report_doc_tags_are_exactly_the_emitted_ones():
    doc = Path(__file__).resolve().parent.parent / "docs" / "report.md"
    table = doc.read_text(encoding="utf-8").split("## Equation tags")[1]
    table = table.split("\n## ")[0]
    documented = set(re.findall(r"`([^`]+)`",
                                "".join(re.findall(r"^\| (.*?) \|", table, re.MULTILINE))))
    ml = cfg_from({"samples": 1, "seed": 2, "degree_bound": 1, **_ML})
    custom = cfg_from({"samples": 1, "seed": 2, "degree_bound": 1,
                       "constitutive": {"kind": "custom", "G": "(x1)*dx2^dx3"}})
    checks = run_suites(ml, tuple(SUITE_RUNNERS)) + run_suites(custom, ("phi",))
    assert {c.equation for c in checks} == documented
