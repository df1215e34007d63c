"""Config validation and suite-runner behavior (in-process)."""

import dataclasses
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

import premetric
from premetric import ConfigError, load_config, run_suites, validate_config
from premetric.config import RunConfig, build_law
from premetric.suites import SUITE_RUNNERS


def cfg_from(payload):
    return validate_config(payload)


def test_defaults():
    cfg = cfg_from({})
    assert (cfg.n, cfg.p, cfg.mode, cfg.orientation) == (4, 2, "real", 1)
    assert cfg.F == "random" and cfg.seed == 0 and cfg.format == "text"
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
])
def test_rejected_configs(payload, fragment):
    base = {"n": 4, "p": 2}
    base.update(payload)
    with pytest.raises(ConfigError) as err:
        cfg_from(base)
    assert fragment in str(err.value)


def test_rational_literals_accepted():
    cfg = cfg_from({"Z0": "3/7", "z": ["1/5", 2],
                    "metric": {"diagonal": ["1", -1, "-1", "-1/1"]}})
    assert cfg.Z0 == Fraction(3, 7)
    assert cfg.z == (Fraction(1, 5), Fraction(2))
    assert cfg.metric.signature == (1, 3)


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
    law = build_law(cfg)
    chart = cfg.chart()
    from premetric import parse_form
    G = law.apply(parse_form("dx0^dx1", chart, 2))
    assert G.twist and G.degree == 2

    cfg = cfg_from({"p": 2, "constitutive": {
        "kind": "linear-local",
        "chi": [[("1" if r == c else 0) for c in range(6)] for r in range(6)]}})
    law = build_law(cfg)
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


def test_phi_suite_requires_law():
    cfg = cfg_from({"samples": 1})
    with pytest.raises(ConfigError):
        run_suites(cfg, ("phi",))


@pytest.mark.parametrize("suite", ["split", "reciprocity", "factorization"])
def test_dimension_preconditions(suite):
    cfg = cfg_from({"n": 3, "p": 1, "samples": 1})
    with pytest.raises(ConfigError):
        SUITE_RUNNERS[suite](cfg)


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


# -- drift guards -------------------------------------------------------------


def test_config_doc_lists_exactly_the_run_config_fields():
    doc = Path(__file__).resolve().parent.parent / "docs" / "config.md"
    table = doc.read_text(encoding="utf-8").split("## Constitutive laws")[0]
    documented = re.findall(r"^\| `(\w+)` \|", table, re.MULTILINE)
    assert sorted(documented) == sorted(f.name for f in dataclasses.fields(RunConfig))
    assert len(documented) == len(set(documented))


def test_every_exported_name_resolves():
    assert len(premetric.__all__) == len(set(premetric.__all__))
    for name in premetric.__all__:
        assert getattr(premetric, name) is not None, name
