"""Run configuration: a JSON document validated into a RunConfig.

The schema is documented in docs/config.md.  Rational values are JSON
integers or strings like "3/4"; forms, vector fields and polynomial
coefficients are expression text (docs/grammar.md) or the string
"random".  Validation problems raise ConfigError with a dotted path to
the offending key.  Every expression is parsed and the law built here,
so nothing about the run starts until the whole document is sound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from fractions import Fraction

from .electrodynamics import Axion, Custom, LinearLocal, MaxwellLorentz
from .errors import ConfigError, MetricError
from .formexpr import parse_form, parse_polynomial, parse_vector_field
from .forms import Chart
from .hodge import MetricSpec
from .suites import SUITE_RUNNERS

_DEFAULT_SUITES = {
    "check": ("conservation", "identities"),
    "split": ("split",),
    "constitutive": ("phi",),
    "reciprocity": ("reciprocity", "factorization"),
}


def _fraction(value, path):
    if isinstance(value, bool):
        raise ConfigError(f"{path}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"{path}: not a rational literal: {value!r}")
    raise ConfigError(f"{path}: expected an integer or 'a/b' string, got {value!r}")


def _expect(cond, message):
    if not cond:
        raise ConfigError(message)


@dataclass
class RunConfig:
    n: int = 4
    p: int = 2
    mode: str = "real"
    orientation: int = 1
    metric: object = None          # MetricSpec or None
    Z0: Fraction = None
    z: object = None               # tuple of Fractions
    constitutive: object = None    # the built law, or None
    F: object = "random"           # Form or "random"
    G: object = None               # Form, "random" or None (from the law if any)
    J: object = "random"           # Form or "random"
    u: object = "random"           # VectorField or "random"
    seed: int = 0
    degree_bound: int = 2
    samples: int = 25
    suites: tuple = ()
    out: str = None
    format: str = "text"

    def chart(self):
        return Chart(self.n, self.orientation, self.mode == "complex")

    def metric_spec(self):
        """The configured metric, defaulting to the diag(1,-1,...) one."""
        if self.metric is not None:
            return self.metric
        return MetricSpec.minkowski(self.chart())

    def suites_for(self, command):
        if self.suites:
            return self.suites
        return _DEFAULT_SUITES[command]


_KNOWN_KEYS = frozenset(f.name for f in fields(RunConfig))

_CONSTITUTIVE_KINDS = tuple(law.kind for law in
                            (MaxwellLorentz, Axion, LinearLocal, Custom))


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    return validate_config(raw)


def validate_config(raw):
    _expect(isinstance(raw, dict), "config must be a JSON object")
    unknown = set(raw) - _KNOWN_KEYS
    _expect(not unknown, f"unknown config keys: {sorted(unknown)}")

    cfg = RunConfig()

    # type(...) is int: JSON true/false load as bool, an int subclass
    cfg.n = raw.get("n", 4)
    _expect(type(cfg.n) is int and 2 <= cfg.n <= 8,
            "n: expected an integer in 2..8")
    cfg.p = raw.get("p", 2)
    _expect(type(cfg.p) is int and 1 <= cfg.p <= cfg.n - 1,
            f"p: expected an integer in 1..{cfg.n - 1}")

    cfg.mode = raw.get("mode", "real")
    _expect(cfg.mode in ("real", "complex"), "mode: expected 'real' or 'complex'")
    cfg.orientation = raw.get("orientation", 1)
    _expect(type(cfg.orientation) is int and cfg.orientation in (1, -1),
            "orientation: expected 1 or -1")

    chart = cfg.chart()

    metric_raw = raw.get("metric")
    if metric_raw is not None:
        cfg.metric = _build_metric(metric_raw, chart)

    if "Z0" in raw:
        cfg.Z0 = _fraction(raw["Z0"], "Z0")
        _expect(cfg.Z0 != 0, "Z0: must be nonzero")
    if "z" in raw:
        zs = raw["z"] if isinstance(raw["z"], list) else [raw["z"]]
        vals = []
        for k, item in enumerate(zs):
            v = _fraction(item, f"z[{k}]")
            _expect(v != 0, f"z[{k}]: must be nonzero")
            vals.append(v)
        cfg.z = tuple(vals)

    law_raw = raw.get("constitutive")
    if law_raw is not None:
        _expect(isinstance(law_raw, dict) and "kind" in law_raw,
                "constitutive: expected an object with a 'kind'")
        _expect(law_raw["kind"] in _CONSTITUTIVE_KINDS,
                f"constitutive.kind: expected one of {_CONSTITUTIVE_KINDS}")
        if law_raw["kind"] == "custom":
            _expect(isinstance(law_raw.get("G"), str),
                    "constitutive.G: custom laws need a fixed excitation expression")
        if law_raw["kind"] == "linear-local":
            _expect(isinstance(law_raw.get("chi"), list),
                    "constitutive.chi: expected a matrix of rationals or expressions")

    for name in ("F", "G", "J", "u"):
        if name in raw:
            _expect(isinstance(raw[name], str), f"{name}: expected expression text or 'random'")
            setattr(cfg, name, raw[name])

    cfg.seed = raw.get("seed", 0)
    _expect(type(cfg.seed) is int and 0 <= cfg.seed < 2 ** 64,
            "seed: expected an unsigned 64-bit integer")
    cfg.degree_bound = raw.get("degree_bound", 2)
    _expect(type(cfg.degree_bound) is int and 0 <= cfg.degree_bound <= 6,
            "degree_bound: expected an integer in 0..6")
    cfg.samples = raw.get("samples", 25)
    _expect(type(cfg.samples) is int and 1 <= cfg.samples <= 9999,
            "samples: expected an integer in 1..9999")

    suites = raw.get("suites", [])
    _expect(isinstance(suites, list), "suites: expected a list of suite names")
    for s in suites:
        _expect(isinstance(s, str) and s in SUITE_RUNNERS,
                f"suites: unknown suite {s!r}")
    cfg.suites = tuple(suites)

    if "out" in raw:
        _expect(isinstance(raw["out"], str), "out: expected a path")
        cfg.out = raw["out"]
    cfg.format = raw.get("format", "text")
    _expect(cfg.format in ("text", "structured"), "format: expected 'text' or 'structured'")

    if law_raw is not None:
        cfg.constitutive = build_law(law_raw, cfg)
    for name, degree, twist in (("F", cfg.p, False), ("G", cfg.n - cfg.p, True),
                                ("J", cfg.n - cfg.p + 1, True)):
        text = getattr(cfg, name)
        if text not in (None, "random"):
            setattr(cfg, name, parse_form(text, chart, degree, twist=twist))
    if cfg.u != "random":
        cfg.u = parse_vector_field(cfg.u, chart)
    return cfg


def _build_metric(metric_raw, chart):
    _expect(isinstance(metric_raw, dict), "metric: expected an object")
    try:
        if "diagonal" in metric_raw:
            _expect(isinstance(metric_raw["diagonal"], list),
                    f"metric.diagonal: expected a list of {chart.n} rationals")
            entries = [_fraction(e, "metric.diagonal") for e in metric_raw["diagonal"]]
            return MetricSpec.diagonal(chart, entries)
        if "matrix" in metric_raw:
            rows = metric_raw["matrix"]
            _expect(isinstance(rows, list) and all(isinstance(r, list) for r in rows),
                    "metric.matrix: expected a list of rows")
            g = [[_fraction(e, "metric.matrix") for e in row] for row in rows]
            _expect(len(g) == chart.n and all(len(r) == chart.n for r in g),
                    f"metric.matrix: expected {chart.n}x{chart.n}")
            return MetricSpec(chart, g)
    except MetricError as e:
        raise ConfigError(f"metric: {e}")
    raise ConfigError("metric: expected 'diagonal' or 'matrix'")


def build_law(raw, cfg):
    """The law of the config's "constitutive" object `raw`, checked against
    the rest of the config; `cfg` holds every other key, F to u as text."""
    kind = raw["kind"]
    # an absent or null Z0 in the law defers to the top-level one
    Z0 = cfg.Z0 if raw.get("Z0") is None else raw["Z0"]
    if kind in ("maxwell-lorentz", "axion"):
        if raw.get("Z0") is not None:
            Z0 = _fraction(Z0, "constitutive.Z0")
            _expect(Z0 != 0, "constitutive.Z0: must be nonzero")
        _expect(Z0 is not None, "constitutive: metric-based laws need Z0")
    _expect(kind != "axion" or "alpha" in raw,
            "constitutive: axion law needs an alpha polynomial")
    _expect(cfg.G is None, "G: give either an explicit excitation or a constitutive law")
    chart = cfg.chart()
    if kind == "maxwell-lorentz":
        return MaxwellLorentz(cfg.metric_spec(), Z0)
    if kind == "axion":
        alpha = raw["alpha"]
        if isinstance(alpha, str):
            alpha = parse_polynomial(alpha, chart)
        else:
            alpha = _fraction(alpha, "constitutive.alpha")
        return Axion(cfg.metric_spec(), Z0, alpha)
    if kind == "linear-local":
        chi = []
        for r, row in enumerate(raw["chi"]):
            if not isinstance(row, list):
                raise ConfigError(f"constitutive.chi[{r}]: expected a row")
            entries = []
            for c, e in enumerate(row):
                try:  # a rational, else polynomial text
                    entries.append(_fraction(e, f"constitutive.chi[{r}][{c}]"))
                except ConfigError:
                    if not isinstance(e, str):
                        raise
                    entries.append(parse_polynomial(e, chart))
            chi.append(entries)
        return LinearLocal(chart, cfg.p, chi)
    return Custom(parse_form(raw["G"], chart, cfg.n - cfg.p, twist=True))

