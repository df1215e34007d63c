"""Run configuration: a JSON document validated into a RunConfig.

The schema is documented in docs/config.md.  Rational values are JSON
integers or strings like "3/4"; forms, vector fields and polynomial
coefficients are expression text (docs/grammar.md) or the string
"random".  Validation problems raise ConfigError with a dotted path to
the offending key.  Every expression is parsed and the law built here,
so nothing about the run starts until the whole document is sound.
"""

import json
import re
from fractions import Fraction
from types import SimpleNamespace

from .electrodynamics import Axion, Custom, LinearLocal, MaxwellLorentz
from .errors import ConfigError, FormSyntaxError, MetricError, StructuralError
from .formexpr import (MAX_LITERAL_DIGITS, _PRINT_LIMIT, parse_form,
                       parse_polynomial, parse_vector_field)
from .forms import Chart
from .hodge import MetricSpec
from .suites import SUITE_RUNNERS

_DEFAULT_SUITES = {
    "check": ("conservation", "identities"),
    "split": ("split",),
    "constitutive": ("phi",),
    "reciprocity": ("reciprocity", "factorization"),
}

_DIGIT_RUN = re.compile(r"[0-9]+")


def _fraction(value, path, nonzero=False):
    if isinstance(value, bool):
        raise ConfigError(f"{path}: expected a rational, got a boolean")
    if isinstance(value, int):
        if abs(value) >= _PRINT_LIMIT:
            raise _over_limit(path)
        value = Fraction(value)
    elif isinstance(value, str):
        value = _literal(value, path,
                         ConfigError(f"{path}: not a rational literal: {value!r}"))
    else:
        raise ConfigError(f"{path}: expected an integer or 'a/b' string, got {value!r}")
    _expect(value or not nonzero, f"{path}: must be nonzero")
    return value


def _literal(text, path, refused):
    """Fraction(text) for a Python rational literal such as "3/4", "1.5" or
    "1e2"; raises `refused` for other text.  A digit run or an exponent over
    MAX_LITERAL_DIGITS is refused before Fraction reads it (the syntax is
    checked with every digit run cut to "1"), and so is a value whose
    numerator or denominator needs more than MAX_LITERAL_DIGITS digits."""
    longest_run = max(map(len, _DIGIT_RUN.findall(text)), default=0)
    exponent = text.lower().partition("e")[2]
    try:
        too_long = (longest_run > MAX_LITERAL_DIGITS
                    or bool(exponent) and abs(int(exponent)) > MAX_LITERAL_DIGITS)
        value = Fraction(_DIGIT_RUN.sub("1", text) if too_long else text)
    except (ValueError, ZeroDivisionError):
        raise refused from None
    if too_long or max(abs(value.numerator), value.denominator) >= _PRINT_LIMIT:
        raise _over_limit(path)
    return value


def _over_limit(path):
    return ConfigError(
        f"{path}: rational literal exceeds the limit of {MAX_LITERAL_DIGITS} digits")


def _keyed(path, fn, *args, **kwargs):
    """fn(*args, **kwargs) with the key path in front of the message of a
    parse or shape error; the error keeps its type, line and column."""
    try:
        return fn(*args, **kwargs)
    except (FormSyntaxError, StructuralError) as e:
        e.args = (f"{path}: {e}",)
        raise


def _expect(cond, message):
    if not cond:
        raise ConfigError(message)


class RunConfig(SimpleNamespace):
    """One attribute per config key, in _fields.

    metric is a MetricSpec or None, Z0 a Fraction or None, z a tuple of
    Fractions or None, constitutive the built law or None; F and J are a
    Form or "random", G a Form, "random" or None (from the law if any),
    and u a VectorField or "random".
    """

    _fields = ("n", "p", "mode", "orientation", "metric", "Z0", "z",
               "constitutive", "F", "G", "J", "u", "seed", "degree_bound",
               "samples", "suites", "out", "format")

    def __init__(self, n=4, p=2, mode="real", orientation=1, metric=None,
                 Z0=None, z=None, constitutive=None, F="random", G=None,
                 J="random", u="random", seed=0, degree_bound=2, samples=25,
                 suites=(), out=None, format="text"):
        args = locals()
        super().__init__(**{name: args[name] for name in self._fields})

    def chart(self):
        return Chart(self.n, self.orientation, self.mode == "complex")

    def metric_spec(self):
        """The configured metric, defaulting to the diag(1,-1,...) one."""
        if self.metric is not None:
            return self.metric
        return MetricSpec.minkowski(self.chart())

    def shape(self, name):
        """(degree, twist) of the form F, G or J."""
        return {"F": (self.p, False), "G": (self.n - self.p, True),
                "J": (self.n - self.p + 1, True)}[name]

    def suites_for(self, command):
        if self.suites:
            return self.suites
        return _DEFAULT_SUITES[command]


_KNOWN_KEYS = frozenset(RunConfig._fields)

# the keys each kind of constitutive law reads
_LAW_KEYS = {MaxwellLorentz.kind: {"kind", "Z0"},
             Axion.kind: {"kind", "Z0", "alpha"},
             LinearLocal.kind: {"kind", "chi"},
             Custom.kind: {"kind", "G"}}
_CONSTITUTIVE_KINDS = tuple(_LAW_KEYS)


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    # ValueError: bytes that are not UTF-8, or an integer over the int digit
    # limit; RecursionError: arrays or objects nested past the decoder's depth
    except (OSError, ValueError, RecursionError) as e:
        raise ConfigError(f"cannot read config: {e}")
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
        cfg.Z0 = _fraction(raw["Z0"], "Z0", nonzero=True)
    if "z" in raw:
        zs = ({f"z[{k}]": v for k, v in enumerate(raw["z"])}
              if isinstance(raw["z"], list) else {"z": raw["z"]})
        _expect(zs, "z: expected a rational or a nonempty list")
        cfg.z = tuple(_fraction(v, key, nonzero=True) for key, v in zs.items())

    law_raw = raw.get("constitutive")
    if law_raw is not None:
        _expect(isinstance(law_raw, dict) and "kind" in law_raw,
                "constitutive: expected an object with a 'kind'")
        _expect(law_raw["kind"] in _CONSTITUTIVE_KINDS,
                f"constitutive.kind: expected one of {_CONSTITUTIVE_KINDS}")
        unknown = set(law_raw) - _LAW_KEYS[law_raw["kind"]]
        _expect(not unknown, f"constitutive: unknown keys for kind "
                             f"{law_raw['kind']!r}: {sorted(unknown)}")
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
    for k, s in enumerate(suites):
        _expect(isinstance(s, str) and s in SUITE_RUNNERS,
                f"suites: unknown suite {s!r}")
        _expect(s not in suites[:k], f"suites: duplicate suite {s!r}")
    cfg.suites = tuple(suites)

    if "out" in raw:
        _expect(isinstance(raw["out"], str), "out: expected a path")
        cfg.out = raw["out"]
    cfg.format = raw.get("format", "text")
    _expect(cfg.format in ("text", "structured"), "format: expected 'text' or 'structured'")

    if law_raw is not None:
        cfg.constitutive = build_law(law_raw, cfg)
    for name in "FGJ":
        text = getattr(cfg, name)
        if text not in (None, "random"):
            degree, twist = cfg.shape(name)
            setattr(cfg, name, _keyed(name, parse_form, text, chart, degree,
                                      twist=twist))
    if cfg.u != "random":
        cfg.u = _keyed("u", parse_vector_field, cfg.u, chart)
    return cfg


def _build_metric(metric_raw, chart):
    _expect(isinstance(metric_raw, dict), "metric: expected an object")
    unknown = set(metric_raw) - {"diagonal", "matrix"}
    _expect(not unknown, f"metric: unknown keys {sorted(unknown)}")
    _expect(len(metric_raw) < 2, "metric: expected 'diagonal' or 'matrix', not both")
    try:
        if "diagonal" in metric_raw:
            _expect(isinstance(metric_raw["diagonal"], list),
                    f"metric.diagonal: expected a list of {chart.n} rationals")
            entries = [_fraction(e, f"metric.diagonal[{k}]")
                       for k, e in enumerate(metric_raw["diagonal"])]
            return MetricSpec.diagonal(chart, entries)
        if "matrix" in metric_raw:
            rows = metric_raw["matrix"]
            _expect(isinstance(rows, list) and all(isinstance(r, list) for r in rows),
                    "metric.matrix: expected a list of rows")
            g = [[_fraction(e, f"metric.matrix[{r}][{c}]") for c, e in enumerate(row)]
                 for r, row in enumerate(rows)]
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
            Z0 = _fraction(Z0, "constitutive.Z0", nonzero=True)
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
            alpha = _keyed("constitutive.alpha", parse_polynomial, alpha, chart)
        else:
            alpha = _fraction(alpha, "constitutive.alpha")
        law = Axion(cfg.metric_spec(), Z0, alpha)
        _expect(law.alpha.is_zero() or cfg.n == 2 * cfg.p,
                "constitutive.alpha: axion term needs n = 2p")
        return law
    if kind == "linear-local":
        chi = []
        for r, row in enumerate(raw["chi"]):
            if not isinstance(row, list):
                raise ConfigError(f"constitutive.chi[{r}]: expected a row")
            chi.append([_chi_entry(e, f"constitutive.chi[{r}][{c}]", chart)
                        for c, e in enumerate(row)])
        return _keyed("constitutive.chi", LinearLocal, chart, cfg.p, chi)
    return Custom(_keyed("constitutive.G", parse_form, raw["G"], chart,
                         cfg.n - cfg.p, twist=True))


def _chi_entry(e, path, chart):
    """A chi entry read once: text goes to the parser, and only text it
    refuses is tried as a Python rational literal such as "1.5"."""
    if not isinstance(e, str):
        return _fraction(e, path)
    try:
        return _keyed(path, parse_polynomial, e, chart)
    except FormSyntaxError as err:
        return _literal(e, path, err)
