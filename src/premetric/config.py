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
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

from .electrodynamics import Axion, Custom, LinearLocal, MaxwellLorentz
from .errors import ConfigError, FormSyntaxError, MetricError, StructuralError
from .formexpr import (MAX_LITERAL_DIGITS, _PRINT_LIMIT, parse_form,
                       parse_polynomial, parse_vector_field)
from .forms import Chart
from .hodge import MetricSpec
from .suites import SUITE_RUNNERS

# command -> (help line, default suites)
COMMANDS = {
    "check": ("run the conservation and intermediate-identity suites",
              ("conservation", "identities")),
    "split": ("run the 3+1 split/recompose roundtrip suite", ("split",)),
    "constitutive": ("check phi_u vanishing under the configured law", ("phi",)),
    "reciprocity": ("run the star_z and factorization suites",
                    ("reciprocity", "factorization")),
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

    metric is a MetricSpec or None (until metric_spec() needs one), Z0 a
    Fraction or None, z a nonempty tuple of Fractions, constitutive the
    built law or None; F and J are a Form or "random", G a Form, "random"
    or None (from the law if any), and u a VectorField or "random".
    """

    _fields = ("n", "p", "mode", "orientation", "metric", "Z0", "z",
               "constitutive", "F", "G", "J", "u", "seed", "degree_bound",
               "samples", "suites", "out", "format")

    def __init__(self, n=4, p=2, mode="real", orientation=1, metric=None, Z0=None,
                 z=(Fraction(1), Fraction(2), Fraction(-3), Fraction(1, 5)),
                 constitutive=None, F="random", G=None, J="random", u="random", seed=0,
                 degree_bound=2, samples=25, suites=(), out=None, format="text"):
        args = locals()
        super().__init__(**{name: args[name] for name in self._fields})

    def chart(self):
        return Chart(self.n, self.orientation, self.mode == "complex")

    def metric_spec(self):
        """The configured metric; the default diag(1,-1,...) one is built
        on first use and kept."""
        if self.metric is None:
            self.metric = MetricSpec.minkowski(self.chart())
        return self.metric

    def shape(self, name):
        """(degree, twist) of the form F, G or J."""
        return {"F": (self.p, False), "G": (self.n - self.p, True),
                "J": (self.n - self.p + 1, True)}[name]

    def suites_for(self, command):
        return self.suites or COMMANDS[command][1]


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_object)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    # ValueError: bytes that are not UTF-8, or an integer over the int digit
    # limit, and _object's ConfigError, passed on as it is; RecursionError:
    # arrays or objects nested past the decoder's depth
    except (OSError, ValueError, RecursionError) as e:
        raise e if isinstance(e, ConfigError) else ConfigError(f"cannot read config: {e}")
    return validate_config(raw)


def _object(pairs):
    """A JSON object at any depth, refusing a key given twice (json keeps the last)."""
    twice = sorted(key for key, count in Counter(key for key, _ in pairs).items() if count > 1)
    _expect(not twice, f"duplicate config keys: {twice}")
    return dict(pairs)


def _choice(raw, cfg, key, allowed, expected):
    """Set cfg.key from raw, or keep its default, whose type the value must
    have: JSON true/false load as bool, an int subclass, and are refused."""
    value = raw.get(key, getattr(cfg, key))
    _expect(type(value) is type(getattr(cfg, key)) and value in allowed,
            f"{key}: expected {expected}")
    setattr(cfg, key, value)


def validate_config(raw):
    _expect(isinstance(raw, dict), "config must be a JSON object")
    unknown = set(raw) - set(RunConfig._fields)
    _expect(not unknown, f"unknown config keys: {sorted(unknown)}")

    cfg = RunConfig()
    _choice(raw, cfg, "n", range(2, 9), "an integer in 2..8")
    for key, allowed, expected in (
            ("p", range(1, cfg.n), f"an integer in 1..{cfg.n - 1}"),
            ("mode", ("real", "complex"), "'real' or 'complex'"),
            ("orientation", (1, -1), "1 or -1"),
            ("seed", range(2 ** 64), "an unsigned 64-bit integer"),
            ("degree_bound", range(7), "an integer in 0..6"),
            ("samples", range(1, 10000), "an integer in 1..9999"),
            ("format", ("text", "structured"), "'text' or 'structured'")):
        _choice(raw, cfg, key, allowed, expected)
    chart = cfg.chart()

    if raw.get("metric") is not None:
        cfg.metric = _build_metric(raw["metric"], chart)
    if "Z0" in raw:
        cfg.Z0 = _fraction(raw["Z0"], "Z0", nonzero=True)
    if "z" in raw:
        zs = ({f"z[{k}]": v for k, v in enumerate(raw["z"])}
              if isinstance(raw["z"], list) else {"z": raw["z"]})
        _expect(zs, "z: expected a rational or a nonempty list")
        cfg.z = tuple(_fraction(v, key, nonzero=True) for key, v in zs.items())

    suites = raw.get("suites", ())
    _expect("suites" not in raw or (isinstance(suites, list) and suites),
            "suites: expected a nonempty list of suite names")
    for k, s in enumerate(suites):
        _expect(isinstance(s, str) and s in SUITE_RUNNERS,
                f"suites: unknown suite {s!r}")
        _expect(s not in suites[:k], f"suites: duplicate suite {s!r}")
    cfg.suites = tuple(suites)

    if "out" in raw:
        _expect(isinstance(raw["out"], str) and raw["out"], "out: expected a path")
        cfg.out = raw["out"]

    for name in ("F", "G", "J", "u"):
        if name in raw:
            text = raw[name]
            _expect(isinstance(text, str), f"{name}: expected expression text or 'random'")
            if text != "random":
                text = (_keyed(name, parse_vector_field, text, chart) if name == "u"
                        else _keyed(name, parse_form, text, chart, *cfg.shape(name)))
            setattr(cfg, name, text)
    if raw.get("constitutive") is not None:
        cfg.constitutive = build_law(raw["constitutive"], cfg)
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
    the rest of the config in `cfg` and built by its kind's reader."""
    _expect(isinstance(raw, dict) and "kind" in raw,
            "constitutive: expected an object with a 'kind'")
    # a tuple, so that an unhashable kind is refused rather than raising
    kinds = tuple(_LAWS)
    _expect(raw["kind"] in kinds, f"constitutive.kind: expected one of {kinds}")
    keys, reader = _LAWS[raw["kind"]]
    unknown = set(raw) - keys
    _expect(not unknown, f"constitutive: unknown keys for kind "
                         f"{raw['kind']!r}: {sorted(unknown)}")
    _expect(cfg.G is None, "G: give either an explicit excitation or a constitutive law")
    return reader(raw, cfg)


def _law_Z0(raw, cfg):
    # an absent or null Z0 in the law defers to the top-level one
    Z0 = (cfg.Z0 if raw.get("Z0") is None
          else _fraction(raw["Z0"], "constitutive.Z0", nonzero=True))
    _expect(Z0 is not None, "constitutive: metric-based laws need Z0")
    return Z0


def _axion(raw, cfg):
    Z0 = _law_Z0(raw, cfg)
    _expect("alpha" in raw, "constitutive: axion law needs an alpha polynomial")
    alpha = _coefficient(raw["alpha"], "constitutive.alpha", cfg.chart())
    law = _keyed("constitutive.alpha", Axion, cfg.metric_spec(), Z0, alpha)
    _expect(law.alpha.is_zero() or cfg.n == 2 * cfg.p,
            "constitutive.alpha: axion term needs n = 2p")
    return law


def _linear_local(raw, cfg):
    rows, chart = raw.get("chi"), cfg.chart()
    _expect(isinstance(rows, list),
            "constitutive.chi: expected a matrix of rationals or expressions")
    chi = []
    for r, row in enumerate(rows):
        _expect(isinstance(row, list), f"constitutive.chi[{r}]: expected a row")
        chi.append([_coefficient(e, f"constitutive.chi[{r}][{c}]", chart)
                    for c, e in enumerate(row)])
    return _keyed("constitutive.chi", LinearLocal, chart, cfg.p, chi)


def _custom(raw, cfg):
    _expect(isinstance(raw.get("G"), str),
            "constitutive.G: custom laws need a fixed excitation expression")
    return Custom(_keyed("constitutive.G", parse_form, raw["G"], cfg.chart(),
                         *cfg.shape("G")))


# kind -> (the keys its object may hold, the reader that builds the law)
_LAWS = {
    MaxwellLorentz.kind: ({"kind", "Z0"}, lambda raw, cfg: MaxwellLorentz(
        cfg.metric_spec(), _law_Z0(raw, cfg))),
    Axion.kind: ({"kind", "Z0", "alpha"}, _axion),
    LinearLocal.kind: ({"kind", "chi"}, _linear_local),
    Custom.kind: ({"kind", "G"}, _custom),
}


def _coefficient(e, path, chart):
    """An axion alpha or a chi entry, read once: text goes to the parser, and
    only text it refuses is tried as a Python rational literal ("1.5")."""
    if not isinstance(e, str):
        return _fraction(e, path)
    try:
        return _keyed(path, parse_polynomial, e, chart)
    except FormSyntaxError as err:
        return _literal(e, path, err)
