"""Per-layer tracing from outside the program.

The tracer wraps public functions and methods of the premetric modules by
patching the attribute in every premetric module (and module-level dict)
that bound the original, so `from .forms import wedge` call sites are
traced too.  Each wrapped call records a span (name, start, end, parent,
invocation) in flat in-memory arrays; spans are written to a sidecar file
when the run ends, never during it.

Bookkeeping that inspects arguments or results (term counts, coefficient
sizes, repeat keys) runs on a paused clock, so no span is charged for it.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

from premetric.forms import Form, VectorField

# (metric group, module, attribute) for every traced name.  A dotted
# attribute is a method looked up in the class's own __dict__.
TARGETS = (
    ("scalars.poly_mul", "scalars", "Polynomial.__mul__"),
    ("scalars.poly_add", "scalars", "Polynomial.__add__"),
    ("scalars.poly_scale", "scalars", "Polynomial.scale"),
    ("scalars.poly_partial", "scalars", "Polynomial.partial"),
    ("forms.wedge", "forms", "wedge"),
    ("forms.ext_d", "forms", "ext_d"),
    ("forms.contract", "forms", "contract"),
    ("forms.lie_derivative", "forms", "lie_derivative"),
    ("forms.form_add", "forms", "Form.__add__"),
    ("hodge.hodge", "hodge", "hodge"),
    ("hodge.metric_spec", "hodge", "MetricSpec.__init__"),
    ("formexpr.parse", "formexpr", "parse_form"),
    ("formexpr.parse", "formexpr", "parse_polynomial"),
    ("formexpr.parse", "formexpr", "parse_vector_field"),
    ("formexpr.print", "formexpr", "poly_str"),
    ("formexpr.print", "formexpr", "print_form"),
    ("electrodynamics.sigma_u", "electrodynamics", "sigma_u"),
    ("electrodynamics.force_u", "electrodynamics", "force_u"),
    ("electrodynamics.obstruction_phi_u", "electrodynamics", "obstruction_phi_u"),
    ("electrodynamics.conservation_residual", "electrodynamics",
     "conservation_residual"),
    ("electrodynamics.identity_suite", "electrodynamics", "identity_suite"),
    ("electrodynamics.law_apply", "electrodynamics", "MaxwellLorentz.apply"),
    ("electrodynamics.law_apply", "electrodynamics", "Axion.apply"),
    ("electrodynamics.law_apply", "electrodynamics", "LinearLocal.apply"),
    ("electrodynamics.law_apply", "electrodynamics", "Custom.apply"),
    ("reciprocity.star_z", "reciprocity", "star_z"),
    ("reciprocity.pair_tensor", "reciprocity", "pair_tensor"),
    ("reciprocity.self_reciprocal_pair", "reciprocity", "self_reciprocal_pair"),
    ("reciprocity.check_factorization", "reciprocity", "check_factorization"),
    ("randgen.random_form", "randgen", "random_form"),
    ("randgen.random_vector_field", "randgen", "random_vector_field"),
    ("config.load_config", "config", "load_config"),
    ("config.build_law", "config", "build_law"),
    ("suites.conservation", "suites", "conservation_suite"),
    ("suites.identities", "suites", "identities_suite"),
    ("suites.phi", "suites", "phi_suite"),
    ("suites.reciprocity", "suites", "reciprocity_suite"),
    ("suites.factorization", "suites", "factorization_suite"),
    ("report.render", "report", "Report.render_text"),
    ("report.render", "report", "Report.render_structured"),
    ("report.nonzero_witness", "report", "nonzero_witness"),
    ("cli.main", "cli", "main"),
)

# Groups whose call count is reported under another name, and groups
# whose count is not reported at all (only their self time is).
_COUNT_NAME = {"hodge.metric_spec": "builds"}
_NO_COUNT = {"config.load_config", "cli.main", "report.render",
             "suites.conservation", "suites.identities", "suites.phi",
             "suites.reciprocity", "suites.factorization"}
_FORMS_GROUPS = ("forms.wedge", "forms.ext_d", "forms.contract",
                 "forms.lie_derivative", "forms.form_add")

# Per-layer metrics that are counts of work and must repeat exactly
# between two traced runs with the same seed.
EXACT_EXTRA = ("scalars.poly_mul.term_pairs", "scalars.max_coeff_bits",
               "forms.repeat_ratio", "suites.checks",
               "hodge.metric_spec.builds")


# Metrics computed from bookkeeping rather than spans, listed after the
# group they belong to; they are absent when that group is.
_EXTRA = {
    "scalars.poly_mul": (("scalars.poly_mul.term_pairs", "count", "lower"),
                         ("scalars.max_coeff_bits", "bits", "lower")),
    "forms.form_add": (("forms.repeat_ratio", "ratio", "lower"),),
    "suites.factorization": (("suites.checks", "count", "higher"),),
}


def metric_specs():
    """(name, unit, better, group) for every per-layer metric, in report
    order; group is None for the one metric the caller measures."""
    specs = []
    for group in dict.fromkeys(group for group, _, _ in TARGETS):
        if group not in _NO_COUNT:
            specs.append((f"{group}.{_COUNT_NAME.get(group, 'calls')}",
                          "count", "lower", group))
        specs.append((f"{group}.self_s", "s", "lower", group))
        specs.extend(spec + (group,) for spec in _EXTRA.get(group, ()))
    specs.append(("trace.overhead_ratio", "ratio", "lower", None))
    return specs


def is_exact(name):
    return name.endswith(".calls") or name in EXACT_EXTRA


def self_times(start, end, parent):
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread and nest properly, so the children of a
    span are disjoint and lie inside it: the covered time is the sum of
    their durations.
    """
    covered = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    return [end[i] - start[i] - covered[i] for i in range(len(start))]


def _value_key(x):
    """Hashable value identity of a form operation argument."""
    if isinstance(x, Form):
        return (x.chart, x.degree, x.twist, frozenset(x.components.items()))
    if isinstance(x, VectorField):
        return (x.chart, x.components)
    return ("id", id(x))


def _coeff_bits(poly):
    """Largest numerator or denominator bit length of the coefficients,
    read from the Scalar layout (rational re, optional rational im)."""
    bits = 0
    for c in poly.terms.values():
        for q in (c.re, c.im):
            if q is not None:
                bits = max(bits, q.numerator.bit_length(),
                           q.denominator.bit_length())
    return bits


class Tracer:
    """Span recorder with a clock that skips the tracer's own bookkeeping."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.paused = 0.0
        self.active = False
        self.names = []
        self._name_ids = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.invocation = array("I")
        self._stack = []
        self._invocation = 0
        self._seen = set()
        self.counts = Counter()
        self.max_coeff_bits = 0
        self._patches = []
        self.absent = []
        self.unmeasured = set()

    def now(self):
        return self._clock() - self.paused

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin_invocation(self, k):
        self._invocation = k
        self._seen.clear()

    def enter(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.start.append(self.now())
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.invocation.append(self._invocation)
        self._stack.append(idx)
        return idx

    def exit(self, idx):
        self.end[idx] = self.now()
        self._stack.pop()

    # -- bookkeeping hooks (run on the paused clock) ---------------------

    def _note_repeat(self, span_name, args):
        key = (span_name,) + tuple(_value_key(a) for a in args)
        if key in self._seen:
            self.counts["forms.repeats"] += 1
        else:
            self._seen.add(key)

    def _note_mul(self, a, b, result):
        # A coefficient layout this code does not know makes the two
        # counters absent rather than failing the run.
        try:
            pairs = len(a.terms) * len(b.terms)
            bits = _coeff_bits(result)
        except (AttributeError, TypeError):
            self.unmeasured.update(spec[0] for spec in _EXTRA["scalars.poly_mul"])
            return
        self.counts["scalars.poly_mul.term_pairs"] += pairs
        self.max_coeff_bits = max(self.max_coeff_bits, bits)

    def _note_checks(self, result):
        self.counts["suites.checks"] += len(result)

    def wrap(self, group, span_name, fn):
        nid = self.name_id(span_name)
        note_args = group in _FORMS_GROUPS
        note_mul = group == "scalars.poly_mul"
        note_checks = group.startswith("suites.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if note_args:
                t = self._clock()
                self._note_repeat(span_name, args)
                self.paused += self._clock() - t
            idx = self.enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(idx)
            if note_mul or note_checks:
                t = self._clock()
                if note_mul:
                    self._note_mul(args[0], args[1], result)
                else:
                    self._note_checks(result)
                self.paused += self._clock() - t
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        """Patch every traced name; names the program no longer has are
        recorded in self.absent."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "premetric" or name.startswith("premetric.")]
        for group, module, attr in TARGETS:
            mod = sys.modules.get(f"premetric.{module}")
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = (vars(owner).get(member) if owner is not None else None)
            if original is None:
                self.absent.append(f"{module}.{attr}")
                continue
            wrapped = self.wrap(group, f"{module}.{attr}", original)
            if owner_name:
                self._patch(owner, member, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapped)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._patch(value, dkey, wrapped)

    def _patch(self, target, key, wrapped):
        if isinstance(target, dict):
            self._patches.append((target, key, target[key]))
            target[key] = wrapped
        else:
            self._patches.append((target, key, vars(target)[key]))
            setattr(target, key, wrapped)

    def uninstall(self):
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Per-layer metric values, None for those of absent groups."""
        group_of = {f"{m}.{a}": g for g, m, a in TARGETS}
        calls, self_s = Counter(), Counter()
        for nid, s in zip(self.name, self_times(self.start, self.end, self.parent)):
            group = group_of[self.names[nid]]
            calls[group] += 1
            self_s[group] += s
        present = {group_of[n] for n in self.names}
        forms_calls = sum(calls[g] for g in _FORMS_GROUPS)
        extra = {
            "scalars.poly_mul.term_pairs": self.counts["scalars.poly_mul.term_pairs"],
            "scalars.max_coeff_bits": self.max_coeff_bits,
            "forms.repeat_ratio": (self.counts["forms.repeats"] / forms_calls
                                   if forms_calls else 0.0),
            "suites.checks": self.counts["suites.checks"],
        }
        out = {}
        for name, _, _, group in metric_specs():
            if group is None:
                continue
            if group not in present or name in self.unmeasured:
                out[name] = None
            elif name in extra:
                out[name] = extra[name]
            elif name.endswith(".self_s"):
                out[name] = self_s[group]
            else:
                out[name] = calls[group]
        return out

    def inclusive_seconds(self, span_name):
        """(calls, total inclusive seconds) of one span name."""
        nid = self._name_ids.get(span_name)
        calls, total = 0, 0.0
        if nid is None:
            return calls, total
        for i, n in enumerate(self.name):
            if n == nid:
                calls += 1
                total += self.end[i] - self.start[i]
        return calls, total

    def spans_json(self):
        return {
            "names": self.names,
            "name": list(self.name),
            "start_us": [round(t * 1e6, 1) for t in self.start],
            "end_us": [round(t * 1e6, 1) for t in self.end],
            "parent": list(self.parent),
            "invocation": list(self.invocation),
        }
