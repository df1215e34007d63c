"""Check results and deterministic report assembly.

A report is a plain data object with a stable JSON schema (see
docs/report.md): command, seed, and a list of checks sorted by id.  The
JSON rendering uses sorted keys and fixed separators and contains no
timestamps or environment data, so identical runs produce byte-identical
output.
"""

import json
from collections import namedtuple
from types import SimpleNamespace

from .formexpr import poly_str

SCHEMA_VERSION = 1


class CheckResult(namedtuple("CheckResult",
                             "check_id equation description passed witness",
                             defaults=("",))):
    """One report row.  check_id is unique within a report, which sorts by
    it; equation is a stable tag ("en-mom", "recip2", ...); witness is, on
    failure, an offending nonzero component, and "" otherwise."""

    __slots__ = ()

    def to_json_dict(self):
        return {
            "id": self.check_id,
            "equation": self.equation,
            "description": self.description,
            "status": "PASS" if self.passed else "FAIL",
            "witness": self.witness,
        }


class Report(SimpleNamespace):
    """The rows of one run of a command; `checks` defaults to a new list."""

    def __init__(self, command, seed, checks=None):
        super().__init__(command=command, seed=seed,
                         checks=[] if checks is None else checks)

    def sorted_checks(self):
        return sorted(self.checks, key=lambda c: c.check_id)

    def all_passed(self):
        return all(c.passed for c in self.checks)

    def counts(self):
        passed = sum(1 for c in self.checks if c.passed)
        return passed, len(self.checks) - passed

    def to_json_dict(self):
        return {
            "schema": SCHEMA_VERSION,
            "command": self.command,
            "seed": self.seed,
            "checks": [c.to_json_dict() for c in self.sorted_checks()],
            "summary": {
                "total": len(self.checks),
                "passed": self.counts()[0],
                "failed": self.counts()[1],
                "status": "PASS" if self.all_passed() else "FAIL",
            },
        }

    def render_structured(self):
        return json.dumps(self.to_json_dict(), sort_keys=True,
                          separators=(",", ": "), indent=2) + "\n"

    def render_text(self):
        lines = [f"report: {self.command} (seed {self.seed})"]
        for c in self.sorted_checks():
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"  [{status}] {c.check_id} ({c.equation}): {c.description}")
            if not c.passed and c.witness:
                lines.append(f"         witness: {c.witness}")
        passed, failed = self.counts()
        verdict = "PASS" if self.all_passed() else "FAIL"
        lines.append(f"{verdict}: {passed} passed, {failed} failed")
        return "\n".join(lines) + "\n"


def residual_check(check_id, equation, description, *claims):
    """The row for claims that each hold: a claim is a residual form that
    must vanish, or a pair (lhs, rhs) of forms that must be equal.  PASS
    when all hold, else FAIL with the witness of the first failing claim's
    residual, lhs - rhs for a pair.  Forms are canonical, so a pair is
    decided by lhs == rhs and its difference is formed only on failure."""
    for claim in claims:
        if isinstance(claim, tuple):
            lhs, rhs = claim
            if lhs == rhs:
                continue
            claim = lhs - rhs
        if not claim.is_zero():
            return CheckResult(check_id, equation, description, False,
                               nonzero_witness(claim))
    return CheckResult(check_id, equation, description, True)


def nonzero_witness(form) -> str:
    """First nonzero component of a form, in the expression grammar."""
    if form.is_zero():
        return ""
    idx = min(form.components)
    poly = form.components[idx]
    basis = "^".join(f"dx{k}" for k in idx)
    if not basis:
        return poly_str(poly)
    return f"({poly_str(poly)})*{basis}"
