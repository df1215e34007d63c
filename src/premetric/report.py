"""Check results and deterministic report assembly.

A report is a plain data object with a stable JSON schema (see
docs/report.md): command, seed, and a list of checks sorted by id.  The
JSON rendering uses sorted keys and fixed separators and contains no
timestamps or environment data, so identical runs produce byte-identical
output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .formexpr import poly_str

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CheckResult:
    check_id: str        # unique within a report; reports sort by it
    equation: str        # stable equation tag ("en-mom", "recip2", ...)
    description: str
    passed: bool
    witness: str = ""    # on failure: an offending nonzero component

    def to_json_dict(self):
        return {
            "id": self.check_id,
            "equation": self.equation,
            "description": self.description,
            "status": "PASS" if self.passed else "FAIL",
            "witness": self.witness,
        }


@dataclass
class Report:
    command: str
    seed: int
    checks: list = field(default_factory=list)

    def extend(self, checks):
        self.checks.extend(checks)

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
