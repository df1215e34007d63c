"""Correctness gate applied to every benchmarked invocation.

An invocation fails the gate when
  - an exception escapes `cli.main`, or the exit status is not 0 or 1;
  - the exit status disagrees with the report's verdict;
  - the report's row count differs from what the generated config implies;
  - a row tagged anything but `constit` reports FAIL;
  - a FAIL row's witness does not read back through `parse_form` as a
    nonzero twisted n-form.
`constit` rows are the phi_u checks under a non-metric law, which fail by
design, so their FAILs and the resulting exit status 1 are expected.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

EXPECTED_FAIL_TAG = "constit"

_ROW = re.compile(r"^  \[(PASS|FAIL)\] (\S+) \(([^()]*)\): .*$")
_WITNESS = "         witness: "
_VERDICT = re.compile(r"^(PASS|FAIL): (\d+) passed, (\d+) failed$")


@dataclass
class Row:
    check_id: str
    equation: str
    passed: bool
    witness: str


@dataclass
class ParsedReport:
    rows: list
    verdict: str
    passed: int
    failed: int


class ReportFormatError(ValueError):
    pass


def parse_text(text):
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("report: "):
        raise ReportFormatError("missing report header")
    verdict = _VERDICT.match(lines[-1])
    if verdict is None:
        raise ReportFormatError("missing verdict line")
    rows = []
    for line in lines[1:-1]:
        if line.startswith(_WITNESS):
            if not rows or rows[-1].passed or rows[-1].witness:
                raise ReportFormatError("witness line without a FAIL row")
            rows[-1].witness = line[len(_WITNESS):]
            continue
        m = _ROW.match(line)
        if m is None:
            raise ReportFormatError(f"unrecognised line {line!r}")
        rows.append(Row(m.group(2), m.group(3), m.group(1) == "PASS", ""))
    return ParsedReport(rows, verdict.group(1), int(verdict.group(2)),
                        int(verdict.group(3)))


def parse_structured(text):
    try:
        doc = json.loads(text)
        rows = [Row(c["id"], c["equation"], c["status"] == "PASS", c["witness"])
                for c in doc["checks"]]
        summary = doc["summary"]
        return ParsedReport(rows, summary["status"], summary["passed"],
                            summary["failed"])
    except (ValueError, KeyError, TypeError) as e:
        raise ReportFormatError(f"bad structured report: {e}")


def parse_report(text, structured):
    return parse_structured(text) if structured else parse_text(text)


def witness_reader():
    """Return witness_ok(text, n, complex_mode) built on the program's parser.

    Bind it before any tracing is installed: the gate must not add calls
    to the traced layers.
    """
    from premetric.errors import FormSyntaxError, StructuralError
    from premetric.formexpr import parse_form
    from premetric.forms import Chart

    def witness_ok(text, n, complex_mode):
        try:
            form = parse_form(text, Chart(n, 1, complex_mode), n, twist=True)
        except (FormSyntaxError, StructuralError):
            return False
        return not form.is_zero()

    return witness_ok


def check_invocation(exit_status, output, error, cfg, expected_rows,
                     structured, witness_ok):
    """(parsed report or None, problems); no problems means it passed.

    exit_status is None when an exception escaped; error then holds it.
    """
    if exit_status is None:
        last = (error.strip().splitlines() or ["?"])[-1]
        return None, [f"exception escaped: {last}"]
    if exit_status not in (0, 1):
        return None, [f"exit status {exit_status}: {error.strip()}"]
    try:
        report = parse_report(output, structured)
    except ReportFormatError as e:
        return None, [f"unreadable report: {e}"]

    problems = []
    fails = [r for r in report.rows if not r.passed]
    verdict = "FAIL" if fails else "PASS"
    if (report.verdict != verdict or report.failed != len(fails)
            or report.passed != len(report.rows) - len(fails)):
        problems.append("report summary disagrees with its rows")
    if exit_status != (1 if verdict == "FAIL" else 0):
        problems.append(f"exit status {exit_status} with verdict {verdict}")
    if len(report.rows) != expected_rows:
        problems.append(f"{len(report.rows)} rows, config implies {expected_rows}")
    complex_mode = cfg.get("mode") == "complex"
    for row in fails:
        if row.equation != EXPECTED_FAIL_TAG:
            problems.append(f"{row.check_id} ({row.equation}) FAILED")
        elif not witness_ok(row.witness, cfg["n"], complex_mode):
            problems.append(f"{row.check_id}: witness {row.witness!r} is not "
                            "a nonzero twisted n-form")
    return report, problems
