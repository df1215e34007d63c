"""Mutated shipped configs through the in-process CLI.

Each example takes a config from configs/ or tests/data/ and one of the
four commands, sets or deletes one to three keys (top-level, or of the
`constitutive` or `metric` object) with values from a fixed pool of wrong
types, out-of-range numbers, malformed expressions (among them
parentheses nested past the parser's limit, and far past Python's
recursion limit) and valid alternatives (among them nesting at the
limit), and runs `cli.main` on it.  Whatever the input, the run
ends with status 0, 1 or 2 and no exception: on 2 stdout is empty and
stderr is one `premetric: error:` line; on 0 or 1 the report is complete
and its verdict agrees with the status.  `samples` is clamped to 1 and
`degree_bound` to at most 2 so that every run stays short.
"""

import copy
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from premetric import cli
from premetric.formexpr import MAX_NESTING

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = {path.name: json.loads(path.read_text(encoding="utf-8"))
           for pattern in ("configs/*.json", "tests/data/*.json")
           for path in sorted(ROOT.glob(pattern))}
COMMANDS = ("check", "split", "constitutive", "reciprocity")

OFFDIAG = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]


def nested(depth, body):
    return "(" * depth + body + ")" * depth


WRONG = [None, True, False, 0, -1, -7, 10 ** 30, 0.5, -2.0, "", [], {},
         [1, "x"], {"a": 1}, "((", "x9", "dx0^dx0", "x0^200", "1e999", "i",
         "random", nested(MAX_NESTING + 1, "x1"), nested(300, "x0") + "*dx0^dx1",
         "(" * 1000]
VALID = {
    "n": [2, 3, 4, 5], "p": [1, 2, 3], "mode": ["real", "complex"],
    "orientation": [1, -1], "seed": [0, 7], "degree_bound": [0, 1, 2],
    "samples": [1], "format": ["text", "structured"],
    "suites": [["conservation"], ["identities"], ["split"], ["phi"],
               ["reciprocity"], ["factorization"], ["split", "conservation"]],
    "metric": [{"diagonal": [1, -1, -1, -1]}, {"matrix": OFFDIAG}],
    "Z0": [1, "377/120", "-1/2"], "z": [[1, 2, -3, "1/5"], 2, "1/3"],
    "constitutive": [{"kind": "maxwell-lorentz", "Z0": 1},
                     {"kind": "axion", "Z0": 1, "alpha": "x1"},
                     {"kind": "custom", "G": "(x1)*dx2^dx3"}],
    "F": ["random", "dx0^dx1", "dx0^dx2 + (x2)*dx1^dx3",
          nested(MAX_NESTING, "x2") + "*dx1^dx3"],
    "G": ["random", "dx2^dx3", "(x0)*dx0^dx1"],
    "J": ["random", "dx0^dx1^dx2", "(1 + 2*i)*dx1^dx2^dx3"],
    "u": ["random", "dx0", "dx0 + (x1)*dx2"],
    "out": ["report.txt"],
    "kind": ["maxwell-lorentz", "axion", "linear-local", "custom"],
    "alpha": ["x1", "x0^2 - 1/3", 2, nested(MAX_NESTING, "x1")],
    "chi": [[[1] * 6] * 6, [[nested(MAX_NESTING, "x2")] * 6] * 6],
    "diagonal": [[1, -1, -1, -1], [1, 1, 1, 1], [4, -1, -1, -1]],
    "matrix": [OFFDIAG],
}
KEYS = {
    None: ["n", "p", "mode", "orientation", "metric", "Z0", "z",
           "constitutive", "F", "G", "J", "u", "seed", "degree_bound",
           "samples", "suites", "out", "format", "bogus"],
    "constitutive": ["kind", "Z0", "alpha", "chi", "G", "bogus"],
    "metric": ["diagonal", "matrix", "bogus"],
}
VERDICT = re.compile(r"(PASS|FAIL): (\d+) passed, (\d+) failed")


@st.composite
def mutated_configs(draw):
    raw = copy.deepcopy(SHIPPED[draw(st.sampled_from(sorted(SHIPPED)))])
    for _ in range(draw(st.integers(1, 3))):
        section = draw(st.sampled_from(tuple(KEYS)))
        target = raw
        if section is not None:
            if not isinstance(raw.get(section), dict):
                raw[section] = {}
            target = raw[section]
        key = draw(st.sampled_from(KEYS[section]))
        action = draw(st.sampled_from(("delete", "valid", "wrong")))
        if action == "delete":
            target.pop(key, None)
        else:
            pool = VALID.get(key, WRONG) if action == "valid" else WRONG
            target[key] = copy.deepcopy(draw(st.sampled_from(pool)))
    # the work bound: one sample, degree at most 2; invalid values stay
    for key, cap in (("samples", 1), ("degree_bound", 2)):
        if type(raw.get(key)) is int and raw[key] > cap:
            raw[key] = cap
    return draw(st.sampled_from(COMMANDS)), raw


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True,
                     suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture])
@hypothesis.given(mutated_configs())
def test_mutated_configs_exit_cleanly(tmp_path, monkeypatch, case):
    command, raw = case
    monkeypatch.chdir(tmp_path)  # a relative "out" lands in tmp_path
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        status = cli.main([command, "--config", str(path)])
    out, err = stdout.getvalue(), stderr.getvalue()
    assert status in (0, 1, 2), (command, raw)
    if status == 2:
        assert out == "", (command, raw)
        assert err.startswith("premetric: error: ") and err.count("\n") == 1 \
            and err.endswith("\n"), (command, raw, err)
        return
    assert err == "", (command, raw)
    target = raw.get("out")
    if isinstance(target, str) and target:
        assert out == ""
        out = (tmp_path / target).read_text(encoding="utf-8")
        (tmp_path / target).unlink()
    verdict = "PASS" if status == 0 else "FAIL"
    if raw.get("format") == "structured":
        summary = json.loads(out)["summary"]
        assert summary["status"] == verdict and summary["total"] > 0, (command, raw)
    else:
        lines = out.splitlines()
        assert out.endswith("\n") and lines[0].startswith(f"report: {command} (seed ")
        last = VERDICT.fullmatch(lines[-1])
        assert last and last[1] == verdict, (command, raw, lines[-1])
        assert int(last[2]) + int(last[3]) == len(
            [line for line in lines if line.startswith("  [")]) > 0
