"""The benchmark's own self-tests, run with the unit tests.

bench/spans.py traces package functions by name (`Polynomial.scale`,
`random_form`, `cli.main`, ...).  Renaming or deleting one of them fails
`bench/test_bench.py`; running it here makes that a unit-test failure
as well.  The tracer also reads the polynomials it sees (`.terms`), so a
read that changed a value behind the program's back would make a traced
report differ from the untraced one; bench/run.py's gate for that runs
here on two invocations of every workload.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_self_tests_pass():
    r = subprocess.run([sys.executable, str(ROOT / "bench" / "test_bench.py")],
                       cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stdout + r.stderr


# Invocations 1 and 15 of every workload at seed 1, each first untraced and
# then traced, through bench/run.py's own Runner and gate; prints the
# problems the gate found, by workload, as JSON.
_TRACED_GATE = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import run, spans
from workloads import WORKLOADS

problems = {}
for name, workload in sorted(WORKLOADS.items()):
    runner, tracer = run.Runner(workload, 1), spans.Tracer()
    try:
        for k in (1, 15):
            runner.invoke(k)
        tracer.install()
        for k in (1, 15):
            tracer.begin_invocation(k)
            runner.invoke(k, tracer)
    finally:
        tracer.uninstall()
        runner.cleanup()
    problems[name] = runner.problems
print(json.dumps(problems))
"""


def test_traced_reports_are_the_untraced_reports():
    r = subprocess.run([sys.executable, "-c", _TRACED_GATE, str(ROOT / "bench"),
                        str(ROOT / "src")], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stdout + r.stderr
    problems = json.loads(r.stdout.splitlines()[-1])
    assert sorted(problems) == ["check-n6", "constitutive-ll4", "reciprocity-c4"]
    assert problems == {name: [] for name in problems}
