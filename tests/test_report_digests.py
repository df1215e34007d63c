"""The pinned report contract: byte-identical reports across builds.

Two pins hold it.  The first is the report matrix of
tests/report_matrix.py: the exit status and the SHA-256 of stdout and
stderr of every config in configs/ and tests/data/ under every command
and format, against tests/data/report_matrix.txt, one test per line, so
a failure names the run whose report changed; one more test checks that
the pinned lines name exactly the runs the matrix makes, in order.  Besides the shipped
examples, tests/data holds `linear-local-poly.json`, a linear-local chi
with polynomial entries whose FAIL witnesses print non-trivial rational
coefficients; `check-n6.json` (real, n = 6, p = 3) and `check-c5.json`
(complex, n = 5, p = 2), which take the form operations past n = 4;
`reciprocity-e6.json` (complex, n = 6, p = 3) and `reciprocity-e2.json`
(real, n = 2, p = 1), the pair map and the factorization at odd p under
a Euclidean metric, where the densities are negated; and
`check-const-u.json` (complex, n = 5, p = 2), check along the constant
field dx0 + 1/2*dx3, so the contractions and Lie derivatives take their
constant-field paths.

The second is the seed-1 run digest of each benchmark workload: the
SHA-256 over the reports of its first 100 invocations, computed by
bench/run.py's own Runner, which must also find no gate problem.

A change to the arithmetic that alters a single report byte fails one of
them.  A deliberate report change re-pins the matrix with
`python3 tests/report_matrix.py > tests/data/report_matrix.txt`, updates
RUN_DIGESTS, and says so in CHANGES.md.
"""

import json
import subprocess
import sys

import pytest

import report_matrix

ROOT = report_matrix.ROOT


PINNED = (ROOT / "tests" / "data" / "report_matrix.txt").read_text(
    encoding="utf-8").splitlines()


def _run_of(line):
    """The (config, command, format) that a matrix line names."""
    return tuple(line.split()[:3])


def test_report_matrix_runs_are_pinned():
    assert [_run_of(line) for line in PINNED] == report_matrix.runs()


@pytest.mark.parametrize("pinned", PINNED,
                         ids=lambda line: "-".join(_run_of(line)))
def test_report_matrix_line_is_pinned(pinned, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert report_matrix.line(*_run_of(pinned)) == pinned


def test_report_matrix_line_records_a_crash(monkeypatch):
    def crash(argv):
        raise TypeError("mutated")

    monkeypatch.setattr(report_matrix.cli, "main", crash)
    line = report_matrix.line("configs/vacuum.json", "check", "text")
    assert line.split()[:4] == ["configs/vacuum.json", "check", "text", "exit=raised:TypeError"]


RUN_DIGESTS = {
    "check-n6": "97e6f7d90a2e8fa6f49edd19f0ec271374e178b99269c6649d955e68104e2502",
    "reciprocity-c4": "9374ee816f6da0a6cc7ad071f80de40a3e8c3ec54eea681c8430a13db27cbf99",
    "constitutive-ll4": "b5cfed1e989dcb99149ec33609a2cba977624250c2396ced300b891862a23506",
}

# The first 100 invocations of one workload at seed 1, through bench/run.py's
# own Runner and gate; prints [run digest, gate problems] as JSON.
_RUN_DIGEST = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import run
from workloads import WORKLOADS

runner = run.Runner(WORKLOADS[sys.argv[3]], 1)
try:
    for k in range(run.MIN_INVOCATIONS):
        runner.invoke(k)
finally:
    runner.cleanup()
print(json.dumps([runner.run_digest(run.MIN_INVOCATIONS), runner.problems]))
"""


@pytest.mark.parametrize("workload", sorted(RUN_DIGESTS))
def test_run_digest_is_pinned(workload):
    r = subprocess.run([sys.executable, "-c", _RUN_DIGEST, str(ROOT / "bench"),
                        str(ROOT / "src"), workload], cwd=ROOT,
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stdout + r.stderr
    assert json.loads(r.stdout.splitlines()[-1]) == [RUN_DIGESTS[workload], []]
