"""The benchmark's own self-tests, run with the unit tests.

bench/spans.py traces package functions by name (`Polynomial.scale`,
`random_form`, `cli.main`, ...).  Renaming or deleting one of them fails
`bench/test_bench.py`; running it here makes that a unit-test failure
as well.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_self_tests_pass():
    r = subprocess.run([sys.executable, str(ROOT / "bench" / "test_bench.py")],
                       cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stdout + r.stderr
