"""Digest every shipped config under every command and format.

    python3 tests/report_matrix.py > tests/data/report_matrix.txt

Runs `premetric.cli.main` in process on each config in configs/ and
tests/data/, for each command and each report format, and prints one line
per run: the config, the command, the format, the exit status and the
SHA-256 of what the run wrote to stdout and to stderr.  Two checkouts that
print the same lines produce the same reports, byte for byte, on every
shipped config.  tests/test_report_digests.py pins these lines against
tests/data/report_matrix.txt, and the command above re-pins them after a
deliberate report change.  pytest does not collect this file; the package
is imported from the src/ directory beside it.
"""

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from premetric import cli  # noqa: E402
from premetric.config import COMMANDS  # noqa: E402

FORMATS = ("text", "structured")


def configs():
    """The shipped configs, as paths relative to the checkout, sorted."""
    return sorted(path.relative_to(ROOT).as_posix()
                  for folder in ("configs", "tests/data")
                  for path in (ROOT / folder).glob("*.json"))


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(config, command, fmt):
    """(exit status, stdout, stderr) of one in-process CLI run; config is
    relative to the checkout, which is the working directory.  A run that
    raises has the status `raised:<exception type>`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main([command, "--config", config, "--format", fmt])
        except Exception as e:
            status = f"raised:{type(e).__name__}"
    return status, out.getvalue(), err.getvalue()


def runs():
    """The (config, command, format) of every run, in matrix order."""
    return [(config, command, fmt) for config in configs()
            for command in COMMANDS for fmt in FORMATS]


def line(config, command, fmt):
    """The matrix line of one run; the checkout is the working directory."""
    status, out, err = run(config, command, fmt)
    return (f"{config} {command} {fmt} exit={status} "
            f"stdout={digest(out)} stderr={digest(err)}")


def lines():
    """The matrix, one line per run; the checkout is the working directory."""
    return [line(*key) for key in runs()]


def main():
    os.chdir(ROOT)  # config paths, and so any message naming one, stay relative
    print("\n".join(lines()))


if __name__ == "__main__":
    main()
