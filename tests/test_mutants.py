"""The pinned mutant matrix: tests/mutants.py's lines, which runs catch
each sign mutant, against tests/data/mutant_matrix.txt.  A lost catch
fails here, and so does a new one until the file is re-pinned with
`python3 tests/mutants.py > tests/data/mutant_matrix.txt`."""

import difflib

import mutants


def test_mutant_matrix_is_pinned():
    pinned = (mutants.ROOT / "tests" / "data" / "mutant_matrix.txt").read_text(
        encoding="utf-8").splitlines()
    diff = "\n".join(difflib.unified_diff(pinned, mutants.lines(), "pinned", "mutants.py",
                                          lineterm=""))
    assert not diff, "\n" + diff
