"""Run mutants of the package against the pinned report matrix.

    python3 tests/mutants.py > tests/data/mutant_matrix.txt

A mutant is a list of (module, old text, new text) edits to the package;
each old text must occur exactly once in its module, so a refactor that
moves or rewrites a line fails here loudly instead of testing nothing.
For each mutant the package in src/ beside this directory is copied to a
temporary directory, the edits are applied, and a fresh interpreter runs
`report_matrix.lines()` against the copy; os.cpu_count() interpreters run
at a time.  A run catches the mutant when its line differs from
tests/data/report_matrix.txt.  The tool prints one line per catch,
`<mutant> | <config> <command> <format> exit=<pinned>-><mutated>`, or
`<mutant> | none` for a mutant that no run catches: first the unmutated
copy, as `clean`, then MUTANTS in order, each with its runs in matrix
order.  tests/test_mutants.py pins these lines against
tests/data/mutant_matrix.txt, and the command above re-pins them.
pytest does not collect this file.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = ROOT / "tests" / "data" / "report_matrix.txt"

# the copied package must be imported before report_matrix puts the
# checkout's src/ first on sys.path; report_matrix then reuses it
RUN = """
import os, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import premetric.cli
if not premetric.__file__.startswith(sys.argv[1]):
    raise SystemExit("not the mutated copy: " + premetric.__file__)
import report_matrix
os.chdir(report_matrix.ROOT)
print("\\n".join(report_matrix.lines()))
"""

D_TERMS = ("forms.py", "signed, dm = _signed(-m if a.degree % 2 else m)",
           "signed, dm = _signed(m if a.degree % 2 else -m)")
TOP_D_TERMS = ("forms.py", "keep = sign == (m if n % 2 else -m)",
               "keep = sign != (m if n % 2 else -m)")
CONSTANT_LIE = ("forms.py", "[(c, d * poly._den, poly, j) for j, c, d in rows]",
                "[(-c, d * poly._den, poly, j) for j, c, d in rows]")

MUTANTS = {
    "contraction sign": [
        ("forms.py", "(row[0][sign], row[1] * poly._den, poly, row[2])",
         "(row[0][-sign], row[1] * poly._den, poly, row[2])")],
    "Cartan sign": [
        ("forms.py", "_d_terms(groups, 1, contract(u, a) if ua is None else ua)",
         "_d_terms(groups, -1, contract(u, a) if ua is None else ua)")],
    "wedge sign, 1-form left factor": [
        ("forms.py", "bc, (signed, dm) = b.components, _signed(m)",
         "bc, (signed, dm) = b.components, _signed(-m if a.degree == 1 else m)")],
    "_d_terms sign": [D_TERMS],
    "_top_d_terms sign": [TOP_D_TERMS],
    "FG = G^F": [
        ("electrodynamics.py", "self.FG = wedge(F, G)", "self.FG = wedge(G, F)")],
    "constant-u Lie sign": [CONSTANT_LIE],
    "_densities: force_u": [
        ("electrodynamics.py",
         "_wedge_terms(_wedge_terms(force, m, cfg.dF, uG), m, uF, cfg.dG)",
         "_wedge_terms(_wedge_terms(force, -m, cfg.dF, uG), -m, uF, cfg.dG)")],
    "_densities: F^uG": [
        ("electrodynamics.py", "_wedge_terms(sigma, m, cfg.F, uG)",
         "_wedge_terms(sigma, -m, cfg.F, uG)")],
    "_densities: L_uF^G": [
        ("electrodynamics.py", "_wedge_terms(phi, mp, lie_derivative(",
         "_wedge_terms(phi, -mp, lie_derivative(")],
    "_densities: u_FG": [
        ("electrodynamics.py", "return _contract_terms({}, mp, u, cfg.FG)",
         "return _contract_terms({}, -mp, u, cfg.FG)")],
    "densities(): sigma's half": [
        ("electrodynamics.py", "sigma.setdefault(idx, []).extend(top[idx])",
         "sigma.setdefault(idx, []).extend((-k, d, a, b) for k, d, a, b in top[idx])")],
    "densities(): phi's d of the half": [
        ("electrodynamics.py", "_top_d_terms(phi, -1, _Top(chart, True, top))",
         "_top_d_terms(phi, 1, _Top(chart, True, top))")],
    "_row_terms rational sign": [
        ("forms.py", "else (m.numerator, m.denominator * p._den, p, None)",
         "else (-m.numerator, m.denominator * p._den, p, None)")],
    "star_z: -F/z": [
        ("reciprocity.py", "pair.F.scale(-1 / pair.z, pseudo=True)",
         "pair.F.scale(1 / pair.z, pseudo=True)")],
    "self_reciprocal_pair: +i eigenpair's iF/z": [
        ("reciprocity.py", "FieldPairZ(pair.F - izG, pair.G + iF_z, pair.z)",
         "FieldPairZ(pair.F - izG, pair.G - iF_z, pair.z)")],
    "MetricSpec.star: one multiplier": [
        ("hodge.py", "(comp[rows][0], sign * root * minor)",
         "(comp[rows][0], (-1 if cols == tuple(range(n - p)) else 1) * sign * root * minor)")],
    "_split: time sign": [
        ("electrodynamics.py", "poly.scale(sign * sort_indices(rest + (0,))[1])",
         "poly.scale(-sign * sort_indices(rest + (0,))[1])")],
    "d negated everywhere": [D_TERMS, TOP_D_TERMS, CONSTANT_LIE],
    "_ratio: no gcd": [("formexpr.py", "g = gcd(num, den)", "g = 1")],
    "Polynomial.__eq__: real cross-den True": [
        ("scalars.py", "return all(v * db == b[k] * da for k, v in a.items())",
         "return True")],
}


def mutate(package, edits):
    """Apply edits to the package directory in place; each old text must
    occur exactly once in its module."""
    for module, old, new in edits:
        path = package / module
        text = path.read_text(encoding="utf-8")
        count = text.count(old)
        if count != 1:
            raise SystemExit(f"{module}: {old!r} occurs {count} times, not once")
        path.write_text(text.replace(old, new), encoding="utf-8")


def caught(name, edits, pinned):
    """The mutant's lines: one per run whose line differs from its pinned
    line, or `none`."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(ROOT / "src" / "premetric", copy / "premetric",
                        ignore=shutil.ignore_patterns("__pycache__"))
        mutate(copy / "premetric", edits)
        proc = subprocess.run(
            [sys.executable, "-B", "-c", RUN, str(copy), str(ROOT / "tests")],
            capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(proc.stderr)
    lines = proc.stdout.splitlines()
    if [line.split()[:3] for line in lines] != [line.split()[:3] for line in pinned]:
        raise SystemExit("the matrix runs differ from the pinned runs")
    return [f"{name} | {' '.join(old.split()[:4])}->{new.split()[3][5:]}"
            for old, new in zip(pinned, lines) if old != new] or [f"{name} | none"]


def lines():
    """The mutant matrix: clean first, then MUTANTS in order."""
    pinned = PINNED.read_text(encoding="utf-8").splitlines()
    mutants = {"clean": [], **MUTANTS}
    with ThreadPoolExecutor(os.cpu_count()) as pool:
        found = pool.map(lambda name: caught(name, mutants[name], pinned), mutants)
        return [line for mutant_lines in found for line in mutant_lines]


if __name__ == "__main__":
    print("\n".join(lines()))
