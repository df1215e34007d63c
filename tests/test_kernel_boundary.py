"""Finished terms have one owner.

`scalars.term_sum` is the only way terms become a polynomial, and its
finished terms `(num, d, a, b)` carry raw denominators read from a
polynomial's `_den` and `_nums` slots.  Only `scalars` and `forms` write
such terms, so only they import `term_sum`; `formexpr` also reads the raw
slots, to feed `monomial_sum`.  Every other module reaches the kernel
through a form operation or through `forms._built` and the form adders;
`forms._form` is the one unchecked Form constructor.
The OR of a polynomial's raw keys, kept in `_bits` for the exponent
guard, is `scalars`' own: no other module reads or writes it.  Inside
`electrodynamics`, `_densities` is the one writer of energy-momentum
terms: only it reads a config's F ^ G or calls `_contract_terms`.  Its
readers only regroup what it returns: `densities()` halves the
u _| (F ^ G) terms before they join sigma_u, and phi_u's d of minus them.
"""

import ast
from pathlib import Path

import premetric
from premetric import cli, electrodynamics, forms, reciprocity, scalars

SRC = Path(premetric.__file__).parent
RAW_READERS = {"scalars.py", "forms.py", "formexpr.py"}
KERNEL_IMPORTERS = {"scalars.py", "forms.py"}


def modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), str(path))


def test_the_package_has_modules_to_check():
    names = {name for name, _ in modules()}
    assert {"hodge.py", "electrodynamics.py", "reciprocity.py"} <= names


def test_only_scalars_forms_and_formexpr_read_raw_slots():
    readers = {name for name, tree in modules() for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr in ("_den", "_nums")}
    assert readers <= RAW_READERS
    assert readers >= {"scalars.py", "forms.py"}


def test_only_scalars_and_forms_reach_term_sum():
    importers = set()
    for name, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and any(
                    alias.name == "term_sum" for alias in node.names):
                importers.add(name)
            elif isinstance(node, ast.Attribute) and node.attr == "term_sum":
                importers.add(name)
    assert importers <= KERNEL_IMPORTERS
    assert "forms.py" in importers


def test_only_scalars_touches_the_key_bits():
    # an attribute read or write, a getattr/setattr by name, or the helper
    touchers = {name for name, tree in modules() for node in ast.walk(tree)
                if (isinstance(node, ast.Attribute) and node.attr == "_bits")
                or (isinstance(node, ast.Constant) and node.value == "_bits")
                or (isinstance(node, ast.Name) and node.id == "_key_bits")
                or (isinstance(node, ast.alias) and node.name == "_key_bits")}
    assert touchers == {"scalars.py"}


def test_only_densities_contracts_or_reads_FG_in_electrodynamics():
    # the one writer of energy-momentum terms is the only code there that
    # reads the config's F ^ G or contracts terms
    tree = ast.parse((SRC / "electrodynamics.py").read_text())

    def reads(root):
        return {id(node) for node in ast.walk(root)
                if (isinstance(node, ast.Attribute) and node.attr == "FG"
                    and isinstance(node.ctx, ast.Load))
                or (isinstance(node, ast.Name) and node.id == "_contract_terms")}

    writer, = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "_densities"]
    assert reads(writer)
    assert reads(tree) == reads(writer)


def test_the_retired_entry_points_are_gone():
    assert not hasattr(scalars, "poly_sum")
    assert not hasattr(forms, "_components")
    assert not hasattr(electrodynamics, "_summed")
    assert not hasattr(scalars, "_guard_mask")
    assert not hasattr(electrodynamics, "_force_terms")
    assert not hasattr(forms, "wedge_sum")
    assert not hasattr(forms.Form, "_raw")
    assert not hasattr(cli, "run")
    assert not hasattr(reciprocity._Tensor, "__getitem__")
