"""Leftovers in the package source, found with the standard library's ast.

Three checks over every module of src/radform: each imported name is used
in its module (or re-exported through __all__); each private module-level
name (one leading underscore) is referenced somewhere in the package, so a
helper orphaned by a refactor fails here; and each runtime
`raise AssertionError` is listed with the printed claim it backs.
"""

import ast
import pathlib
from collections import Counter

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "radform"
MODULES = sorted(SRC.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in MODULES}


def imported_names(tree):
    """(name bound by an import, line) for each import of a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def exported_names(tree):
    """The strings listed in a module's __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def referenced_names(tree):
    """Every name a module loads, reads as an attribute, or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def private_definitions(tree):
    """(name, line) of each module-level def, class or assignment whose
    name has one leading underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


@pytest.mark.parametrize("module", list(TREES))
def test_every_import_is_used(module):
    tree = TREES[module]
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    used = loaded | exported_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{module} imports names it never uses: {', '.join(unused)}"


def test_every_private_name_is_referenced():
    referenced = set().union(*(referenced_names(tree) for tree in TREES.values()))
    orphans = [f"{module}:{line} {name}" for module, tree in TREES.items()
               for name, line in private_definitions(tree) if name not in referenced]
    assert not orphans, f"private names that nothing references: {', '.join(orphans)}"


# The printed claim that each runtime AssertionError backs, one entry per
# site.  A check that holds by construction, or repeats another check,
# belongs in a test instead; a new site fails here until it is listed.
ASSERTION_CLAIMS = {
    ("cli", "_unit_power"): ["`character` prints chi as w(q)^m"],
    ("multipoly", "symmetrize"): ["the printed s-basis form expands back to f"],
    ("multipoly", "_scalar_kth_root"): [
        "a printed refutation root, or a derived witness, is a true k-th root"],
    ("obstruction", "keeping_symmetry"): [
        "the character agrees with the printed generator check",
        "the printed triviality proof for n >= 5"],
    ("obstruction", "run_ruffini"): [
        "'symmetry kept' at every earlier level",
        "the even-symmetric final substitution of the closing contradiction",
        "the nonzero difference that the closing contradiction prints"],
    ("permchar", "_force_by_coprime_exponent"): ["the printed line '... forces chi(g) = 1'"],
    ("permchar", "_derive_generator_trivial_q_not_3"): [
        "the printed 'cube is the identity (machine checked)'"],
    ("permchar", "_derive_generator_trivial_q_3"): [
        "the printed five-cycle factorization '(machine checked)'",
        "the printed fifth powers of the two five-cycles"],
    ("permchar", "verify_hom_trivial"): ["the printed oracle line '(perfect)'"],
    ("resolvent", "abel_polynomialize"): ["the PASS lines of every abelize step"],
    ("tower", "inverse"): ["every inverse, by a * adj(a) == N(a)"],
}


def assertion_sites(node, scope=None):
    """The innermost enclosing function of each `raise AssertionError`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from assertion_sites(child, child.name)
            continue
        if isinstance(child, ast.Raise) and child.exc is not None:
            raised = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            if isinstance(raised, ast.Name) and raised.id == "AssertionError":
                yield scope
        yield from assertion_sites(child, scope)


def test_every_runtime_assertion_backs_a_listed_claim():
    found = Counter((module.removesuffix(".py"), scope)
                    for module, tree in TREES.items() for scope in assertion_sites(tree))
    listed = Counter({site: len(claims) for site, claims in ASSERTION_CLAIMS.items()})
    assert found == listed, (
        f"unlisted sites: {dict(found - listed)}; listed but gone: {dict(listed - found)}")
