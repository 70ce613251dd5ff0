"""Every public name and every private helper has a caller outside the
tests.

A name in a module's ``__all__``, and a private (one leading underscore)
module-level function or method of ``src/drinfan``, must be used by code
in ``src/drinfan`` (another module or its own), in ``scripts/`` or in
``perfbench/``.  Uses are names and attributes in the syntax tree, so a
mention in a docstring or a comment does not count, and neither does the
body of the name's own definition.  Test-only helpers live in the tests
that use them.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "drinfan"

# reference oracles that stay public with no caller outside the tests
ALLOWED = {"epsilon.epsilon_hat_oracle"}


def _used_names(tree, skip=None):
    """Names and attributes used in a tree, leaving out the top-level
    definition named skip."""
    used = set()
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) \
                and top.name == skip:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _public_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _trees():
    return {path: ast.parse(path.read_text())
            for folder in (PACKAGE, ROOT / "scripts", ROOT / "perfbench")
            for path in sorted(folder.glob("*.py"))}


def _uses(node):
    """How often each name or attribute is used in a node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _private_defs(tree):
    """The private module-level functions and methods of a module, as
    (qualified name, definition)."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for top in tree.body:
        if isinstance(top, funcs):
            defs = [(top.name, top)]
        elif isinstance(top, ast.ClassDef):
            defs = [(f"{top.name}.{d.name}", d) for d in top.body
                    if isinstance(d, funcs)]
        else:
            continue
        for qualname, d in defs:
            if d.name.startswith("_") and not d.name.startswith("__"):
                yield qualname, d


def test_every_public_name_is_used_outside_the_tests():
    trees = _trees()
    uses = {path: _used_names(tree) for path, tree in trees.items()}
    unreached = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for name in _public_names(trees[path]):
            if not any(name in used for p, used in uses.items() if p != path) \
                    and name not in _used_names(trees[path], skip=name):
                unreached.add(f"{path.stem}.{name}")
    assert unreached == ALLOWED, f"test-only public names: {sorted(unreached)}"


def test_every_private_helper_has_a_caller():
    trees = _trees()
    total = sum((_uses(tree) for tree in trees.values()), Counter())
    dead = [f"{path.stem}.{qualname}"
            for path in sorted(PACKAGE.glob("*.py"))
            for qualname, d in _private_defs(trees[path])
            if total[d.name] == _uses(d)[d.name]]
    assert dead == [], f"private helpers without a caller: {dead}"
