"""Every public name has a caller outside the tests.

A name in a module's ``__all__`` must be used by code in ``src/drinfan``
(another module or its own), in ``scripts/`` or in ``perfbench/``.  Uses
are names and attributes in the syntax tree, so a mention in a docstring
or a comment does not count, and neither does the body of the name's own
definition.  Test-only helpers live in the tests that use them.
"""

import ast
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


def test_every_public_name_is_used_outside_the_tests():
    trees = {path: ast.parse(path.read_text())
             for folder in (PACKAGE, ROOT / "scripts", ROOT / "perfbench")
             for path in sorted(folder.glob("*.py"))}
    uses = {path: _used_names(tree) for path, tree in trees.items()}
    unreached = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for name in _public_names(trees[path]):
            if not any(name in used for p, used in uses.items() if p != path) \
                    and name not in _used_names(trees[path], skip=name):
                unreached.add(f"{path.stem}.{name}")
    assert unreached == ALLOWED, f"test-only public names: {sorted(unreached)}"
