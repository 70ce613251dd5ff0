"""Every public name and every private helper has a caller outside the
tests.

A name in a module's ``__all__``, and a private (one leading underscore)
module-level function or method of ``src/drinfan``, must be used by code
in ``src/drinfan`` (another module or its own), in ``scripts/`` or in
``perfbench/``.  Uses are names and attributes in the syntax tree, so a
mention in a docstring or a comment does not count, and neither does the
body of the name's own definition.  A public name of module M counts as
used in another file only if that file imports it from M, or reads it as
an attribute of a name bound to M (``eps_mod.epsilon_closed``,
``xi.sigma_upper_fan``, ``drinfan.xi.cone_Cd``): an attribute of the
same name on another object, such as ``DrinfeldModule.rank``, is not a
use.  Test-only helpers live in the tests that use them.
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


def _imported_uses(tree, modules):
    """(module, name) for each name a file imports from a drinfan module,
    relatively or absolutely, and each attribute it reads off a name bound
    to one (an import alias, or drinfan.<module>)."""
    aliases, uses = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                source = node.module  # None: the package itself
            elif node.level == 0 and (node.module or "").split(".")[0] \
                    == "drinfan":
                source = node.module.partition(".")[2] or None
            else:
                continue
            for alias in node.names:
                if source is not None:
                    uses.add((source, alias.name))
                elif alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                package, _, stem = alias.name.partition(".")
                if package == "drinfan" and stem in modules and alias.asname:
                    aliases[alias.asname] = stem
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in aliases:
            uses.add((aliases[owner.id], node.attr))
        elif (isinstance(owner, ast.Attribute)
              and isinstance(owner.value, ast.Name)
              and owner.value.id == "drinfan" and owner.attr in modules):
            uses.add((owner.attr, node.attr))
    return uses


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
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    imported = set().union(*(_imported_uses(tree, modules)
                             for tree in trees.values()))
    unreached = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for name in _public_names(trees[path]):
            if (path.stem, name) not in imported \
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
