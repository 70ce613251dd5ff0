"""No ``assert`` statement in the library.

``python -O`` strips assert statements, so a check written as one would
vanish there.  Every input check and internal certificate of
``src/drinfan`` raises explicitly instead (an internal certificate raises
``AssertionError`` itself, as ``gf.GF``'s field check does).
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "drinfan"


def test_library_has_no_assert_statement():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 10, paths  # the package was found
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == [], f"assert statements in src/drinfan: {found}"
