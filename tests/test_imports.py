"""Every import in the package and the tests is used.

No linter ships with the project's dependencies, so this is pyflakes'
F401 check, written with the standard library's ``ast``.  A name counts
as used when the module reads it (as a name, or as the root of an
attribute chain) or lists it in ``__all__``.  ``__future__`` imports and
lines marked ``# noqa: F401`` are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src" / "tuttedeform").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(path):
    """``(line, name)`` of every import in ``path`` that its module never names."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [(a.asname or a.name) for a in node.names]
        else:
            continue
        if "# noqa: F401" not in lines[node.lineno - 1]:
            bound += [(node.lineno, name) for name in names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_the_check_finds_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\n"
                      "import os\nimport sys\nimport json  # noqa: F401\n"
                      "from typing import Any, List as L\n"
                      "__all__ = ['Any']\nprint(sys.argv)\n")
    assert unused_imports(module) == [(2, "os"), (5, "L")]
