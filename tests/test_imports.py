"""Every name a module of tiklav imports is used in that module (a linter's
unused-import rule, with the standard library's ast only)."""

import ast
from pathlib import Path

import pytest

import tiklav

MODULES = sorted(p for p in Path(tiklav.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # __init__ imports to re-export


def unused_imports(source: str) -> list:
    """Names bound by an import statement that no expression refers to."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_checker_flags_an_unused_import():
    source = ("import os, numpy as np\nfrom typing import List, Optional\n"
              "x: Optional[int] = np.pi\n")
    assert unused_imports(source) == ["os", "List"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
