"""Every name a module imports is used there."""

import ast
import importlib
from pathlib import Path

import pytest

import fracpde

SRC = Path(fracpde.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))


def _unused_imports(source: str, package: str | None = None) -> list[str]:
    """Imported names that the module never reads.

    A name in the module's own ``__all__`` is read.  ``package`` names the
    package whose ``__init__`` the source is: there an import re-exports,
    so a name in the ``__all__`` of the module it comes from is read too.
    ``from __future__`` imports and imports on a line marked ``# noqa`` are
    exempt; ``import a.b`` binds ``a``.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported, exported = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa" in lines[node.lineno - 1]:
                continue
            if package is not None and isinstance(node, ast.ImportFrom):
                origin = importlib.import_module("." * node.level + (node.module or ""), package)
                exported |= set(getattr(origin, "__all__", ()))
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | exported
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    package = fracpde.__name__ if path == SRC / "__init__.py" else None
    assert _unused_imports(path.read_text(), package) == []


def test_the_scan_finds_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .spectral import Field, transform, _ifftn\n"
        "from .symbols import symbol_eval  # noqa: F401\n"
        "__all__ = ['Field']\n"
        "def f(x):\n"
        "    return np.sqrt(os.path.sep)\n"
    )
    assert _unused_imports(source) == ["math (line 2)", "transform (line 5)", "_ifftn (line 5)"]
    # As a package __init__, public names of the module imported from are re-exports.
    assert _unused_imports(source, "fracpde") == ["math (line 2)", "_ifftn (line 5)"]
