"""The package imports the standard library only: every absolute import of a
module under ``src/diskdispersal/`` names a top-level module in
``sys.stdlib_module_names`` (Python 3.10 and later)."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "diskdispersal"
MODULES = sorted(p.name for p in SRC.glob("*.py"))


def absolute_imports(source: str) -> set[str]:
    """The top-level names of the absolute imports in ``source``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_module_is_checked():
    assert "solver.py" in MODULES and "__init__.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_absolute_imports_are_standard_library(module):
    names = absolute_imports((SRC / module).read_text(encoding="utf-8"))
    assert sorted(names - sys.stdlib_module_names) == []


def test_third_party_and_nested_imports_are_caught():
    source = ("from . import geometry\nimport os.path\ndef f():\n"
              "    import numpy.linalg\n    from scipy import stats\n")
    assert absolute_imports(source) == {"os", "numpy", "scipy"}
