"""No package module imports another's private name.

A `_`-prefixed name is its module's own: a module that imports one from
another has to know what lies behind it, which is where the code that
reads it belongs. The check walks each module's import statements, so it
reads the source and imports nothing.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wavets"
MODULES = sorted(PACKAGE.glob("*.py"))


def private_imports(path: Path) -> list[str]:
    """`module.name` of every `_`-prefixed name that path imports from the
    package: relative imports and absolute ones from wavets."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "wavets":
            continue
        found += [f"{module}.{alias.name}" for alias in node.names if alias.name.startswith("_")]
    return found


def test_the_package_has_modules():
    assert {"model.py", "train.py", "cli.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_module_imports_a_private_name(path):
    assert private_imports(path) == []
