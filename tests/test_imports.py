"""Every name a `meanking` module imports is used there, or re-exported through `__all__`."""

import ast
from pathlib import Path

import pytest

import meanking

MODULES = sorted(Path(meanking.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    imported, used = {}, set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "import os\nimport sys\nfrom json import dumps, loads as parse\n__all__ = ['dumps']\nsys.exit(0)\n"
    assert unused_imports(source) == ["os (line 1)", "parse (line 3)"]
