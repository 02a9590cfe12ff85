"""Every name a `meanking` module imports is used there, or re-exported through
`__all__`; and a run of simulate or of float verify imports neither hashlib
nor numpy.random.  (Tomography draws its state from numpy.random, whose
bit_generator imports `secrets` and so hashlib and OpenSSL.)"""

import ast
import os
import subprocess
import sys
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


def loaded(argv, names):
    """Those of `names` that a fresh interpreter has imported after running the CLI on argv."""
    env = dict(os.environ, PYTHONPATH=str(Path(meanking.__file__).resolve().parents[1]))
    script = (
        "import sys; from meanking.cli import main; code = main(sys.argv[2:]); "
        "print([name for name in sys.argv[1].split(',') if name in sys.modules], file=sys.stderr); "
        "sys.exit(code)"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, ",".join(names), *argv], capture_output=True, env=env, timeout=120
    )
    assert result.returncode == 0
    return result.stderr.splitlines()[-1].decode()


def test_simulate_loads_neither_openssl_nor_numpy_random():
    # the rounds' SHA-512 is random's own; hashlib would load OpenSSL (3.6 MB of
    # a child's peak RSS), and numpy.random is not needed to draw them
    argv = ["simulate", "--p", "7", "--rounds", "20000", "--json"]
    assert loaded(argv, ["hashlib", "_hashlib", "numpy.random"]) == "[]"


def test_float_verify_loads_neither_openssl_nor_numpy_random():
    # importing numpy.random alone raised a child's peak RSS from 28.4 to 34.5 MB
    argv = ["verify", "--p", "23", "--backend", "float", "--json"]
    assert loaded(argv, ["hashlib", "_hashlib", "numpy.random"]) == "[]"
