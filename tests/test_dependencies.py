import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "dmlab").glob("*.py"))


def _imported_top_level_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_library_imports_only_the_standard_library():
    assert SOURCES
    outside = {
        (path.name, module)
        for path in SOURCES
        for module in _imported_top_level_modules(path)
        if module != "dmlab" and module not in sys.stdlib_module_names
    }
    assert not outside


def test_every_exported_name_resolves():
    names = ["dmlab"] + [f"dmlab.{path.stem}" for path in SOURCES if path.stem != "__init__"]
    for name in names:
        namespace = {}
        exec(f"from {name} import *", namespace)  # raises on a missing name
        exported = importlib.import_module(name).__all__
        assert len(set(exported)) == len(exported), name
        assert set(exported) <= namespace.keys(), name


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # Every ``dml`` run imports the package first; these two modules
    # (and the ast/dis/tokenize that inspect drags in) cost milliseconds.
    # ``-S`` keeps site hooks from loading either one beforehand.
    code = "import sys, dmlab.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "[]"
