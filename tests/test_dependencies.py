import ast
import importlib
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "dmlab").glob("*.py"))


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
