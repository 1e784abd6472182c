import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SOURCES = sorted((SRC / "dmlab").glob("*.py"))
# The modules whose public names the package re-exports, in its order.
PACKAGE_MODULES = (
    "closures", "density", "experiment", "exprparse", "fields", "ideals", "multipoly", "orbits",
)


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


def test_package_exports_each_module_public_name_once():
    import dmlab

    modules = [importlib.import_module(f"dmlab.{stem}") for stem in PACKAGE_MODULES]
    expected = [name for module in modules for name in module.__all__]
    assert dmlab.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in modules:
        for name in module.__all__:
            assert getattr(dmlab, name) is getattr(module, name), name


def _relative_imports(stem):
    path = SRC / "dmlab" / f"{stem}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield node.module.partition(".")[0]
            else:  # from . import x
                yield from (alias.name for alias in node.names)


def test_parser_and_orbit_layers_import_only_fields_and_multipoly():
    # Checked on the source, not on sys.modules: importing any dmlab
    # module first runs the package __init__, which imports them all.
    reached = set()
    todo = ["exprparse", "orbits"]
    while todo:
        stem = todo.pop()
        if stem not in reached:
            reached.add(stem)
            todo.extend(_relative_imports(stem))
    assert reached <= {"fields", "multipoly", "exprparse", "orbits"}


def _field_kind_knowledge(path):
    # Names of FieldKind (imported, read or looked up as an attribute)
    # and compiled patterns that match a field label.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.alias) and node.name == "FieldKind":
            yield "imports FieldKind"
        elif isinstance(node, ast.Name) and node.id == "FieldKind":
            yield "reads FieldKind"
        elif isinstance(node, ast.Attribute) and node.attr == "FieldKind":
            yield "reads FieldKind"
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "compile":
            if any(
                isinstance(arg, ast.Constant) and "GF\\(" in str(arg.value)
                for arg in node.args
            ):
                yield "compiles a field-label pattern"


def test_only_fields_knows_what_a_field_kind_means():
    # A new kind of field is added in fields.py alone: other modules ask
    # Field.from_label, .label, .finite or .has_generator.
    found = {
        (path.name, what)
        for path in SOURCES
        if path.name != "fields.py"
        for what in _field_kind_knowledge(path)
    }
    assert not found
    assert set(_field_kind_knowledge(SRC / "dmlab" / "fields.py")) == {
        "reads FieldKind",
        "compiles a field-label pattern",
    }


def _integer_checks(path):
    # Definitions of _require_int, and ValueErrors raised with a literal
    # text in the wording the integer rule replaced.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_require_int":
            yield "defines _require_int"
        elif (
            isinstance(node, ast.Raise)
            and isinstance(node.exc, ast.Call)
            and getattr(node.exc.func, "id", None) == "ValueError"
        ):
            for part in ast.walk(node.exc):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    if "must be positive" in part.value or "must be non-negative" in part.value:
                        yield "raises a hand-written integer check"


def test_one_integer_check_lives_in_fields():
    # Counts, indices, moduli, degrees and horizons all go through
    # fields._require_int and share its texts.
    found = [(path.name, what) for path in SOURCES for what in _integer_checks(path)]
    assert found == [("fields.py", "defines _require_int")]


# Texts of the hand-written polynomial and point checks that
# multipoly._require_polys and _point_payloads replaced.
RING_TEXTS = (
    "MultiPoly", "share a ring", "share a field", "ambient variables", "share a dimension",
    "must be FieldValue",
)


def _nodes_by_scope(node, scope):
    # (dotted name of the innermost enclosing class or function, node) for
    # each node below node.
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
        yield inner, child
        yield from _nodes_by_scope(child, inner)


def _ring_checks(path):
    # (scope, what) of each isinstance test against MultiPoly or FieldValue,
    # and each raise whose text is one of RING_TEXTS.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for scope, node in _nodes_by_scope(tree, "<module>"):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            for name in ("MultiPoly", "FieldValue"):
                if any(getattr(part, "id", None) == name for part in ast.walk(node.args[1])):
                    yield scope, f"isinstance {name}"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            texts = [
                part.value
                for part in ast.walk(node.exc)
                if isinstance(part, ast.Constant) and isinstance(part.value, str)
            ]
            if any(marker in text for text in texts for marker in RING_TEXTS):
                yield scope, "raises a ring text"


def test_one_polynomial_check_and_one_point_check_live_in_multipoly():
    # Polynomial arguments go through _require_polys and points through
    # _point_payloads.  MultiPoly.__eq__ answers NotImplemented, and
    # FieldValue checks its own operands.  _check_same_ring compares two
    # bases, monomial orders included, not a polynomial argument.
    found = sorted((path.name, *check) for path in SOURCES for check in _ring_checks(path))
    assert found == [
        ("fields.py", "FieldValue.__eq__", "isinstance FieldValue"),
        ("fields.py", "FieldValue._check", "isinstance FieldValue"),
        ("ideals.py", "_check_same_ring", "raises a ring text"),
        ("multipoly.py", "MultiPoly.__eq__", "isinstance MultiPoly"),
        ("multipoly.py", "_point_payloads", "isinstance FieldValue"),
        ("multipoly.py", "_require_polys", "isinstance MultiPoly"),
        ("multipoly.py", "_require_polys", "raises a ring text"),
    ]


def _calls_by_function(node, scope):
    # (name of the innermost enclosing function, call) for each call below node.
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _calls_by_function(child, child.name)
            continue
        if isinstance(child, ast.Call):
            yield scope, child
        yield from _calls_by_function(child, scope)


def _code_generation(path):
    # (function, callee) of each call to exec, eval or compile, builtin or
    # through a module attribute; re.compile builds a pattern, not code.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for scope, call in _calls_by_function(tree, "<module>"):
        func = call.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name in ("exec", "eval", "compile") and not (
            isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "re"
        ):
            yield scope, name


def test_only_the_kernel_generator_runs_generated_code():
    found = [(path.name, *call) for path in SOURCES for call in _code_generation(path)]
    assert found == [("multipoly.py", "_kernel", "exec")]


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # Every ``dml`` run imports the package first; these modules (and the
    # ast/dis/tokenize that inspect drags in) cost milliseconds, and the
    # command line needs no argparse, nor the gettext and locale it loads.
    # ``-S`` keeps site hooks from loading any of them beforehand.
    unwanted = "{'dataclasses', 'inspect', 'argparse', 'gettext', 'locale'}"
    code = f"import sys, dmlab.cli; print(sorted({unwanted} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "[]"


def _bench_stages():
    # perfbench/child.py, loaded without running it: it times each stage
    # of a run by wrapping these names where dmlab.experiment binds them.
    spec = importlib.util.spec_from_file_location("_bench_child", ROOT / "perfbench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child.STAGES


def test_run_experiment_calls_every_traced_stage_through_its_own_binding(monkeypatch):
    # A stage name that run_experiment stops calling through
    # dmlab.experiment would still be wrapped, and would time as zero.
    import dmlab.experiment as experiment

    stages = _bench_stages()
    assert [name for name in stages if name not in vars(experiment)] == []
    calls = dict.fromkeys(stages, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in stages:
        monkeypatch.setattr(experiment, name, counted(name, vars(experiment)[name]))
    suite = json.loads((ROOT / "perfbench" / "suite.json").read_text(encoding="utf-8"))
    doc = next(w for w in suite["workloads"] if w["name"] == "pullback-gf101")["experiment"]
    experiment.run_experiment(experiment.experiment_from_dict(doc))
    assert [name for name, n in calls.items() if n == 0] == []
