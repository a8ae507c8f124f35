import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "kgunits"


def test_package_imports_only_the_standard_library():
    sources = sorted(SRC.glob("*.py"))
    assert SRC / "__init__.py" in sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [(path.name, m) for m in modules
                        if m.split(".")[0] not in sys.stdlib_module_names | {"kgunits"}]
    assert outside == []


def test_every_module_parses_as_the_oldest_python_pyproject_allows():
    # requires-python = ">=3.10": no module may use grammar added after 3.10
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def test_all_names_exactly_what_the_package_imports():
    import kgunits
    assert len(set(kgunits.__all__)) == len(kgunits.__all__) == 38
    assert kgunits.__all__ == list(kgunits._HOME)
    for name in kgunits.__all__:
        home = importlib.import_module(f"kgunits.{kgunits._HOME[name]}")
        assert getattr(kgunits, name) is getattr(home, name), name
    assert set(kgunits.__all__) <= set(dir(kgunits))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        kgunits.no_such_name


def test_only_scan_iso_loads_isoprobe_and_no_command_loads_dataclasses(tmp_path):
    """In a fresh process, importing the CLI and running the small commands
    loads none of these modules; scan-iso then loads isoprobe."""
    package_root = str(SRC.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    script = """if True:
        import contextlib, io, json, sys
        watched = ("kgunits.isoprobe", "dataclasses", "inspect", "hashlib")
        def loaded():
            return [m for m in watched if m in sys.modules]
        import kgunits.cli
        seen = {"import": loaded()}
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [kgunits.cli.main(["unit-group", "F2", "D8"]),
                     kgunits.cli.main(["decompose", "F3", "C4"]),
                     kgunits.cli.main(["coset-count", "a | a^12"])]
            seen["commands"] = loaded()
            codes.append(kgunits.cli.main(["scan-iso", "--bound", "20"]))
        seen["scan-iso"] = loaded()
        print(json.dumps({"codes": codes, "seen": seen}))
    """
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          cwd=tmp_path, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["codes"] == [0, 0, 0, 0]
    assert out["seen"]["import"] == []
    assert out["seen"]["commands"] == []
    assert "kgunits.isoprobe" in out["seen"]["scan-iso"]


def _modules_loaded_by(tmp_path, module: str) -> list[str]:
    """The package's modules, without the package prefix, that importing
    module loads in a fresh process."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    script = (f"import json, sys, {module}; print(json.dumps(sorted("
              "m[8:] for m in sys.modules if m.startswith('kgunits.'))))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          cwd=tmp_path, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_presentations_loads_no_unit_group_code(tmp_path):
    """presentations.py names UnitGroup only in annotations, so importing it
    in a fresh process loads neither units nor algebra; it reads exponents
    with fields.read_int."""
    assert _modules_loaded_by(tmp_path, "kgunits.presentations") == [
        "fields", "presentations"]


def test_the_scan_loads_no_catalog_stack(tmp_path):
    """isoprobe takes the algebra shapes from fields, so the scan loads
    neither the catalog nor the published data and presentations behind it."""
    assert _modules_loaded_by(tmp_path, "kgunits.isoprobe") == [
        "algebra", "decompose", "fields", "groups", "isoprobe", "units"]


def test_the_cli_imports_what_its_commands_run_except_isoprobe(tmp_path):
    """cli imports every module of its small commands up front, because a
    queries block of bench/ times whatever cli defers; only scan-iso's
    isoprobe waits for its command."""
    assert _modules_loaded_by(tmp_path, "kgunits.cli") == [
        "algebra", "catalog", "cli", "decompose", "expected", "fields",
        "groups", "presentations", "units"]


# Every function, class and method in src that no src module names, with the
# reason it stays.  A name that becomes dead must be deleted or listed here.
UNNAMED_IN_SRC = {
    "__getattr__": "PEP 562: Python calls it for a missing module attribute",
    "__dir__": "PEP 562: dir(kgunits) calls it",
    "_Parser.error": "argparse calls it on every refusal",
    "factor_monic": "bench hook (bench/tracing.py span), ROADMAP items 14 and 18",
    "UnitGroup.recognize_dihedral": "bench hook (bench/tracing.py span), "
                                    "ROADMAP items 14 and 18",
}


def _unnamed_definitions(sources) -> dict[str, str]:
    """Qualified name -> file:line of each function, class and method, at
    any depth, whose name no source names by a Name, an Attribute or an
    import alias.  Strings name nothing, so __init__'s export table is no
    use; methods spelled __x__ are Python's data model and not counted."""
    defined, named = {}, set()

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name
                dunder = name.startswith("__") and name.endswith("__")
                if not (dunder and isinstance(node, ast.ClassDef)):
                    defined[prefix + name] = f"{path.name}:{child.lineno}"
                visit(child, f"{prefix}{name}.", path)
            else:
                visit(child, prefix, path)

    for path in sources:
        tree = ast.parse(path.read_text(), str(path))
        visit(tree, "", path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.update((node.asname or node.name, node.name.split(".")[-1]))
    return {q: where for q, where in defined.items()
            if q.rsplit(".", 1)[-1] not in named}


def test_every_definition_is_named_in_src_or_listed_with_its_reason():
    unnamed = _unnamed_definitions(sorted(SRC.glob("*.py")))
    dead = {q: where for q, where in unnamed.items() if q not in UNNAMED_IN_SRC}
    assert dead == {}, "named nowhere in src: delete, or list with a reason"
    assert set(unnamed) == set(UNNAMED_IN_SRC), "a listed name is now named in src"

