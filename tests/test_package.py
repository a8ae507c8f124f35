import ast
import sys
from pathlib import Path

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


def test_all_names_exactly_what_the_package_imports():
    import kgunits
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(set(kgunits.__all__)) == len(kgunits.__all__)
    assert set(kgunits.__all__) == set(imported)
    assert [name for name in kgunits.__all__ if not hasattr(kgunits, name)] == []
