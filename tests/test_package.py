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
