"""The package imports only the standard library and itself, so sympy stays a test-only oracle."""

import ast
import sys
from pathlib import Path

import mcg_spinlab


def test_package_imports_only_the_standard_library():
    package = Path(mcg_spinlab.__file__).parent
    paths = sorted(package.rglob("*.py"))
    assert paths
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside.extend(
                f"{path.relative_to(package)}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names | {package.name}
            )
    assert outside == []
