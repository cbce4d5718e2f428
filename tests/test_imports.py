"""The package imports only the standard library and itself."""

import ast
import pathlib
import sys

import flagpieces

SRC = pathlib.Path(flagpieces.__file__).parent


def _absolute_imports(path: pathlib.Path) -> set[str]:
    """Top-level module names of every absolute import in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_package_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = {
        f"{path.name}: {name}"
        for path in files
        for name in _absolute_imports(path)
        if name != "flagpieces" and name not in sys.stdlib_module_names
    }
    assert not outside
