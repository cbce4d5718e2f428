"""The package imports only the standard library and itself, and the
`pieces` command imports only the code it runs."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

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


# modules the `pieces` command and a bare `import flagpieces` must not load:
# the verify suite and what it alone needs, and modules that are slow to import
NOT_ON_THE_PIECES_PATH = {
    "flagpieces.oracle",
    "dataclasses",
    "inspect",
    "fractions",
    "decimal",
    "json",
    "pickle",
    "signal",
}


def _loaded_after(code: str) -> set[str]:
    """Modules in sys.modules after running code in a fresh interpreter,
    less those that `python -c pass` already has."""
    src = str(SRC.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    listing = "import sys; print('\\n'.join(sys.modules), file=sys.stderr)"

    def modules(prelude: str) -> set[str]:
        proc = subprocess.run(
            [sys.executable, "-c", prelude + "\n" + listing],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return set(proc.stderr.split())

    return modules(code) - modules("pass")


@pytest.mark.parametrize(
    "code,module",
    [
        ("import flagpieces", "flagpieces"),
        (
            "from flagpieces.cli import main\n"
            "main(['--cartan', 'B3', '--delta', 'id', '--j', '1', 'pieces'])",
            "flagpieces.pieces",
        ),
    ],
)
def test_pieces_loads_no_verify_or_slow_module(code, module):
    loaded = _loaded_after(code)
    assert module in loaded
    assert loaded & NOT_ON_THE_PIECES_PATH == set()


def test_oracle_still_resolves_from_the_package():
    loaded = _loaded_after(
        "import flagpieces\n"
        "assert flagpieces.oracle.run_all_checks\n"
        "ns = {}\n"
        "exec('from flagpieces import *', ns)\n"
        "assert ns['oracle'] is flagpieces.oracle\n"
        "assert set(flagpieces.__all__) <= set(ns)"
    )
    assert "flagpieces.oracle" in loaded
