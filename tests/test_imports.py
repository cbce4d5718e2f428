"""The package imports only the standard library and itself, a bare
`import flagpieces` loads no submodule, and the `pieces` command imports only
the code it runs: no group-table module."""

import ast
import importlib
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
            "flagpieces.pairs",
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


def _flagpieces_modules(loaded: set[str]) -> set[str]:
    return {m for m in loaded if m == "flagpieces" or m.startswith("flagpieces.")}


def test_bare_import_loads_no_submodule():
    assert _flagpieces_modules(_loaded_after("import flagpieces")) == {"flagpieces"}


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_pieces_loads_only_the_table_free_modules(fmt):
    loaded = _loaded_after(
        "from flagpieces.cli import main\n"
        f"main(['--cartan', 'B3', '--delta', 'id', '--j', '1', '--format', '{fmt}', 'pieces'])"
    )
    assert _flagpieces_modules(loaded) == {
        "flagpieces",
        "flagpieces.cli",
        "flagpieces.rootsys",
        "flagpieces.pairs",
    }


def test_every_public_name_is_bound_to_its_definition():
    # each name in __all__ resolves, and `from flagpieces import *` binds it
    # to the object of the module that defines it, not to a re-export
    ns = {}
    exec("from flagpieces import *", ns)
    assert set(flagpieces.__all__) <= set(ns)
    for name in flagpieces.__all__:
        obj = getattr(flagpieces, name)
        assert ns[name] is obj, name
        if name == "__version__":
            continue
        home = importlib.import_module(f"flagpieces.{flagpieces._HOMES[name]}")
        assert obj is (home if home.__name__ == f"flagpieces.{name}" else vars(home)[name]), name
        if callable(obj):
            assert obj.__module__ == home.__name__, name
