"""A census of the package's surface: every function, method and class in
`src/flagpieces` is reached by the package itself, or is public by a stated
rule.

A definition counts as reached when its name appears in the code of some
module (a name, an attribute or an imported name) other than in its own
`def` or `class` line; a mention in a docstring or comment does not count.
Otherwise it must be a dunder, a leaf named in the benchmark tracer's
`TARGETS`, a key of `flagpieces._HOMES`, or one of the few names in
`TEST_REFERENCES`, which tests read as independent references. So a wrapper
that only tests call does not come back unnoticed.
"""

import ast
import pathlib
import re
import types

import flagpieces

SRC = pathlib.Path(flagpieces.__file__).parent
TESTS = pathlib.Path(__file__).parent
TRACER = TESTS.parent / "perfbench" / "tracer.py"

# name -> why tests, and nothing in the package, call it
TEST_REFERENCES = {
    "coroot_pairing": "the Fraction cluster (with symmetrizer, bilinear and _symmetrizer, "
    "reached through it): tests build each reflection t_beta from it, independently "
    "of the integer root tables",
    "twisted_conjugate": "d(x) y x^-1 multiplied out from words (with in_parabolic and "
    "delta_on_element): tests build literal twisted orbits from it",
}


def _definitions_and_references():
    """[(file, name, line)] of every def and class, and the set of names
    that the package's code refers to."""
    defined, referenced = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name, node.lineno))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return defined, referenced


def _tracer_leaves() -> set[str]:
    mod = types.ModuleType("tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), vars(mod))
    return {attr.rpartition(".")[2] for _mod, attr, _kind, _rss in mod.TARGETS}


def test_every_definition_is_reached_or_public_by_rule():
    defined, referenced = _definitions_and_references()
    public = referenced | _tracer_leaves() | set(flagpieces._HOMES) | set(TEST_REFERENCES)
    unreached = [
        f"{path}:{line} {name}"
        for path, name, line in defined
        if name not in public and not (name.startswith("__") and name.endswith("__"))
    ]
    assert unreached == []


def test_test_references_are_needed_and_used():
    # each listed name is defined, not reached by the package's code (else
    # it needs no entry), and read by some test besides this one
    defined, referenced = _definitions_and_references()
    names = {name for _path, name, _line in defined}
    tests = "".join(p.read_text() for p in sorted(TESTS.glob("test_*.py")) if p.name != "test_surface.py")
    for name in TEST_REFERENCES:
        assert name in names and name not in referenced, name
        assert re.search(rf"\b{name}\b", tests), name


def test_every_imported_name_is_read():
    # each name an import binds in a module is read in that module (an
    # annotation counts), so a deletion leaves no dead import behind, which
    # could load a module on a path that does not need it
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in read:
                        unread.append(f"{path.name}:{node.lineno} {name}")
    assert unread == []
