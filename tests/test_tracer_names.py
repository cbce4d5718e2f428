"""Every name the benchmark tracer wraps resolves in the package.

`perfbench/tracer.py` is read from its path and executed in a fresh
namespace, without `Tracer.install`, so a renamed function or oracle check,
or a cached property turned into a method or back, fails here instead of in a
traced benchmark run.
"""

import functools
import importlib
import pathlib
import types

from flagpieces import oracle

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer() -> types.ModuleType:
    mod = types.ModuleType("tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), vars(mod))
    return mod


def test_tracer_targets_resolve():
    # as in Tracer.install: a method in its class __dict__, a function as a
    # module attribute
    missing = []
    for modname, attr, _kind, _rss in _tracer().TARGETS:
        mod = importlib.import_module(f"flagpieces.{modname}")
        owner_name, _, leaf = attr.rpartition(".")
        if owner_name:
            found = leaf in vars(getattr(mod, owner_name))
        else:
            found = callable(getattr(mod, leaf, None))
        if not found:
            missing.append(f"{modname}.{attr}")
    assert missing == []


def test_tracer_oracle_checks_match_the_check_tables():
    names = [name for name, _ in oracle.GROUP_CHECKS + oracle.PER_SUBSET_CHECKS]
    assert sorted(names) == sorted(_tracer().ORACLE_CHECKS)


# the WeylGroup targets that are cached properties; `Tracer.install` wraps
# them as cached properties and every other method as a plain function
CACHED_PROPERTIES = {"reflections", "bruhat_covers_up", "_bruhat_up_reach"}


def test_tracer_weyl_targets_keep_their_kind():
    from flagpieces.weyl import WeylGroup

    kinds = {}
    for modname, attr, _kind, _rss in _tracer().TARGETS:
        owner_name, _, leaf = attr.rpartition(".")
        if modname == "weyl" and owner_name == "WeylGroup":
            kinds[leaf] = isinstance(vars(WeylGroup)[leaf], functools.cached_property)
    assert {leaf for leaf, cached in kinds.items() if cached} == CACHED_PROPERTIES
