import functools

import pytest

import flagpieces as fp


@functools.lru_cache(maxsize=None)
def _group(label: str) -> fp.WeylGroup:
    return fp.weyl_group(label)


@functools.lru_cache(maxsize=None)
def _tc(label: str, delta_spec: str) -> fp.TwistedConjugation:
    group = _group(label)
    delta = fp.DiagramAutomorphism.from_spec(group.root_system, delta_spec)
    return fp.TwistedConjugation(group, delta)


def root_perm(w) -> tuple[int, ...]:
    """The permutation r -> index of w(alpha_r) of the root indices, composed
    from the root system's simple reflections along the reduced word of w.

    It uses no group table, so it is an independent witness for them."""
    table = w.group.root_system.simple_reflection_table
    perm = tuple(range(len(table[0])))
    for i in w.word:  # (u s_i)(alpha_r) = u(s_i(alpha_r))
        perm = tuple(perm[r] for r in table[i - 1])
    return perm


@pytest.fixture(scope="session")
def group_of():
    """Session-cached Weyl group factory keyed by type label."""
    return _group


@pytest.fixture(scope="session")
def tc_of():
    """Session-cached twisted-conjugation context factory."""
    return _tc


# The desk-scale scope used by the acceptance suite: every supported type
# small enough to sweep exhaustively, with every valid diagram automorphism.
SCOPE = (
    ("A1", ("id",)),
    ("A2", ("id", "flip")),
    ("A3", ("id", "flip")),
    ("A4", ("id", "flip")),
    ("B2", ("id",)),
    ("B3", ("id",)),
    ("C3", ("id",)),
    ("D4", ("id", "flip", "tri", "tri2")),
    ("G2", ("id",)),
)


@pytest.fixture(scope="session")
def scope_configs():
    return [(label, spec) for label, specs in SCOPE for spec in specs]
