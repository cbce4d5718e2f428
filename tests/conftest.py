import functools
import os
import select

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


def orbit_of(tc, y, J):
    """The twisted W_J-orbit of y, looked up in the orbit partition."""
    orbits, position = tc.orbit_partition(J)
    return orbits[position[y.index]]


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


@pytest.fixture
def verify_workers(monkeypatch):
    """Force the number of processes the verify suite runs on; after the test,
    no child process may be left, running or unreaped."""
    from flagpieces import oracle

    def force(width: int) -> None:
        monkeypatch.setattr(oracle, "_worker_count", lambda jobs: width)

    yield force
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _Handshake:
    """A pipe through which a check planted in the per-J jobs makes the
    caller wait until a worker has started one of them, so that with any
    pull order a worker runs at least one per-J job."""

    def __init__(self):
        self._read, self._write = os.pipe()

    def started(self) -> None:
        """Called in a worker, in a per-J job."""
        os.write(self._write, b"x")

    def wait(self, timeout: float = 30) -> None:
        """Called in the caller, in a per-J job: block until some worker has
        called `started` (the byte stays in the pipe, so later waits return
        at once)."""
        if not select.select([self._read], [], [], timeout)[0]:
            raise TimeoutError("no worker started a per-J job")

    def close(self) -> None:
        os.close(self._read)
        os.close(self._write)


@pytest.fixture
def worker_handshake():
    handshake = _Handshake()
    yield handshake
    handshake.close()
