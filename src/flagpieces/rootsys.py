"""Finite crystallographic root systems with exact integer arithmetic.

Roots are integer coefficient vectors over the simple roots alpha_1..alpha_n
(Bourbaki numbering, 1-based; see README for the labeling of each family).
The Cartan matrix convention is a[i][j] = <alpha_j, alpha_i^vee>, so row i
drives the simple reflection: s_i(beta) = beta - <beta, alpha_i^vee> alpha_i.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, wraps

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

# inclusive (lo, hi) rank bounds; hi=None means unbounded
_RANK_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

_LABEL_RE = re.compile(r"^([A-G])([0-9]+)$")


def memoized(fn):
    """Memoize fn(owner, J, *args, **kwargs) in the dict owner._memo.

    J, passed by position or by the name of fn's second parameter, is keyed
    and passed on as frozenset(J); the other arguments are keyed as given. A
    call that raises stores nothing; a None result is stored. The fill takes
    no lock: two threads racing on one key may both call fn, and one result
    is kept.
    """
    name = fn.__code__.co_varnames[1]

    @wraps(fn)
    def wrapper(owner, J=None, *args, **kwargs):
        if J is None:  # no positional subset: take it by name
            J = kwargs.pop(name, None)
            if J is None:
                raise TypeError(f"{fn.__qualname__}() missing argument {name!r}")
        J = frozenset(J)
        # on CPython 3.11, (fn, J) + args builds faster than (fn, J, *args)
        key = (fn, J) + args + tuple(kwargs.items()) if kwargs else (fn, J) + args
        try:
            return owner._memo[key]
        except KeyError:
            pass
        out = owner._memo[key] = fn(owner, J, *args, **kwargs)
        return out

    return wrapper


class CartanError(ValueError):
    """Invalid Cartan datum; the message names the violated condition."""


def standard_cartan_matrix(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Bourbaki Cartan matrix of the given simple type."""
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def bond(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        # 1-based node labels; aij sits in row i (action of s_i on alpha_j)
        a[i - 1][j - 1] = aij
        a[j - 1][i - 1] = aji

    if family in ("A", "B", "C"):
        for i in range(1, rank):
            bond(i, i + 1)
        if family == "B":
            bond(rank - 1, rank, -1, -2)  # alpha_rank short
        elif family == "C":
            bond(rank - 1, rank, -2, -1)  # alpha_rank long
    elif family == "D":
        for i in range(1, rank - 1):
            bond(i, i + 1)
        bond(rank - 2, rank)
    elif family == "E":
        chain = [1, 3, 4, 5, 6, 7, 8][: rank - 1]
        for u, v in zip(chain, chain[1:]):
            bond(u, v)
        bond(2, 4)
    elif family == "F":
        bond(1, 2)
        bond(2, 3, -1, -2)  # alpha_3, alpha_4 short
        bond(3, 4)
    elif family == "G":
        bond(1, 2, -3, -1)  # alpha_1 short
    else:
        raise CartanError(f"unsupported family {family!r}; expected one of {FAMILIES}")
    return tuple(tuple(row) for row in a)


@dataclass(frozen=True)
class CartanDatum:
    """A simple finite type: family letter, rank, and its Cartan matrix."""

    family: str
    rank: int
    cartan_matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _validate_datum(self)

    @classmethod
    def from_family(cls, family: str, rank: int) -> CartanDatum:
        if family not in FAMILIES:
            raise CartanError(
                f"unsupported family {family!r}; expected one of {FAMILIES}"
            )
        _check_rank_bounds(family, rank)
        return cls(family, rank, standard_cartan_matrix(family, rank))

    @classmethod
    def from_label(cls, label: str) -> CartanDatum:
        """Parse a type label such as "A3" or "D4"."""
        m = _LABEL_RE.match(label.strip())
        if m is None:
            raise CartanError(f"cannot parse Cartan label {label!r} (expected e.g. 'B3')")
        return cls.from_family(m.group(1), int(m.group(2)))

    @property
    def label(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def weyl_group_order(self) -> int:
        """|W| by the closed-form order formula of each family."""
        n = self.rank
        return {
            "A": math.factorial(n + 1),
            "B": 2**n * math.factorial(n),
            "C": 2**n * math.factorial(n),
            "D": 2 ** (n - 1) * math.factorial(n),
            "E": {6: 51840, 7: 2903040, 8: 696729600}.get(n, 0),
            "F": 1152,
            "G": 12,
        }[self.family]

    @cached_property
    def symmetrizer(self) -> tuple[Fraction, ...]:
        """Positive d_i with d_i * a[i][j] symmetric, normalized to min 1."""
        return _symmetrizer(self.cartan_matrix)

    @cached_property
    def bilinear(self) -> tuple[tuple[Fraction, ...], ...]:
        """Symmetrized matrix b[i][j] = d_i * a[i][j] = (alpha_i, alpha_j)."""
        d = self.symmetrizer
        return tuple(
            tuple(d[i] * aij for aij in row) for i, row in enumerate(self.cartan_matrix)
        )


def _check_rank_bounds(family: str, rank: int) -> None:
    lo, hi = _RANK_BOUNDS[family]
    if rank < lo or (hi is not None and rank > hi):
        bound = f"{lo} <= n <= {hi}" if hi is not None else f"n >= {lo}"
        raise CartanError(f"rank {rank} out of range for family {family}: need {bound}")


def _validate_datum(datum: CartanDatum) -> None:
    family, rank, a = datum.family, datum.rank, datum.cartan_matrix
    if family not in FAMILIES:
        raise CartanError(f"unsupported family {family!r}; expected one of {FAMILIES}")
    if rank < 1:
        raise CartanError(f"rank must be a positive integer, got {rank}")
    _check_rank_bounds(family, rank)
    if len(a) != rank or any(len(row) != rank for row in a):
        raise CartanError(f"cartan matrix must be {rank}x{rank}")
    for i in range(rank):
        for j in range(rank):
            if not isinstance(a[i][j], int):
                raise CartanError(f"cartan matrix entry a[{i+1}][{j+1}] must be an integer")
            if i == j and a[i][j] != 2:
                raise CartanError(f"diagonal entry a[{i+1}][{i+1}] must equal 2")
            if i != j and a[i][j] > 0:
                raise CartanError(
                    f"off-diagonal entry a[{i+1}][{j+1}] must be <= 0, got {a[i][j]}"
                )
            if i != j and (a[i][j] == 0) != (a[j][i] == 0):
                raise CartanError(
                    f"zero pattern must be symmetric: a[{i+1}][{j+1}] vs a[{j+1}][{i+1}]"
                )
    if not _is_connected(a):
        raise CartanError(
            "Dynkin diagram must be connected (reducible types are unsupported)"
        )
    # symmetrizability (consistency over cycles) and finite type
    d = _symmetrizer(a)
    b = [[d[i] * a[i][j] for j in range(rank)] for i in range(rank)]
    for i in range(rank):
        for j in range(rank):
            if b[i][j] != b[j][i]:
                raise CartanError("cartan matrix is not symmetrizable")
    if not _is_positive_definite(b):
        raise CartanError(
            "cartan matrix is not of finite type (symmetrization not positive definite)"
        )
    if a != standard_cartan_matrix(family, rank):
        raise CartanError(
            f"cartan matrix does not match the Bourbaki matrix of type {family}{rank}"
        )


def _is_connected(a: tuple[tuple[int, ...], ...]) -> bool:
    rank = len(a)
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(rank):
            if j not in seen and a[i][j] != 0:
                seen.add(j)
                stack.append(j)
    return len(seen) == rank


def _symmetrizer(a: tuple[tuple[int, ...], ...]) -> tuple[Fraction, ...]:
    rank = len(a)
    d: list[Fraction | None] = [None] * rank
    d[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(rank):
            if i != j and a[i][j] != 0 and d[j] is None:
                d[j] = d[i] * a[i][j] / a[j][i]
                stack.append(j)
    if any(x is None for x in d):  # disconnected; caught separately
        d = [Fraction(1) if x is None else x for x in d]
    lo = min(x for x in d if x is not None)
    return tuple(x / lo for x in d)  # type: ignore[union-attr]


def _is_positive_definite(b: list[list[Fraction]]) -> bool:
    # Gaussian elimination on the symmetric matrix; all pivots positive.
    m = [row[:] for row in b]
    n = len(m)
    for k in range(n):
        if m[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return True


@dataclass(frozen=True)
class Root:
    """A root, as integer coefficients over the simple roots."""

    coords: tuple[int, ...]

    def __neg__(self) -> Root:
        return Root(tuple(-c for c in self.coords))

    def __repr__(self) -> str:
        return f"Root({self.coords})"


class RootSystem:
    """All roots of a finite type, index tables, and reflection actions.

    Immutable after construction: roots are listed positives first (sorted by
    height, then coordinates), then the negatives in mirrored order, so the
    negation of root r is root (r + n_positive) mod (2 * n_positive). The only
    state added later is `_memo`, the Levi root sets filled on first query.
    """

    def __init__(self, datum: CartanDatum, positives: list[tuple[int, ...]]):
        self.datum = datum
        self.rank = datum.rank
        self.n_positive = len(positives)
        roots = [Root(c) for c in positives]
        roots += [-r for r in roots]
        self.roots: tuple[Root, ...] = tuple(roots)
        self.index: dict[tuple[int, ...], int] = {
            r.coords: k for k, r in enumerate(self.roots)
        }
        a = datum.cartan_matrix
        table = []
        for i in range(self.rank):
            row = []
            for r in self.roots:
                c = _reflect_coords(a, i, r.coords)
                row.append(self.index[c])
            table.append(tuple(row))
        self.simple_reflection_table: tuple[tuple[int, ...], ...] = tuple(table)
        self._simple_index = {
            i + 1: self.index[tuple(1 if k == i else 0 for k in range(self.rank))]
            for i in range(self.rank)
        }
        self._memo: dict = {}

    def __repr__(self) -> str:
        return f"RootSystem({self.datum.label}, {self.n_positive} positive roots)"

    @property
    def simple_indices(self) -> range:
        """The index set I = 1..rank labeling simple roots."""
        return range(1, self.rank + 1)

    def simple_root_index(self, i: int) -> int:
        """Root index of alpha_i (i is 1-based)."""
        return self._simple_index[i]

    def is_positive_index(self, r: int) -> bool:
        return r < self.n_positive

    def neg_index(self, r: int) -> int:
        return (r + self.n_positive) % (2 * self.n_positive)

    def reflect(self, i: int, r: int) -> int:
        """Root index of s_i(alpha_r); i is 1-based."""
        if not 1 <= i <= self.rank:
            raise IndexError(f"simple index {i} out of range 1..{self.rank}")
        if not 0 <= r < len(self.roots):
            raise IndexError(f"root index {r} out of range 0..{len(self.roots)-1}")
        return self.simple_reflection_table[i - 1][r]

    def coroot_pairing(self, r: int, s: int) -> int:
        """<alpha_r, alpha_s^vee> = 2 (alpha_r, alpha_s) / (alpha_s, alpha_s)."""
        b = self.datum.bilinear
        cr = self.roots[r].coords
        cs = self.roots[s].coords
        num = sum(cr[i] * b[i][j] * cs[j] for i in range(self.rank) for j in range(self.rank))
        den = sum(cs[i] * b[i][j] * cs[j] for i in range(self.rank) for j in range(self.rank))
        val = 2 * Fraction(num, den)
        if val.denominator != 1:
            raise ArithmeticError(f"non-integral coroot pairing for roots {r}, {s}")
        return int(val)

    @memoized
    def parabolic_root_indices(self, subset, positive_only: bool = False) -> frozenset[int]:
        """Indices of roots supported on the simple-index subset (memoized)."""
        return frozenset(
            k
            for k, root in enumerate(self.roots)
            if (not positive_only or self.is_positive_index(k))
            and all(c == 0 or (i + 1) in subset for i, c in enumerate(root.coords))
        )


def _reflect_coords(a, i: int, coords: tuple[int, ...]) -> tuple[int, ...]:
    # s_i(beta) = beta - <beta, alpha_i^vee> alpha_i, with row i of the matrix
    pairing = sum(a[i][k] * coords[k] for k in range(len(coords)))
    c = list(coords)
    c[i] -= pairing
    return tuple(c)


def build_root_system(datum: CartanDatum) -> RootSystem:
    """Close the simple roots under simple reflections and index the result."""
    rank = datum.rank
    a = datum.cartan_matrix
    simples = [tuple(1 if k == i else 0 for k in range(rank)) for i in range(rank)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for c in frontier:
            for i in range(rank):
                img = _reflect_coords(a, i, c)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    positives = []
    for c in seen:
        pos = all(x >= 0 for x in c)
        neg = all(x <= 0 for x in c)
        if not pos and not neg:
            raise ArithmeticError(f"root with mixed signs generated: {c}")
        if pos:
            positives.append(c)
    positives.sort(key=lambda c: (sum(c), c))
    if 2 * len(positives) != len(seen):
        raise ArithmeticError("positive/negative roots do not pair up")
    return RootSystem(datum, positives)


def root_system(label: str) -> RootSystem:
    """Convenience constructor from a type label like "B3"."""
    return build_root_system(CartanDatum.from_label(label))
