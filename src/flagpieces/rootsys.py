"""Finite crystallographic root systems with exact integer arithmetic.

Roots are integer coefficient vectors over the simple roots alpha_1..alpha_n
(Bourbaki numbering, 1-based; see README for the labeling of each family).
The Cartan matrix convention is a[i][j] = <alpha_j, alpha_i^vee>, so row i
drives the simple reflection: s_i(beta) = beta - <beta, alpha_i^vee> alpha_i.
A Cartan datum is validated in integers: an integer symmetrizer, and
Sylvester's criterion by fraction-free (Bareiss) elimination. Only the
`symmetrizer`, `bilinear` and `coroot_pairing` accessors use `Fraction`.

Also here is what needs a root system but no group table: the element
ceiling (`check_ceiling`), diagram automorphisms and their stable subsets,
and the parsing and printing of words and subsets.
"""

from __future__ import annotations

import math
import re
from functools import cached_property, wraps
from typing import NamedTuple

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


class CartanDatum:
    """A simple finite type: family letter, rank, and its Cartan matrix;
    validated on construction, equal and hashed by those three fields."""

    def __init__(self, family: str, rank: int, cartan_matrix: tuple[tuple[int, ...], ...]):
        self.family, self.rank, self.cartan_matrix = self._key = family, rank, cartan_matrix
        _validate_datum(self)

    def __eq__(self, other) -> bool:
        return isinstance(other, CartanDatum) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return "CartanDatum(family={!r}, rank={!r}, cartan_matrix={!r})".format(*self._key)

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
        from fractions import Fraction

        d = _symmetrizer(self.cartan_matrix)
        lo = min(d)
        return tuple(Fraction(x, lo) for x in d)

    @cached_property
    def bilinear(self) -> tuple[tuple[Fraction, ...], ...]:
        """Symmetrized matrix b[i][j] = d_i * a[i][j] = (alpha_i, alpha_j)."""
        d = self.symmetrizer
        return tuple(
            tuple(d[i] * aij for aij in row) for i, row in enumerate(self.cartan_matrix)
        )


# Default enumeration ceiling: admits every exceptional type up to E7
# (order 2,903,040); E8 requires an explicit override.
DEFAULT_MAX_ELEMENTS = 3_000_000


class GroupTooLargeError(RuntimeError):
    """Raised when enumeration would exceed the element-count ceiling."""


def check_ceiling(datum: CartanDatum, max_elements: int) -> None:
    """Refuse a type whose closed-form group order exceeds max_elements."""
    if datum.weyl_group_order > max_elements:
        raise GroupTooLargeError(
            f"group of type {datum.label} exceeds the element ceiling "
            f"{max_elements}; pass a larger max_elements to enumerate it anyway"
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
    d = _symmetrizer(a)  # 0 off the component of node 1
    if 0 in d:
        raise CartanError(
            "Dynkin diagram must be connected (reducible types are unsupported)"
        )
    # symmetrizability (consistency over cycles) and finite type
    b = [[d[i] * a[i][j] for j in range(rank)] for i in range(rank)]
    if any(b[i][j] != b[j][i] for i in range(rank) for j in range(i)):
        raise CartanError("cartan matrix is not symmetrizable")
    if not _is_positive_definite(b):
        raise CartanError(
            "cartan matrix is not of finite type (symmetrization not positive definite)"
        )
    if a != standard_cartan_matrix(family, rank):
        raise CartanError(
            f"cartan matrix does not match the Bourbaki matrix of type {family}{rank}"
        )


def _symmetrizer(a: tuple[tuple[int, ...], ...]) -> list[int]:
    """Positive integers d with d_i a[i][j] = d_j a[j][i] along a spanning
    tree of the component of node 1 (d is 0 off it): all d are scaled by
    |a[j][i]| whenever d_i a[i][j] / a[j][i] is not an integer."""
    d = [1] + [0] * (len(a) - 1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j, aij in enumerate(a[i]):
            if i != j and aij != 0 and not d[j]:
                num, den = d[i] * aij, a[j][i]
                if num % den:
                    d = [x * -den for x in d]
                    num *= -den
                d[j] = num // den
                stack.append(j)
    return d


def _is_positive_definite(b: list[list[int]]) -> bool:
    """Sylvester's criterion on an integer symmetric matrix: every leading
    principal minor is positive. Bareiss elimination keeps every entry an
    integer, and at step k the pivot m[k][k] is the minor of order k + 1."""
    m = [row[:] for row in b]
    n, prev = len(m), 1
    for k in range(n):
        if m[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return True


class Root(NamedTuple):
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
        from fractions import Fraction

        b = self.datum.bilinear
        cr = self.roots[r].coords
        cs = self.roots[s].coords
        num = sum(cr[i] * b[i][j] * cs[j] for i in range(self.rank) for j in range(self.rank))
        den = sum(cs[i] * b[i][j] * cs[j] for i in range(self.rank) for j in range(self.rank))
        val = 2 * Fraction(num, den)
        if val.denominator != 1:
            raise ArithmeticError(f"non-integral coroot pairing for roots {r}, {s}")
        return int(val)

    def parabolic_order(self, subset) -> int:
        """|W_J| = prod (e + 1) over the exponents e of Phi_J. The number of
        exponents >= k is the number m_k of positive roots of height k
        (Kostant; Humphreys, Reflection Groups and Coxeter Groups, 3.20), so
        |W_J| = prod_k (k + 1)^(m_k - m_{k+1})."""
        heights = [sum(self.roots[r].coords) for r in self.parabolic_root_indices(subset, True)]
        m = [heights.count(k) for k in range(max(heights, default=0) + 2)]
        return math.prod((k + 1) ** (m[k] - m[k + 1]) for k in range(1, len(m) - 1))

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


class AutomorphismError(ValueError):
    """The permutation does not define a diagram automorphism."""


class DiagramAutomorphism:
    """A Cartan-matrix-preserving permutation of the simple-root indices."""

    def __init__(self, root_system: RootSystem, images, spec: str | None = None):
        self.root_system = root_system
        rank = root_system.rank
        images = tuple(int(i) for i in images)
        if sorted(images) != list(range(1, rank + 1)):
            raise AutomorphismError(
                f"images {images} are not a permutation of 1..{rank}"
            )
        a = root_system.datum.cartan_matrix
        for i in range(rank):
            for j in range(rank):
                if a[images[i] - 1][images[j] - 1] != a[i][j]:
                    raise AutomorphismError(
                        f"permutation {images} is not Cartan-preserving: "
                        f"a[{images[i]}][{images[j]}] != a[{i+1}][{j+1}]"
                    )
        self.images = images
        self._image_of = (0,) + images  # by 1-based index
        self.spec = spec if spec is not None else ",".join(str(i) for i in images)

    @classmethod
    def from_spec(cls, root_system: RootSystem, spec: str) -> DiagramAutomorphism:
        """Parse "id", "flip", "tri"/"tri2" (D4), or explicit images "2,1,3"."""
        rank = root_system.rank
        family = root_system.datum.family
        s = spec.strip()
        if s == "id":
            return cls(root_system, range(1, rank + 1), spec="id")
        if s == "flip":
            if family == "A" and rank >= 2:
                images = [rank + 1 - i for i in range(1, rank + 1)]
            elif family == "D":
                images = list(range(1, rank + 1))
                images[rank - 2], images[rank - 1] = rank, rank - 1
            elif family == "E" and rank == 6:
                images = [6, 2, 5, 4, 3, 1]
            else:
                raise AutomorphismError(
                    f"'flip' is not defined for type {root_system.datum.label}"
                )
            return cls(root_system, images, spec="flip")
        if s in ("tri", "tri2"):
            if not (family == "D" and rank == 4):
                raise AutomorphismError(f"{s!r} is only defined for type D4")
            images = [3, 2, 4, 1] if s == "tri" else [4, 2, 1, 3]
            return cls(root_system, images, spec=s)
        try:
            images = [int(p) for p in s.split(",")]
        except ValueError:
            raise AutomorphismError(
                f"cannot parse automorphism {spec!r}: expected 'id', 'flip', "
                f"'tri', 'tri2', or explicit images like '2,1,3'"
            )
        return cls(root_system, images)

    def __call__(self, i: int) -> int:
        """Image of a simple index (1-based)."""
        return self.images[i - 1]

    def subset(self, J) -> frozenset[int]:
        """Image of a subset of simple indices."""
        return frozenset(map(self._image_of.__getitem__, J))

    def __repr__(self) -> str:
        return f"DiagramAutomorphism({self.root_system.datum.label}, {self.spec})"


def _stable_closure(subset, delta: DiagramAutomorphism) -> frozenset[int]:
    """Smallest delta-stable set of simple indices containing subset."""
    out = set(subset)
    for i in list(out):
        # delta permutes the indices: follow the cycle of i to a member
        j = delta(i)
        while j not in out:
            out.add(j)
            j = delta(j)
    return frozenset(out)


def _stable_part(image: dict, delta: DiagramAutomorphism) -> frozenset[int]:
    """Largest K inside the keys J of image with image(K) = d(K), where
    image[k] is the j with w(alpha_k) = alpha_j, or None: the greatest
    fixpoint of K -> {k in K : image[k] in d(K)}."""
    K = set(image)
    while True:
        target = {delta(k) for k in K}
        kept = {k for k in K if image[k] in target}
        if kept == K:
            return frozenset(K)
        K = kept


# -- letters and subsets (serialized verbatim by the CLI and JSON output) -----


def letters_str(word: tuple[int, ...]) -> str:
    """Serialize letters comma-separated, "e" for none (as `weyl.word_str`)."""
    return ",".join(map(str, word)) if word else "e"


def parse_letters(rank: int, text: str) -> tuple[int, ...]:
    """The letters of a word string ("e" or empty for none), each checked to
    lie in 1..rank."""
    s = text.strip()
    if s == "e" or s == "":
        return ()
    try:
        letters = tuple(int(part) for part in s.split(","))
    except ValueError:
        raise ValueError(f"cannot parse word {text!r}: expected 'e' or comma-separated integers")
    for i in letters:
        if not 1 <= i <= rank:
            raise ValueError(f"word letter {i} out of range 1..{rank}")
    return letters


def format_subset(subset) -> str:
    """Serialize a simple-index subset as comma-separated sorted indices."""
    return ",".join(str(j) for j in sorted(subset))


def parse_subset(rank: int, text: str) -> frozenset[int]:
    """Parse a comma-separated subset of 1..rank; the empty set is an empty
    string or "-", as output prints it."""
    s = text.strip()
    if s in ("", "-"):
        return frozenset()
    try:
        parts = [int(p) for p in s.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse subset {text!r}: expected comma-separated integers")
    out = frozenset(parts)
    for j in parts:
        if not 1 <= j <= rank:
            raise ValueError(f"subset index {j} out of range 1..{rank}")
    if len(out) != len(parts):
        raise ValueError(f"subset {text!r} contains duplicate indices")
    return out
