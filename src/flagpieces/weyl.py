"""Weyl group elements, length, Bruhat order, and minimal coset representatives.

A WeylGroup checks the closed-form order against the element ceiling, then
enumerates the whole group breadth-first, one length level at a time, keyed on
w(rho) packed into one int (`pairs._level_search`, which sizes its tables from
the closed-form order and shares them through the root system's memo).
Discovery order is already the deterministic element order (length, then
lexicographically smallest reduced word). Per element the group keeps only
index arrays: its length and its smallest left descent (`array('B')`), and,
for each simple index i, a left table (s_i w) and a right table (w s_i) of
element indices (`array('I')`). The search gives the left tables; the right
tables and the inverses follow from w = s_f v, with f the smallest left
descent, one gather per run of a level sharing f (`pairs._runs`,
`_inverse_and_right`). A WeylElement is created, and kept, when its index is
first looked up in `WeylGroup.elements`; its reduced word is derived then, by
stepping down through the smallest left descents. Elements multiply by walking
a reduced word through the tables; since the order is by length first, a table
entry larger than its argument is a length-increasing step, which decides
descents and coset minimality. W_J and W^J are the level searches of rho under
the s_j, j in J, and of lambda_J under every s_i, read as prefix trees of
table slices, one per run (`_search_tree`); along the tree of W_J a product by
every element of W_J takes one table step each (`_sweep`). Root images walk a
reduced word through the simple reflections of the root system. The Bruhat
covering digraph and its reachability closure are built on demand; the closure
is the one Bruhat table, a bitmask per element u of the v with u <= v. Two
functions read a word with no group table, on the root system alone: whether
its product lies in W^J (`is_min_left_word`) and its reduced word
(`reduced_word`).
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

from .pairs import _inverse_and_right, _level_search, _runs
from .rootsys import (
    DEFAULT_MAX_ELEMENTS,
    CartanDatum,
    RootSystem,
    build_root_system,
    check_ceiling,
    letters_str,
    memoized,
)

class WeylElement:
    """A group element: its index in the group table, length and
    lexicographically smallest reduced word (1-based letters).

    Equality is (group, index) and the hash is the index, which keeps the
    iteration order of element sets deterministic. Elements are interned per
    group by `WeylGroup.elements`, which creates one, word included, on the
    first lookup of its index. That fill takes no lock: two threads racing on
    one index may each create an element, one of which is stored, and the
    two compare equal, hash alike and carry the same word.
    """

    __slots__ = ("group", "index", "length", "word")

    def __init__(self, group: WeylGroup, index: int):
        self.group = group
        self.index = index
        self.length = group._length[index]
        # the smallest left descent starts the lexicographically smallest
        # reduced word; strip it and repeat down to the identity
        first, lmul = group._first, group._lmul
        word = []
        while index:
            i = first[index]
            word.append(i)
            index = lmul[i][index]
        self.word: tuple[int, ...] = tuple(word)

    def __mul__(self, other: WeylElement) -> WeylElement:
        g = self.group
        if g is not other.group:
            raise ValueError("cannot multiply elements of different Weyl groups")
        # walk other's reduced word through the right table
        x, rmul = self.index, g._rmul
        for i in other.word:
            x = rmul[i][x]
        return g.elements[x]

    def inverse(self) -> WeylElement:
        g = self.group
        return g.elements[g._inverse_index[self.index]]

    def root_image(self, r: int) -> int:
        """Index of w(alpha_r)."""
        return _root_image(self.group.root_system, self.word, r)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.index == other.index and self.group is other.group

    def __hash__(self) -> int:
        return self.index

    def __repr__(self) -> str:
        return f"W[{word_str(self)}]"


class _Elements(dict):
    """The elements of a group by index, each created on its first lookup.

    A lookup of an element already made is the dict's own C-level lookup;
    only a miss runs `__missing__`. Length, iteration and membership read it
    as the sequence of all elements in index order; an index must lie in
    range(order).
    """

    __slots__ = ("_group",)

    def __init__(self, group: WeylGroup):
        super().__init__()
        self._group = group

    def __missing__(self, x: int) -> WeylElement:
        # the length array that WeylElement reads rejects x >= order, not x < 0
        if x < 0:
            raise IndexError(f"element index {x} out of range")
        w = self[x] = WeylElement(self._group, x)
        return w

    def __len__(self) -> int:
        return self._group.order

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __contains__(self, w) -> bool:
        return isinstance(w, WeylElement) and w.group is self._group


class WeylGroup:
    """The fully enumerated Weyl group of a root system (a group table)."""

    def __init__(self, root_system: RootSystem, max_elements: int = DEFAULT_MAX_ELEMENTS):
        self.root_system = root_system
        self.rank = root_system.rank
        check_ceiling(root_system.datum, max_elements)
        # rho is regular, so its orbit points are the elements; _lmul[i][w] is
        # the index of s_i w, _rmul[i][w] that of w s_i (slot 0 is unused)
        self._full = full = frozenset(self.simple_indices)
        self._lmul, self._length, self._first = _level_search(root_system, full, full)
        self.order = len(self._length)
        self._inverse_index, self._rmul = _inverse_and_right(self._lmul, self._length, self._first)
        self.elements: _Elements = _Elements(self)
        self.identity: WeylElement = self.elements[0]
        self._memo: dict = {}

    # -- basic structure ----------------------------------------------------

    @property
    def simple_indices(self) -> range:
        return range(1, self.rank + 1)

    def from_word(self, letters: Iterable[int]) -> WeylElement:
        x, rmul = 0, self._rmul
        for i in letters:
            if not 1 <= i <= self.rank:
                raise IndexError(f"simple index {i} out of range 1..{self.rank}")
            x = rmul[i][x]
        return self.elements[x]

    # -- descents and coset representatives ----------------------------------

    def is_min_left_rep(self, w: WeylElement, subset) -> bool:
        """w in W^J: minimal in its coset w W_J."""
        rmul, x = self._rmul, w.index
        for j in subset:
            if rmul[j][x] < x:
                return False
        return True

    def is_min_right_rep(self, w: WeylElement, subset) -> bool:
        """w in ^JW: minimal in its coset W_J w."""
        lmul, x = self._lmul, w.index
        for j in subset:
            if lmul[j][x] < x:
                return False
        return True

    def min_coset_rep(self, w: WeylElement, subset, side: str = "right") -> WeylElement:
        """Minimal element of w W_J (side="right") or W_J w (side="left");
        subset is a collection (a set or a list), read once per step."""
        if side == "right":
            table = self._rmul
        elif side == "left":
            table = self._lmul
        else:
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        # step down by a descent in J until there is none; the minimum is
        # unique, so the order the descents are tried in does not matter
        x = w.index
        while True:
            for j in subset:
                y = table[j][x]
                if y < x:
                    x = y
                    break
            else:
                return self.elements[x]

    @memoized
    def parabolic_elements(self, subset) -> tuple[WeylElement, ...]:
        """All elements of the standard parabolic subgroup W_J, in group order."""
        return tuple(map(self.elements.__getitem__, self._sweep(subset, 0, left=self._lmul)))

    def _sweep(self, subset, y: int, left=None, right=None) -> list[int]:
        """Per x in W_J, in group order, the index of L(x) y R(x)^-1, for
        tables indexed by a letter like _lmul and _rmul (left=_lmul gives x y,
        right=_rmul gives y x^-1): with x = s_f x', one or two table steps from
        the value at x', its parent in the tree of W_J (`_search_tree`)."""
        vals, tree = [y], _search_tree(self.root_system, subset, self._full)
        if left is None or right is None:
            table = left or right
            for parents, f in tree:
                tf = table[f]
                for p in parents:
                    vals.append(tf[vals[p]])
        else:
            for parents, f in tree:
                lf, rf = left[f], right[f]
                for p in parents:
                    vals.append(rf[lf[vals[p]]])
        return vals

    def in_parabolic(self, w: WeylElement, subset) -> bool:
        """Whether w lies in W_J (every letter of a reduced word is in J)."""
        return set(w.word) <= set(subset)

    @memoized
    def min_coset_reps(self, subset, side: str = "right") -> tuple[WeylElement, ...]:
        """W^J (side="right": minimal in w W_J) or ^JW (side="left"), in group order."""
        if side == "right":
            # W^J is the orbit of lambda_J, the sum of the fundamental weights
            # off J, whose stabilizer is W_J; each point is s_f of its parent
            lmul, xs, full = self._lmul, [0], self._full
            for parents, f in _search_tree(self.root_system, full, full - subset):
                lf = lmul[f]
                xs += [lf[xs[p]] for p in parents]
        elif side == "left":
            # ^JW is the inverses of W^J
            inv = self._inverse_index
            xs = sorted(inv[w.index] for w in self.min_coset_reps(subset, "right"))
        else:
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        return tuple(map(self.elements.__getitem__, xs))

    def min_double_coset_reps(self, left_subset, right_subset) -> tuple[WeylElement, ...]:
        """^JW^K: minimal representatives of W_J \\ W / W_K."""
        reps = self.min_coset_reps(left_subset, "left")
        return tuple(e for e in reps if self.is_min_left_rep(e, right_subset))

    def double_coset_rep(self, w: WeylElement, left_subset, right_subset) -> WeylElement:
        """The unique element of ^JW^K inside W_J w W_K.

        One pass: the right minimization lands in W^K, and a left step down
        from an element of W^K stays in W^K (Deodhar's lemma; Geck-Pfeiffer,
        Lemma 2.1.2), so the left minimization ends in ^JW^K."""
        return self.min_coset_rep(self.min_coset_rep(w, right_subset, "right"), left_subset, "left")

    # -- Bruhat order ---------------------------------------------------------

    @cached_property
    def reflections(self) -> tuple[WeylElement, ...]:
        """All reflections, one per positive root, in root order."""
        # t_alpha_i = s_i; for a non-simple positive beta some s_i lowers its
        # height, and then t_beta = s_i t_{s_i beta} s_i. Roots are sorted by
        # height, so s_i beta comes earlier in the root order.
        rs = self.root_system
        table, lmul, rmul = rs.simple_reflection_table, self._lmul, self._rmul
        simple = {rs.simple_root_index(i): i for i in self.simple_indices}
        out: list[int] = []
        for p in range(rs.n_positive):
            if p in simple:
                out.append(lmul[simple[p]][0])
                continue
            i = next(i for i in self.simple_indices if table[i - 1][p] < p)
            out.append(rmul[i][lmul[i][out[table[i - 1][p]]]])
        return tuple(self.elements[x] for x in out)

    @cached_property
    def bruhat_covers_up(self) -> tuple[tuple[int, ...], ...]:
        """For each element index u, the indices v with u covered by v."""
        length, rmul = self._length, self._rmul
        words = [t.word for t in self.reflections]
        ups: list[tuple[int, ...]] = []
        for u in range(self.order):
            above = length[u] + 1
            vs = []
            for word in words:
                v = u
                for i in word:  # v = u t
                    v = rmul[i][v]
                if length[v] == above:
                    vs.append(v)
            ups.append(tuple(sorted(vs)))
        return tuple(ups)

    @cached_property
    def _bruhat_up_reach(self) -> tuple[int, ...]:
        # bitmask over element indices: bit v set in row u iff u <= v; a cover
        # of u is longer, so it has a larger index and its row is done first
        ups = self.bruhat_covers_up
        reach = [0] * self.order
        for u in reversed(range(self.order)):
            m = 1 << u
            for v in ups[u]:
                m |= reach[v]
            reach[u] = m
        return tuple(reach)

    def bruhat_leq(self, u: WeylElement, v: WeylElement) -> bool:
        """u <= v in the Bruhat order."""
        if u.group is not self or v.group is not self:
            raise ValueError("elements do not belong to this group")
        return (self._bruhat_up_reach[u.index] >> v.index) & 1 == 1


@memoized
def _search_tree(root_system: RootSystem, letters, support) -> tuple[tuple[Iterable[int], int], ...]:
    """The orbit `_level_search` finds as a prefix tree, kept in the root
    system's `_memo`: per run (`pairs._runs`), in order, (parents, f), with
    parents the slice of the search's left table f holding s_f u per point u."""
    left, length, first = _level_search(root_system, letters, support)
    return tuple((left[f][a:b], f) for f, a, b in _runs(length, first))


def weyl_group(label_or_datum, max_elements: int = DEFAULT_MAX_ELEMENTS) -> WeylGroup:
    """Build the Weyl group of a type label ("B3") or CartanDatum."""
    if isinstance(label_or_datum, CartanDatum):
        datum = label_or_datum
    else:
        datum = CartanDatum.from_label(label_or_datum)
    return WeylGroup(build_root_system(datum), max_elements)


# -- word serialization (used verbatim by the CLI and JSON output) -----------


def word_str(w: WeylElement) -> str:
    """Serialize as comma-separated 1-based letters, "e" for the identity."""
    return letters_str(w.word)


# -- words without a group table ---------------------------------------------


def _root_image(root_system: RootSystem, letters, r: int) -> int:
    """Index of w(alpha_r) for w the product of the letters, in order."""
    table = root_system.simple_reflection_table
    for i in reversed(letters):
        r = table[i - 1][r]
    return r


def is_min_left_word(root_system: RootSystem, letters, subset) -> bool:
    """Whether the product w of the letters lies in W^J: w(alpha_j) > 0 for
    every j in J."""
    return all(
        root_system.is_positive_index(
            _root_image(root_system, letters, root_system.simple_root_index(j))
        )
        for j in subset
    )


def reduced_word(root_system: RootSystem, letters) -> tuple[int, ...]:
    """The word `WeylElement.word` gives the product w of the letters.

    i is a left descent of w iff <w(rho), alpha_i^vee> < 0, so stripping the
    smallest one from w(rho), in fundamental-weight coordinates, until it is
    rho again reads off the lexicographically smallest reduced word."""
    a, rank = root_system.datum.cartan_matrix, root_system.rank
    lam = [1] * rank  # rho

    def reflect(i: int) -> None:
        # s_i subtracts lam_i alpha_i, whose coordinates are column i of a
        li = lam[i - 1]
        for j in range(rank):
            lam[j] -= li * a[j][i - 1]

    for i in reversed(letters):
        reflect(i)
    word = []
    while (i := next((j for j, c in enumerate(lam, 1) if c < 0), 0)):
        word.append(i)
        reflect(i)
    return tuple(word)
