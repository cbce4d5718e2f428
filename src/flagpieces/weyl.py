"""Weyl group elements, length, Bruhat order, and minimal coset representatives.

A WeylGroup checks the closed-form order against the element ceiling, then
enumerates the whole group breadth-first, one length level at a time, keyed on
w(rho) packed into one int (`_level_search`, which also enumerates parabolic
subgroups and the orbits of other weights, each into tables sized once from
its closed-form count). Discovery order is already the
deterministic element order (length, then lexicographically smallest reduced
word). Per element the group keeps only index arrays: its length and its
smallest left descent (`array('B')`), and, for each simple index i, a left
table (s_i w) and a right table (w s_i) of element indices (`array('I')`).
The search gives the left tables; the right tables and the inverses follow
from w = s_f v, with f the smallest left descent, one gather per run of a
level sharing f (`_inverse_and_right`). A WeylElement is created, and kept,
when its index is first looked up in `WeylGroup.elements`;
its reduced word is derived then, by stepping down through the smallest left
descents. Elements multiply by walking a reduced word through the tables;
since the order is by length first, a table entry larger than its argument is
a length-increasing step, which decides descents and coset minimality and
grows coset representatives from the identity. A parabolic subgroup W_J is
also kept as a prefix tree, each element below the one without its smallest
left descent, so a product by every element of W_J takes one table step per
element (`_sweep`). Root images walk a reduced word through the simple
reflections of the root system. The Bruhat covering digraph and its
reachability closure are built on demand; the closure is the one Bruhat
table, a bitmask per element u of the v with u <= v.
"""

from __future__ import annotations

import operator
from array import array
from bisect import bisect_right
from functools import cached_property
from typing import Iterable

from .rootsys import CartanDatum, RootSystem, build_root_system, memoized

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


def _weight_field(root_system: RootSystem) -> tuple[int, int]:
    """Bit width and offset of one packed weight coordinate.

    A key coordinate <w(lambda), alpha_j^vee> equals <lambda, beta^vee> for the
    root beta = w^-1(alpha_j). For lambda = rho, or any sum of distinct
    fundamental weights, its absolute value is at most the height of the
    highest coroot, h - 1 = 2N/n - 1 (Coxeter number h, N positive roots,
    rank n), so it is stored plus h - 1 in 0..2(h - 1)."""
    top = 2 * root_system.n_positive // root_system.rank - 1
    return (2 * top).bit_length(), top


# entry of a left table where s_i fixes the searched weight (see _level_search)
_FIXED = 0xFFFFFFFF


def _level_search(root_system: RootSystem, start, letters, capacity: int):
    """Breadth-first search of the orbit of a dominant weight under the simple
    reflections s_i, i in letters (increasing), one length level at a time.

    start gives the weight's fundamental-weight coordinates, each 0 or 1. An
    orbit point lambda = w(start) stands for the shortest such w; it is keyed
    by its coordinates lambda_j = <lambda, alpha_j^vee>, each stored plus the
    offset in its own field of one int (`_weight_field`). s_i subtracts
    lambda_i alpha_i, i.e. lambda_i times column i of the Cartan matrix, and
    l(s_i w) > l(w) iff lambda_i > 0. With i as the outer loop and the level,
    in order, as the inner one, each point is first reached from the smallest
    left descent i of its w, so numbering by discovery gives the (length,
    lexicographically smallest reduced word) order and that word is
    (i,) + word(s_i w).

    Returns (left, length, first): left[i][u] is the index of s_i u for i in
    letters, or _FIXED where lambda_i = 0 and s_i fixes the point (the other
    slots of left, 0 included, are empty); length[u] and first[u] are the
    length and smallest left descent of w (first[0] = 0). capacity is the
    exact orbit size, known in closed form, and sizes every table at once. A
    wrong one raises: IndexError on a left table when the search outgrows
    it, ValueError naming both counts otherwise.
    """
    rank = root_system.rank
    a = root_system.datum.cartan_matrix
    width, offset = _weight_field(root_system)
    field = (1 << width) - 1
    shifts = [width * j for j in range(rank)]
    left = [array("I") for _ in range(rank + 1)]
    for i in letters:
        left[i] = array("I", [_FIXED]) * capacity
    length, first = array("B", [0]) * capacity, array("B", [0]) * capacity
    n = 1
    columns = {i: sum(a[j][i - 1] << s for j, s in enumerate(shifts)) for i in letters}
    level = [sum((c + offset) << s for c, s in zip(start, shifts))]
    base = 0  # index of level[0]
    depth = 1  # length of the points found from level
    while level:
        ids: dict[int, int] = {}
        for i in letters:
            column, shift, li, new = columns[i], shifts[i - 1], left[i], n
            for u, key in enumerate(level, base):
                lam = (key >> shift & field) - offset
                if lam > 0:
                    q = key - lam * column
                    j = ids.get(q)
                    if j is None:
                        j = ids[q] = n
                        n += 1
                    li[u] = j
                    li[j] = u
            first[new:n] = array("B", [i]) * (n - new)
        length[n - len(ids) : n] = array("B", [depth]) * len(ids)
        base += len(level)
        level = list(ids)
        depth += 1
    if n != capacity:
        raise ValueError(f"the orbit has {n} points, but the tables were sized for {capacity}")
    return left, length, first


def _inverse_and_right(left, length, first) -> tuple[array, tuple[array, ...]]:
    """w^-1 per index and the right tables (w s_i), for the tables of a group
    or a parabolic subgroup (`_level_search` of rho); a right table is empty
    where the left one is.

    w = s_f v for f = first[w] and v one level down, so w s_i = s_f (v s_i)
    and w^-1 = v^-1 s_f. The points of one level with one first letter f are
    one run of indices, so each table takes one gather per run (in chunks of
    at most 2^14 positions, to bound the transient ints)."""
    n = len(length)
    inv = array("I", [0]) * n
    right = [array("I", lm[:1]) * n if lm else lm for lm in left]  # e s_i = s_i
    a = 1
    while a < n:
        f = first[a]
        b = min(bisect_right(first, f, a, bisect_right(length, length[a], a)), a + (1 << 14))
        lf, at_v = left[f], _gather(left[f][a:b])
        for rm in right:
            if rm:
                rm[a:b] = array("I", _gather(at_v(rm))(lf))
        inv[a:b] = array("I", _gather(at_v(inv))(right[f]))
        a = b
    return inv, tuple(right)


# Whole-row bit kernels: a mask becomes one byte per bit, a row of bits is
# read at many positions by one itemgetter, and 0/1 flags pack back into a
# mask, each in a C-level call instead of one big-int operation per bit.
_TO_FLAGS = bytes.maketrans(b"01", b"\x00\x01")
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _bit_flags(mask: int, width: int) -> bytes:
    """Byte k is bit k of mask (0 or 1), for every k < width."""
    return format(mask, f"0{width}b").encode().translate(_TO_FLAGS)[::-1]


def _gather(positions):
    """A function giving the items of a sequence at positions, as a tuple.

    positions must not be empty; for one position, itemgetter alone would
    give the bare item."""
    get = operator.itemgetter(*positions)
    return (lambda seq: (get(seq),)) if len(positions) == 1 else get


def _pack(flags) -> int:
    """The mask with bit k set iff flags[k], for 0/1 (or bool) flags, at
    least one."""
    return int(bytes(flags)[::-1].translate(_TO_DIGITS), 2)


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
        table = self.group.root_system.simple_reflection_table
        for i in reversed(self.word):
            r = table[i - 1][r]
        return r

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
    only a miss runs `__missing__`. Length, iteration, membership and
    equality with a tuple or list read it as the sequence of all elements in
    index order, and a negative index counts from the end.
    """

    __slots__ = ("_group",)

    def __init__(self, group: WeylGroup):
        super().__init__()
        self._group = group

    def __missing__(self, x: int) -> WeylElement:
        if x < 0:
            if x + len(self) < 0:
                raise IndexError(f"element index {x} out of range")
            return self[x + len(self)]
        # WeylElement reads the length array, which rejects x >= order
        w = self[x] = WeylElement(self._group, x)
        return w

    def __len__(self) -> int:
        return self._group.order

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __contains__(self, w) -> bool:
        return isinstance(w, WeylElement) and w.group is self._group

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, list)):
            return NotImplemented
        return len(other) == len(self) and all(map(operator.eq, self, other))

    def __ne__(self, other) -> bool:
        return not self == other


class WeylGroup:
    """The fully enumerated Weyl group of a root system (a group table)."""

    def __init__(self, root_system: RootSystem, max_elements: int = DEFAULT_MAX_ELEMENTS):
        self.root_system = root_system
        self.rank = rank = root_system.rank
        datum = root_system.datum
        check_ceiling(datum, max_elements)
        # rho is regular, so its orbit points are the elements themselves
        left, self._length, self._first = _level_search(
            root_system, [1] * rank, self.simple_indices, datum.weyl_group_order
        )
        self.order = len(self._length)
        # multiplication tables, indexed by the 1-based simple index (slot 0 is
        # unused): _lmul[i][w] is the index of s_i w, _rmul[i][w] that of w s_i
        self._lmul: tuple[array, ...] = tuple(left)
        self._inverse_index, self._rmul = _inverse_and_right(left, self._length, self._first)
        self.elements: _Elements = _Elements(self)
        self.identity: WeylElement = self.elements[0]
        self._simple = tuple(self.elements[lm[0]] for lm in left[1:])
        self._memo: dict = {}

    # -- basic structure ----------------------------------------------------

    @property
    def simple_indices(self) -> range:
        return range(1, self.rank + 1)

    def simple_reflection(self, i: int) -> WeylElement:
        if not 1 <= i <= self.rank:
            raise IndexError(f"simple index {i} out of range 1..{self.rank}")
        return self._simple[i - 1]

    def from_word(self, letters: Iterable[int]) -> WeylElement:
        x, rmul = 0, self._rmul
        for i in letters:
            if not 1 <= i <= self.rank:
                raise IndexError(f"simple index {i} out of range 1..{self.rank}")
            x = rmul[i][x]
        return self.elements[x]

    @cached_property
    def longest_element(self) -> WeylElement:
        return self.elements[-1]

    # -- descents and coset representatives ----------------------------------

    def sends_simple_positive(self, w: WeylElement, i: int) -> bool:
        """Whether w(alpha_i) is a positive root, i.e. l(w s_i) > l(w)."""
        # elements are ordered by length first, and l(w s_i) = l(w) +- 1
        return self._rmul[i][w.index] > w.index

    def is_min_left_rep(self, w: WeylElement, subset) -> bool:
        """w in W^J: minimal in its coset w W_J."""
        rmul, x = self._rmul, w.index
        return all(rmul[j][x] > x for j in subset)

    def is_min_right_rep(self, w: WeylElement, subset) -> bool:
        """w in ^JW: minimal in its coset W_J w."""
        lmul, x = self._lmul, w.index
        return all(lmul[j][x] > x for j in subset)

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
        # x != e in W_J is s_f x' with f = _first[x] in J and x' in W_J, so
        # the steps x' -> s_j x' that land on an x with _first[x] = j reach
        # each element of W_J once from the identity
        lmul, first = self._lmul, self._first
        found = [0]
        for x in found:  # found grows while it is walked
            found.extend(lmul[j][x] for j in subset if first[lmul[j][x]] == j)
        return tuple(map(self.elements.__getitem__, sorted(found)))

    @memoized
    def _parabolic_tree(self, subset) -> tuple[tuple[int, int], ...]:
        """W_J as a prefix tree: per x in parabolic_elements(J), in that order,
        (position of s_f x, f) for f = _first[x]; the identity, first, has
        (0, 0). f is a left descent of x, so it lies in J, and s_f x is a
        shorter element of W_J, so it comes earlier."""
        lmul, first = self._lmul, self._first
        xs = [x.index for x in self.parabolic_elements(subset)]
        pos = {x: k for k, x in enumerate(xs)}
        return ((0, 0),) + tuple((pos[lmul[first[x]][x]], first[x]) for x in xs[1:])

    def _sweep(self, subset, y: int, left=None, right=None) -> list[int]:
        """Per x in W_J, in the order of parabolic_elements(J), the index of
        L(x) y R(x)^-1, where left and right are tables indexed by a letter
        like _lmul and _rmul (left=_lmul gives x y, right=_rmul gives y x^-1).
        With x = s_f x', each value is one or two table steps from the value
        at x', its parent in the tree."""
        vals = [y]
        append = vals.append
        steps = self._parabolic_tree(subset)[1:]
        if right is None:
            for p, f in steps:
                append(left[f][vals[p]])
        elif left is None:
            for p, f in steps:
                append(right[f][vals[p]])
        else:
            for p, f in steps:
                append(right[f][left[f][vals[p]]])
        return vals

    def in_parabolic(self, w: WeylElement, subset) -> bool:
        """Whether w lies in W_J (every letter of a reduced word is in J)."""
        return set(w.word) <= set(subset)

    @memoized
    def min_coset_reps(self, subset, side: str = "right") -> tuple[WeylElement, ...]:
        """W^J (side="right": minimal in w W_J) or ^JW (side="left")."""
        # ^JW is closed under prefixes of reduced words and W^J under suffixes
        # (Bjorner-Brenti, GTM 231, 2.4), so each grows from the identity by
        # length-increasing steps that stay inside it: ^JW by w -> w s_i
        # through _rmul, W^J by w -> s_i w through _lmul.
        if side == "right":
            grow, test = self._lmul, self._rmul
        elif side == "left":
            grow, test = self._rmul, self._lmul
        else:
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        found = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for i in self.simple_indices:
                y = grow[i][x]
                if y > x and y not in found and all(test[j][y] > y for j in subset):
                    found.add(y)
                    stack.append(y)
        return tuple(self.elements[x] for x in sorted(found))

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


def letters_str(word: tuple[int, ...]) -> str:
    """Serialize a tuple of letters as `word_str` does."""
    return ",".join(map(str, word)) if word else "e"


def parse_word(group: WeylGroup, text: str) -> WeylElement:
    """Parse a word string; non-reduced words are accepted and canonicalized."""
    return group.from_word(parse_letters(group.rank, text))


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


def parse_subset(group_or_rank, text: str) -> frozenset[int]:
    """Parse a comma-separated subset of simple indices; empty string allowed."""
    rank = group_or_rank if isinstance(group_or_rank, int) else group_or_rank.rank
    s = text.strip()
    if not s:
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
