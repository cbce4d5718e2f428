"""Weyl group elements, length, Bruhat order, and minimal coset representatives.

A WeylGroup checks the closed-form order against the element ceiling, then
enumerates the whole group breadth-first, one length level at a time, keyed on
w(2 rho) packed into one int. Discovery order is already the deterministic
element order (length, then lexicographically smallest reduced word). Per
element the group keeps only index arrays: its length and its smallest left
descent (`array('B')`), and, for each simple index i, a left table (s_i w) and
a right table (w s_i) of element indices (`array('I')`). A WeylElement is
created, and kept, when its index is first looked up in `WeylGroup.elements`;
its reduced word is derived then, by stepping down through the smallest left
descents. Elements multiply by walking a reduced word through the tables;
since the order is by length first, a table entry larger than its argument is
a length-increasing step, which decides descents and coset minimality and
grows coset representatives from the identity. A parabolic subgroup W_J is
also kept as a prefix tree, each element below the one without its smallest
left descent, so a product by every element of W_J takes one table step per
element (`_sweep`). Root images walk a reduced word through the simple
reflections of the root system. The Bruhat covering digraph and its
reachability closure are built on demand.
"""

from __future__ import annotations

import operator
from array import array
from functools import cached_property
from typing import Iterable

from .rootsys import CartanDatum, RootSystem, build_root_system, memoized

# Default enumeration ceiling: admits every exceptional type up to E7
# (order 2,903,040); E8 requires an explicit override.
DEFAULT_MAX_ELEMENTS = 3_000_000


class GroupTooLargeError(RuntimeError):
    """Raised when enumeration would exceed the element-count ceiling."""


def _weight_field(n_positive: int) -> tuple[int, int]:
    """Bit width and offset of one packed weight coordinate: a coordinate in
    -2N..2N (N positive roots) is stored as coordinate + 2N in 0..4N."""
    return (4 * n_positive).bit_length(), 2 * n_positive


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
        if datum.weyl_group_order > max_elements:
            raise GroupTooLargeError(
                f"group of type {datum.label} exceeds the element ceiling "
                f"{max_elements}; pass a larger max_elements to enumerate it anyway"
            )
        a = datum.cartan_matrix

        # Breadth-first over left multiplication, one length level at a time.
        # An element w is keyed by lambda = w(2 rho) in fundamental-weight
        # coordinates, lambda_j = <w(2 rho), alpha_j^vee>; 2 rho is regular, so
        # lambda determines w. |lambda_j| <= 2N for N positive roots, so each
        # coordinate is stored plus 2N in its own `width`-bit field of one int.
        # s_i subtracts lambda_i alpha_i, i.e. lambda_i times column i of the
        # Cartan matrix, and l(s_i w) > l(w) iff lambda_i > 0. With i as the
        # outer loop and the level, in order, as the inner one, each element
        # is first reached from its smallest left descent i, so numbering by
        # discovery gives the (length, lexicographically smallest reduced
        # word) order and that word is (i,) + word(s_i w). left[i][w] is the
        # index of s_{i+1} w; first[w] is the smallest left descent, last[w]
        # the last letter of that word and pre[w] w without it.
        width, offset = _weight_field(root_system.n_positive)
        field = (1 << width) - 1
        shifts = [width * j for j in range(rank)]
        columns = [sum(a[j][i] << s for j, s in enumerate(shifts)) for i in range(rank)]
        left = [array("I", [0]) for _ in range(rank)]
        length, first, last = array("B", [0]), array("B", [0]), array("B", [0])
        pre = array("I", [0])
        level = [sum((2 + offset) << s for s in shifts)]
        start = 0  # index of level[0]
        depth = 1  # length of the elements found from level
        n = capacity = 1
        while level:
            ids: dict[int, int] = {}
            for i in range(rank):
                column, shift, li, letter = columns[i], shifts[i], left[i], i + 1
                for u, key in enumerate(level, start):
                    lam = (key >> shift & field) - offset
                    if lam > 0:
                        q = key - lam * column
                        j = ids.get(q)
                        if j is None:
                            j = ids[q] = n
                            n += 1
                            if j == capacity:
                                # every entry is written before it is read
                                for table in left:
                                    table.extend(table)
                                capacity *= 2
                            length.append(depth)
                            first.append(letter)
                            if u:
                                last.append(last[u])
                                pre.append(li[pre[u]])
                            else:
                                last.append(letter)
                                pre.append(0)
                        li[u] = j
                        li[j] = u
            start += len(level)
            level = list(ids)
            depth += 1
        for table in left:
            del table[n:]

        self.order = n
        self._length = length
        self._first = first
        # w = pre[w] s_a for the last letter a, so w^-1 = s_a pre[w]^-1
        inv = array("I", [0])
        for k in range(1, n):
            inv.append(left[last[k] - 1][inv[pre[k]]])
        self._inverse_index = inv
        # multiplication tables, indexed by the 1-based simple index (slot 0 is
        # unused): _lmul[i][w] is the index of s_i w, _rmul[i][w] that of w s_i,
        # and w s_i = (s_i w^-1)^-1
        self._lmul: tuple[array, ...] = (array("I"),) + tuple(left)
        self._rmul: tuple[array, ...] = (array("I"),) + tuple(
            array("I", map(inv.__getitem__, map(lm.__getitem__, inv))) for lm in left
        )
        self.elements: _Elements = _Elements(self)
        self.identity: WeylElement = self.elements[0]
        self._simple = tuple(self.elements[lm[0]] for lm in left)
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

    def bruhat_lower_mask(self, v: WeylElement) -> int:
        """Bitmask over element indices u with u <= v."""
        reach = self._bruhat_up_reach
        bit = 1 << v.index
        mask = 0
        for u in range(self.order):
            if reach[u] & bit:
                mask |= 1 << u
        return mask


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
    return ",".join(str(i) for i in w.word) if w.word else "e"


def parse_word(group: WeylGroup, text: str) -> WeylElement:
    """Parse a word string; non-reduced words are accepted and canonicalized."""
    s = text.strip()
    if s == "e" or s == "":
        return group.identity
    try:
        letters = [int(part) for part in s.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse word {text!r}: expected 'e' or comma-separated integers")
    for i in letters:
        if not 1 <= i <= group.rank:
            raise ValueError(f"word letter {i} out of range 1..{group.rank}")
    return group.from_word(letters)


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
