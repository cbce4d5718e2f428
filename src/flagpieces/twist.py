"""The twisted conjugation action x . y = d(x) y x^-1 on a group table.

A diagram automorphism d (`rootsys.DiagramAutomorphism`) acts on the Weyl
group by relabeling the letters of reduced words, since d(s_i) = s_d(i).
For a subset J of simple indices this module computes the twisted
W_J-orbits and their minimal elements, the stabilizer type of a minimal
coset representative, the class decomposition of W, the one-step
cyclic-shift relation w -> s_d(j) w s_j (when length does not grow), its
strongly connected components, and strong conjugacy via length-additive
steps.

Orbits, shift classes and strong-conjugacy classes are three partitions of W,
and each is the set of connected components of a symmetric relation on
element indices: the twist steps y -> s_d(j) y s_j, the length-preserving
shift steps, and the length-additive, length-preserving twists by elements
of W_J. One class walks them all (`_Parts`): a part is walked on the first
lookup of a member, kept as an ascending `array('I')` of element indices,
and the part numbers are an `array('I')` indexed by element, so a partition
of W makes no element objects. The orbit partition is walked whole, in
increasing index order; shift classes and strong-conjugacy parts are walked
as they are looked up. A twisted orbit creates its member and minimal
elements when they are read.
"""

from __future__ import annotations

import heapq
import threading
from array import array
from bisect import bisect_right
from typing import NamedTuple

from .rootsys import DiagramAutomorphism, _stable_closure, _stable_part, memoized
from .weyl import WeylElement, WeylGroup, _search_tree


def delta_on_element(delta: DiagramAutomorphism, w: WeylElement) -> WeylElement:
    """Image of w under the group automorphism induced by delta."""
    if w.group.root_system is not delta.root_system:
        raise ValueError("automorphism and element belong to different root systems")
    # delta(s_i) = s_delta(i), so delta maps a reduced word letter by letter
    return w.group.from_word(delta(i) for i in w.word)


def support(w: WeylElement) -> frozenset[int]:
    """Simple indices below w in Bruhat order.

    By the subword property these are the letters of a reduced word of w, and
    every reduced word of w has the same letters.
    """
    return frozenset(w.word)


def stable_support(w: WeylElement, delta: DiagramAutomorphism) -> frozenset[int]:
    """Smallest delta-stable set of simple indices containing support(w)."""
    return _stable_closure(support(w), delta)


def simple_image(w: WeylElement, k: int) -> int | None:
    """The j with w(alpha_k) = alpha_j, or None when w(alpha_k) is not simple."""
    # w s_k w^-1 is the reflection in w(alpha_k), so w(alpha_k) = +-alpha_j
    # iff w s_k = s_j w, and the sign is + iff l(w s_k) > l(w)
    g, x = w.group, w.index
    y = g._rmul[k][x]
    if y > x:
        lmul = g._lmul
        for j in range(1, g.rank + 1):
            if lmul[j][x] == y:
                return j
    return None


_UNSEEN = 0xFFFFFFFF  # part number of an index the walk has not reached


class _Parts:
    """The connected components of a symmetric relation on range(n), each
    walked on the first lookup of one of its members; neighbours(k) lists
    the indices related to k.

    `parts[k]` is the number of k's part, numbered in the order parts are
    walked, and `_parts[parts[k]]` is that part as an ascending array('I');
    `all()` walks what is left and returns the parts ordered by smallest
    member. Walking every index in increasing order, as `all()` does,
    numbers each part by its position there. A walk runs under a lock, and a
    part counts as walked once its array is stored: a thread that reads a
    number set by a walk still running waits for it, and two threads that
    miss on one part do not number it twice."""

    def __init__(self, n: int, neighbours):
        self._neighbours = neighbours
        self._part_of = array("I", [_UNSEEN]) * n
        self._parts: list[array] = []
        self._lock = threading.Lock()

    def __getitem__(self, k: int) -> int:
        part_of = self._part_of
        pid = part_of[k]
        if pid >= len(self._parts):  # unseen, or its walk is still running
            with self._lock:
                pid = part_of[k]
                if pid == _UNSEEN:
                    pid = part_of[k] = len(self._parts)
                    found = [k]
                    for y in found:  # found grows while it is walked
                        for z in self._neighbours(y):
                            if part_of[z] == _UNSEEN:
                                part_of[z] = pid
                                found.append(z)
                    self._parts.append(array("I", sorted(found)))
        return pid

    def all(self) -> list[array]:
        for k in range(len(self._part_of)):
            self[k]
        return sorted(self._parts, key=lambda part: part[0])


class TwistedOrbit(NamedTuple):
    """One W_J-orbit under x . y = d(x) y x^-1, kept as ascending element
    indices; its minimal elements (those of least length) are a prefix of
    them. The elements are created when `members` or `min_elements` is read."""

    group: WeylGroup
    member_indices: array
    n_min: int

    def __hash__(self) -> int:
        # equal orbits have equal members; an array is not hashable
        return hash((self.member_indices[0], self.n_min, len(self.member_indices)))

    @property
    def members(self) -> tuple[WeylElement, ...]:
        return tuple(map(self.group.elements.__getitem__, self.member_indices))

    @property
    def min_elements(self) -> tuple[WeylElement, ...]:
        return tuple(map(self.group.elements.__getitem__, self.member_indices[: self.n_min]))


class TwistClass(NamedTuple):
    """The class [w]_J = W_J . (w W_K) of a minimal representative w in W^J."""

    base: WeylElement
    stabilizer_set: frozenset[int]
    members: tuple[WeylElement, ...]


class Reduction(NamedTuple):
    """Result of shifting w down to a distinguished product label * tail."""

    label: WeylElement  # element of W^J
    tail: WeylElement  # element of W_{stabilizer_type(J, label)}
    path: tuple[tuple[int, WeylElement], ...]  # (j, element after the step)

    @property
    def target(self) -> WeylElement:
        return self.label * self.tail


class TwistedConjugation:
    """The twisted conjugation action of parabolic subgroups on a Weyl group.

    Frozen inputs (group table and diagram automorphism) are shared; per-J
    results (orbit partitions, stabilizer types, shift digraphs and their
    components, strong-conjugacy classes, distinguished forms, and the
    `pieces` records and posets) are memoized in this object's `_memo` dict by
    `rootsys.memoized`, so reuse one instance per (group, delta) pair.
    """

    def __init__(self, group: WeylGroup, delta: DiagramAutomorphism):
        if group.root_system is not delta.root_system:
            raise ValueError("group and automorphism use different root systems")
        self.group = group
        self.delta = delta
        # _lmul relabelled by delta: _dlmul[i] is the left table of s_d(i)
        self._dlmul = (group._lmul[0],) + tuple(group._lmul[delta(i)] for i in group.simple_indices)
        self._memo: dict = {}

    def _twist_steps(self, J) -> list[tuple]:
        """Per j in J, the tables (left s_d(j), right s_j): y -> s_d(j) y s_j
        is r[dl[y]] on element indices."""
        return [(self._dlmul[j], self.group._rmul[j]) for j in sorted(J)]

    def twisted_conjugate(self, x: WeylElement, y: WeylElement, J) -> WeylElement:
        """d(x) y x^-1 for x in W_J."""
        if not self.group.in_parabolic(x, J):
            raise ValueError(f"x = {x!r} is not in the parabolic subgroup W_{sorted(J)}")
        return delta_on_element(self.delta, x) * y * x.inverse()

    # -- orbits ---------------------------------------------------------------

    @memoized
    def orbit_partition(self, J) -> tuple[tuple[TwistedOrbit, ...], array]:
        """All twisted W_J-orbits, ordered by smallest member, and the
        array('I') giving each element index the position of its orbit.

        The orbits are the connected components of the steps y -> s_d(j) y s_j
        for j in J; each step is an involution and the steps generate the
        action.
        """
        g = self.group
        length = g._length
        steps = self._twist_steps(J)
        parts = _Parts(g.order, lambda y: [r[dl[y]] for dl, r in steps])
        # all() walks a fresh _Parts in increasing index order, so each part
        # number is its orbit's position; a part ascends by index, so by
        # length: its minima are the run of members as short as the first
        return (
            tuple(
                TwistedOrbit(g, part, bisect_right(part, length[part[0]], key=length.__getitem__))
                for part in parts.all()
            ),
            parts._part_of,
        )

    # -- stabilizer type -------------------------------------------------------

    @memoized
    def stabilizer_type(self, J, w: WeylElement) -> frozenset[int]:
        """Largest K inside J with w({alpha_k : k in K}) = {alpha_d(k) : k in K}.

        w must be minimal in w W_J; computed as the greatest fixpoint of
        K -> {k in K : w(alpha_k) is a simple root alpha_j with j in d(K)}.
        """
        g = self.group
        if not g.is_min_left_rep(w, J):
            raise ValueError(f"w = {w!r} is not a minimal coset representative for J={sorted(J)}")
        return _stable_part({k: simple_image(w, k) for k in J}, self.delta)

    # -- class decomposition ---------------------------------------------------

    def class_decomposition(self, J) -> tuple[TwistClass, ...]:
        """The classes [w]_J = W_J . (w W_K), one per w in W^J; they tile W."""
        g = self.group
        elems = g.elements
        orbits, orbit_of = self.orbit_partition(J)
        out = []
        for w in g.min_coset_reps(J, "right"):
            K = self.stabilizer_type(J, w)
            # w W_K, swept as w x^-1 for x in W_K
            oids = {orbit_of[y] for y in g._sweep(K, w.index, right=g._rmul)}
            members = sorted(k for oid in oids for k in orbits[oid].member_indices)
            out.append(TwistClass(w, K, tuple(map(elems.__getitem__, members))))
        return tuple(out)

    # -- cyclic shift ------------------------------------------------------------

    @memoized
    def _shift_adjacency(self, J) -> list[tuple[int, ...]]:
        """Per element index, the shift steps that do not raise length."""
        length = self.group._length
        steps = self._twist_steps(J)
        adj: list[tuple[int, ...]] = []
        for w in range(self.group.order):
            targets = {r[dl[w]] for dl, r in steps}
            adj.append(tuple(sorted(z for z in targets if length[z] <= length[w])))
        return adj

    def shift_reachable(self, w: WeylElement, J) -> tuple[WeylElement, ...]:
        """All w' with w ->_{J,d} w' (reflexive-transitive shift closure)."""
        g = self.group
        adj = self._shift_adjacency(J)
        seen = {w.index}
        stack = [w.index]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return tuple(g.elements[i] for i in sorted(seen))

    def shift_classes(self, J) -> tuple[tuple[WeylElement, ...], ...]:
        """Mutual-shift classes, ordered by smallest member: the strongly
        connected components of the shift digraph, found as the connected
        components of its length-preserving edges."""
        elems = self.group.elements
        return tuple(tuple(map(elems.__getitem__, part)) for part in self._scc(J).all())

    @memoized
    def _scc(self, J: frozenset[int]) -> _Parts:
        # A shift step by j is an involution, so a length-preserving edge
        # comes with its reverse, and no cycle can contain a length-dropping
        # edge: the strongly connected components are the connected
        # components of the length-preserving edges.
        length, steps = self.group._length, self._twist_steps(J)

        def level_steps(u: int) -> list[int]:
            lu = length[u]
            return [z for z in [r[dl[u]] for dl, r in steps] if length[z] == lu]

        return _Parts(self.group.order, level_steps)

    # -- strong conjugacy ----------------------------------------------------------

    @memoized
    def _strong_components(self, J: frozenset[int]) -> _Parts:
        # The relation is symmetric: twisting z = d(x) w x^-1 by x^-1 gives
        # back w, and d(x) w = z x (or w x^-1 = d(x^-1) z) carries the
        # length additivity over to the reverse step.
        # Per element w, one sweep of the W_J tree, a run at a time as in
        # WeylGroup._sweep, gives d(x) w, w x^-1 and d(x) w x^-1 for x in W_J,
        # each from its parent's values. With x = s_f x' (x' the parent, one
        # shorter), d(x) w is length-additive iff d(x') w is and the step by
        # s_d(f) raises it, and likewise w x^-1 with the step by s_f; so the
        # sweep keeps each while it is additive (None after), and skips the
        # subtree below an x where neither is. A part is walked when one of its
        # members is first looked up: a step keeps the length and stays in the
        # orbit, so the part of an orbit minimum holds only minima of that
        # orbit, and `oracle.check_strong_conjugacy`, which looks up only
        # minima, walks nothing else.
        g = self.group
        dl, rmul, length = self._dlmul, g._rmul, g._length
        tree = _search_tree(g.root_system, J, g._full)

        def twists(k: int) -> list[int]:
            # the z = d(x) w x^-1 that keep the length, where d(x) w or
            # w x^-1 is length-additive
            lw = length[k]
            dxw, wxi, z, out = [k], [k], [k], [k]
            for parents, f in tree:
                dlf, rf = dl[f], rmul[f]
                for p in parents:
                    a, b, v = dxw[p], wxi[p], None
                    if a is not None:
                        a = up if (up := dlf[a]) > a else None
                    if b is not None:
                        b = up if (up := rf[b]) > b else None
                    if a is not None or b is not None:
                        v = rf[dlf[z[p]]]
                        if length[v] == lw:
                            out.append(v)
                    dxw.append(a)
                    wxi.append(b)
                    z.append(v)
            return out

        return _Parts(g.order, twists)

    # -- reduction to distinguished form -----------------------------------------

    @memoized
    def _distinguished_forms(self, J: frozenset[int]) -> dict[int, tuple[int, int]]:
        """{u: (label, tail)} on element indices, for each u = label * tail
        with label in W^J and tail in W_K, K the stabilizer type of the label.
        The label is the minimum of u W_J, so u has at most one such form."""
        g = self.group
        rmul = g._rmul
        tails: dict[frozenset[int], list[int]] = {}  # per K: x^-1 for x in W_K
        forms: dict[int, tuple[int, int]] = {}
        for y in g.min_coset_reps(J, "right"):
            K = self.stabilizer_type(J, y)
            if K not in tails:
                tails[K] = g._sweep(K, 0, right=rmul)
            # the sweep from y gives u = y x^-1, in the order of the tails
            for u, t in zip(g._sweep(K, y.index, right=rmul), tails[K]):
                forms[u] = (y.index, t)
        return forms

    def reduce_to_distinguished(self, w: WeylElement, J) -> Reduction:
        """Shift w down to some label * tail with the tail in the stabilizer type.

        Breadth-first over shift steps, visiting shorter elements first; the
        returned path lists (j, element reached) for each step taken.
        """
        J = frozenset(J)
        g = self.group
        elems, length, dl, rmul = g.elements, g._length, self._dlmul, g._rmul
        letters = sorted(J)
        start = uidx = w.index
        parents: dict[int, tuple[int, int] | None] = {start: None}  # reached: (parent, j)
        heap: list[tuple[int, int, int]] = []  # (length, order reached, index)
        forms = self._distinguished_forms(J)
        while True:  # w first, then the heap's least
            form = forms.get(uidx)
            if form is not None:
                label, tail = map(elems.__getitem__, form)
                steps = []
                idx = uidx
                while idx != start:
                    pidx, j = parents[idx]
                    steps.append((j, elems[idx]))
                    idx = pidx
                return Reduction(label, tail, tuple(reversed(steps)))
            ulen = length[uidx]
            for j in letters:
                z = rmul[j][dl[j][uidx]]
                if z not in parents and length[z] <= ulen:
                    parents[z] = (uidx, j)
                    heapq.heappush(heap, (length[z], len(parents), z))
            if not heap:
                break
            uidx = heapq.heappop(heap)[2]
        raise RuntimeError(
            "internal error: no distinguished product is shift-reachable from "
            f"{w!r} for J={sorted(J)}; this contradicts a proven property"
        )
