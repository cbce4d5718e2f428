"""Diagram automorphisms and the twisted conjugation action x . y = d(x) y x^-1.

A diagram automorphism d permutes the simple roots while preserving the
Cartan matrix; it acts on the Weyl group by relabeling the letters of
reduced words, since d(s_i) = s_d(i). For a subset J of simple indices this
module computes the twisted W_J-orbits and their minimal elements, the
stabilizer type of a minimal coset representative, the class decomposition
of W, the one-step cyclic-shift relation w -> s_d(j) w s_j (when length does
not grow), its strongly connected components, and strong conjugacy via
length-additive steps.

Orbits, shift classes and strong-conjugacy classes are three partitions of W,
and each is the set of connected components of a symmetric relation on
element indices: the twist steps y -> s_d(j) y s_j, the length-preserving
shift steps, and the length-additive, length-preserving twists by elements
of W_J. One class walks them all (`_Parts`): a part is walked on the first
lookup of a member, kept as an ascending `array('I')` of element indices,
and the part numbers are an `array('I')` indexed by element, so a partition
of W makes no element objects. The orbit partition is walked whole, in
increasing index order; the orbit minima of one y in W^J are the shift class
of y alone (`orbit_min`), and strong-conjugacy parts are walked as they are
looked up. A twisted orbit creates its member and minimal elements when they
are read.
"""

from __future__ import annotations

import heapq
import threading
from array import array
from bisect import bisect_right
from typing import NamedTuple

from .rootsys import RootSystem, memoized
from .weyl import WeylElement, WeylGroup


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
        return frozenset(self.images[j - 1] for j in J)

    def __repr__(self) -> str:
        return f"DiagramAutomorphism({self.root_system.datum.label}, {self.spec})"


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


_UNSEEN = 0xFFFFFFFF  # part number of an index the walk has not reached


class _Parts:
    """The connected components of a symmetric relation on range(n), each
    walked on the first lookup of one of its members; neighbours(k) lists
    the indices related to k.

    `parts[k]` is the number of k's part, numbered in the order parts are
    walked; `part(k)` is that part as an ascending array('I'); `all()` walks
    what is left and returns the parts ordered by smallest member. Walking
    every index in increasing order, as `all()` does, numbers each part by
    its position there. A walk runs under a lock, and a part counts as walked
    once its array is stored: a thread that reads a number set by a walk
    still running waits for it, and two threads that miss on one part do not
    number it twice."""

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

    def part(self, k: int) -> array:
        return self._parts[self[k]]

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
    components, strong-conjugacy classes, distinguished forms, and
    `pieces.closure_poset`) are memoized in this object's `_memo` dict by
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

    def delta_apply(self, w: WeylElement) -> WeylElement:
        return delta_on_element(self.delta, w)

    def twisted_conjugate(self, x: WeylElement, y: WeylElement, J) -> WeylElement:
        """d(x) y x^-1 for x in W_J."""
        if not self.group.in_parabolic(x, J):
            raise ValueError(f"x = {x!r} is not in the parabolic subgroup W_{sorted(J)}")
        return self.delta_apply(x) * y * x.inverse()

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

    def orbit(self, y: WeylElement, J) -> TwistedOrbit:
        """The twisted W_J-orbit of y."""
        orbits, orbit_of = self.orbit_partition(J)
        return orbits[orbit_of[y.index]]

    def orbit_min(self, y: WeylElement, J) -> tuple[WeylElement, ...]:
        """Minimal elements of the twisted W_J-orbit of y in W^J, ascending by
        index (for any other y, read `orbit(y, J).min_elements`): the shift
        class of y, walked alone, so no orbit is walked whole.

        (i) y is minimal: for x in W_J, l(y x^-1) = l(y) + l(x) as y is in W^J,
        and l(d(x)) = l(x), so l(d(x) y x^-1) >= l(y x^-1) - l(x) = l(y).
        (ii) The minima of an orbit that meets W^J are one shift class. This is
        asserted, not proved: by `oracle.check_strong_conjugacy`, and by
        `oracle.check_closure_agreement` against the literal orbit minima.
        """
        if not self.group.is_min_left_rep(y, J):
            raise ValueError(f"y = {y!r} is not a minimal coset representative for J={sorted(J)}")
        return tuple(map(self.group.elements.__getitem__, self._scc(J).part(y.index)))

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

    def shift_step(self, w: WeylElement, j: int, J) -> WeylElement | None:
        """s_d(j) w s_j when its length is <= l(w); None otherwise."""
        if j not in set(J):
            raise ValueError(f"index {j} is not in J={sorted(J)}")
        g = self.group
        z = self.delta_apply(g.simple_reflection(j)) * w * g.simple_reflection(j)
        return z if z.length <= w.length else None

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

    def same_shift_class(self, w: WeylElement, w2: WeylElement, J) -> bool:
        parts = self._scc(J)
        return parts[w.index] == parts[w2.index]

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
        # Per element w, one sweep of the W_J tree (as in WeylGroup._sweep)
        # gives d(x) w, w x^-1 and d(x) w x^-1 for every x in W_J, each from
        # its parent's values. A part is walked when one of its members is
        # first looked up: a step keeps the length and stays in the orbit, so
        # the part of an orbit minimum holds only minima of that orbit, and
        # `oracle.check_strong_conjugacy`, which looks up only minima, walks
        # nothing else.
        g = self.group
        dl, rmul, length = self._dlmul, g._rmul, g._length
        lxs = [x.length for x in g.parabolic_elements(J)]
        steps = g._parabolic_tree(J)[1:]

        def twists(k: int) -> list[int]:
            dxw, wxi, z = [k], [k], [k]
            for p, f in steps:
                left, right = dl[f], rmul[f]
                dxw.append(left[dxw[p]])
                wxi.append(right[wxi[p]])
                z.append(right[left[z[p]]])
            lw = length[k]
            # length-preserving, and d(x) w or w x^-1 is length-additive
            return [
                v
                for v, a, b, lx in zip(z, dxw, wxi, lxs)
                if length[v] == lw and lw + lx in (length[a], length[b])
            ]

        return _Parts(g.order, twists)

    def strongly_conjugate(self, w: WeylElement, w2: WeylElement, J) -> bool:
        """Whether w ~ w2: a chain of length-preserving, length-additive twists."""
        comp = self._strong_components(J)
        return comp[w.index] == comp[w2.index]

    # -- reduction to distinguished form -----------------------------------------

    @memoized
    def _distinguished_form(self, J: frozenset[int], uidx: int):
        """(label, tail) if u = label * tail, label in W^J and tail in W_K, for
        u the element of index uidx; else None."""
        u = self.group.elements[uidx]
        label = self.group.min_coset_rep(u, J, "right")
        tail = label.inverse() * u
        if set(tail.word) <= self.stabilizer_type(J, label):
            return label, tail
        return None

    def reduce_to_distinguished(self, w: WeylElement, J) -> Reduction:
        """Shift w down to some label * tail with the tail in the stabilizer type.

        Breadth-first over shift steps, visiting shorter elements first; the
        returned path lists (j, element reached) for each step taken.
        """
        J = frozenset(J)
        elems, length = self.group.elements, self.group._length
        moves = list(zip(sorted(J), self._twist_steps(J)))
        start = w.index
        parents: dict[int, tuple[int, int]] = {}
        seen = {start}
        heap: list[tuple[int, int, int]] = [(w.length, 0, start)]
        counter = 1
        while heap:
            _, _, uidx = heapq.heappop(heap)
            form = self._distinguished_form(J, uidx)
            if form is not None:
                label, tail = form
                steps = []
                idx = uidx
                while idx != start:
                    pidx, j = parents[idx]
                    steps.append((j, elems[idx]))
                    idx = pidx
                return Reduction(label, tail, tuple(reversed(steps)))
            for j, (dl, r) in moves:
                z = r[dl[uidx]]
                zlen = length[z]
                if zlen <= length[uidx] and z not in seen:
                    seen.add(z)
                    parents[z] = (uidx, j)
                    heapq.heappush(heap, (zlen, counter, z))
                    counter += 1
        raise RuntimeError(
            "internal error: no distinguished product is shift-reachable from "
            f"{w!r} for J={sorted(J)}; this contradicts a proven property"
        )
