"""Brute-force reference implementations and the agreement check suite.

Everything here chases definitions with explicit quantifiers: subword scans
for the Bruhat order, all-subsets scans for stabilizer types, recursive
enumeration of stabilizing sequences, and the twisted order unrolled over
full minimal-orbit sets. The literal sets (twisted orbits, classes, cosets
and double cosets) are sets of element indices with one value per x in the
parabolic subgroup: a sweep of its prefix tree (`WeylGroup._sweep`) gets the
value at x = s_f x' from the value at x' in one or two table steps, so no
element object is made per product and no word is walked per x, and a union
of orbits or cosets skips a start it already holds (`_sweep_union`); the
quantifiers over those sets are unchanged. The checks compare these against
the fast paths and return OracleReport records; they are shipped in the
library so the CLI verify command can run them in the field. All
verification lives here, and no fast path has a checking mode:
`check_order_axioms` checks the poset axioms and the independence of the
twisted order from the orbit minimum on the fast path's own records.
`run_all_checks` runs each group check and each subset's checks as one job,
spread over this process and forked worker processes, one per CPU (all in
this process, in the serial order, under a tracer or profiler). The processes
pull job numbers from one pipe, the group checks first and then the subsets'
jobs longest first, and the reports merge in the serial order: group checks
first, then each per-subset check over the subsets in `subsets_of` order.
The bit reads of the twisted-order checks are whole-row C-level calls
(`pairs._bit_flags`, `_gather`, `_pack`); the orbits, minimal sets and
quantifiers they read are still built literally.
"""

from __future__ import annotations

import itertools
import os
import pickle
import signal
import sys
from collections import Counter
from functools import partial, reduce
from operator import or_

from . import pieces as pieces_mod
from .pieces import (
    SequenceError,
    TwistedSequence,
    _bits,
    _up_mask,
    parabolic_restriction_type,
    sequence_for,
    sequence_root_inclusions,
    simple_image_subset,
    validate_sequence,
)
from .pairs import _bit_flags, _gather, _pack
from .rootsys import CartanDatum, RootSystem, memoized
from .twist import TwistedConjugation, support
from .weyl import WeylElement, WeylGroup, word_str

_MAX_FAILURES = 8  # per report; enough to debug without flooding output


class OracleReport:
    """Outcome of one agreement check: name, coverage, and any failures."""

    def __init__(self, check_name: str):
        self.check_name = check_name
        self.instances_checked = 0
        self.failure_count = 0  # exact, however many failures are kept
        self.failures: list[tuple[str, str, str]] = []  # the first few

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

    def record(self, description: str, expected, got) -> None:
        self.failure_count += 1
        if len(self.failures) < _MAX_FAILURES:
            self.failures.append((description, str(expected), str(got)))

    def merge(self, other: OracleReport) -> None:
        """Add another report's instances and failures to this one."""
        self.instances_checked += other.instances_checked
        self.failure_count += other.failure_count
        self.failures.extend(other.failures[: _MAX_FAILURES - len(self.failures)])

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{status} {self.check_name} ({self.instances_checked} instances"
        if not self.passed:
            line += f", {self.failure_count} failures"
        return line + ")"


def subsets_of(indices) -> list[frozenset[int]]:
    """All subsets of an index set, smallest first, in a fixed order."""
    idx = sorted(indices)
    out = []
    for k in range(len(idx) + 1):
        for comb in itertools.combinations(idx, k):
            out.append(frozenset(comb))
    return out


# -- Bruhat order ---------------------------------------------------------------


def _subword_products(g: WeylGroup, word) -> set[int]:
    """Indices of the products of the subwords of word, built prefix by
    prefix: those of a_1 ... a_m are those of a_1 ... a_{m-1}, each with and
    without a_m appended. Each step is one set, at most |W| wide, so the
    scan is linear in the word's length, not exponential. For a reduced
    word of v these are the u <= v (the subword property)."""
    products = {g.identity.index}
    for letter in word:
        rmul = g._rmul[letter]
        products |= {rmul[x] for x in products}
    return products


# -- stabilizer types -------------------------------------------------------------


def _subset_images(tc: TwistedConjugation, J) -> dict[frozenset[int], frozenset[int]]:
    """{K: d(K)} for every subset K of J, in `subsets_of` order (J last)."""
    return {K: tc.delta.subset(K) for K in subsets_of(frozenset(J))}


def _stabilizer_scan(w: WeylElement, images: dict[frozenset[int], frozenset[int]]) -> frozenset[int]:
    """Scan every subset K of J for w({alpha_K}) = {alpha_d(K)} and return
    the largest, over images = `_subset_images(tc, J)`, which
    `check_stabilizer_type` makes once per J. Per k in J, image[k] is the j
    with w(alpha_k) = alpha_j, or None when w(alpha_k) is not a simple root
    (and so in no d(K))."""
    rs = w.group.root_system
    J = next(reversed(images))
    image = {}
    for k in J:
        r = w.root_image(rs.simple_root_index(k))
        coords = rs.roots[r].coords
        image[k] = coords.index(1) + 1 if rs.is_positive_index(r) and sum(coords) == 1 else None
    valid = [K for K, dK in images.items() if frozenset(map(image.__getitem__, K)) == dK]
    union = frozenset().union(*valid)
    if frozenset(map(image.__getitem__, union)) != images[union]:
        raise AssertionError(
            f"valid subsets for w={w!r}, J={sorted(J)} are not closed under union"
        )
    best = max(valid, key=len)
    if best != union:
        raise AssertionError(f"maximum valid subset is not unique for w={w!r}, J={sorted(J)}")
    return best


# -- stabilizing sequences ----------------------------------------------------------


def _sweep_union(g: WeylGroup, subset, starts, left=None, right=None) -> set[int]:
    """The union over y in starts of the sweeps {L(x) y R(x)^-1 : x in W_J}
    (`WeylGroup._sweep`). Each sweep is the orbit of y under x . y =
    L(x) y R(x)^-1 (a coset, or a twisted orbit), and orbits are disjoint or
    equal, so a start already in the union has its whole sweep there and is
    skipped."""
    out: set[int] = set()
    for y in starts:
        if y not in out:
            out.update(g._sweep(subset, y, left, right))
    return out


def enumerate_stabilizing_sequences(tc: TwistedConjugation, J) -> list[TwistedSequence]:
    """All sequences satisfying the four defining conditions, to stabilization.

    Branches over every admissible w_{n+1} in its double coset; a sequence is
    complete once the next pair would repeat the current one.
    """
    g, delta = tc.group, tc.delta
    elems, lmul, rmul = g.elements, g._lmul, g._rmul
    J = frozenset(J)
    out: list[TwistedSequence] = []

    def extend(steps: list[tuple[frozenset[int], WeylElement]]) -> None:
        if len(steps) > g.rank + 2:
            raise RuntimeError("internal error: sequence enumeration did not stabilize")
        Jn, wn = steps[-1]
        dJn = delta.subset(Jn)
        Jn1 = Jn & simple_image_subset(wn, dJn)
        dJn1 = delta.subset(Jn1)
        # the double coset W_Jn1 wn W_d(Jn): a wn for every a, then times
        # every b (swept as y x^-1 for x in W_d(Jn))
        lefts = g._sweep(Jn1, wn.index, left=lmul)
        coset = _sweep_union(g, dJn, lefts, right=rmul)
        cands = [
            elems[x]
            for x in sorted(coset)
            if g.is_min_right_rep(elems[x], Jn1) and g.is_min_left_rep(elems[x], dJn1)
        ]
        for w1 in cands:
            if (Jn1, w1) == (Jn, wn):
                out.append(TwistedSequence(tuple(steps), Jn, wn))
            else:
                extend(steps + [(Jn1, w1)])

    for w0 in g.min_double_coset_reps(J, delta.subset(J)):
        extend([(J, w0)])
    return out


# -- the twisted order, unrolled -------------------------------------------------------


def closure_matrix_oracle(tc: TwistedConjugation, J):
    """Literal evaluation of the twisted order over W^J x W^J.

    Returns (reps, matrix, minima): matrix[a][b] = (reps[a] <= reps[b]), 1 or
    0, and minima[b] the orbit minima of reps[b], ascending indices. Orbits
    and their minima are recomputed as one literal pass over W_J, and the
    some/any forms of the definition are both evaluated and compared.
    Row a is read off one byte per element, the flag of "some minimal v of
    the orbit of reps[a] lies below it": the OR of the Bruhat up-sets of
    those v, expanded in one C-level call. Some minimum of an orbit has the
    flag iff every one has it exactly when each reads the flag of the orbit's
    first minimum, its lead; so one gather compares every later minimum with
    its lead, and one more reads the row at the leads.
    """
    g = tc.group
    reach, length = g._bruhat_up_reach, g._length
    reps = g.min_coset_reps(J, "right")
    minima: list[tuple[int, ...]] = []
    for w in reps:
        orb = g._sweep(J, w.index, tc._dlmul, g._rmul)  # d(x) w x^-1 per x in W_J
        low = min(map(length.__getitem__, orb))
        minima.append(tuple(sorted({e for e in orb if length[e] == low})))
    at_leads = _gather([m[0] for m in minima])
    # an orbit with one minimum cannot split; the others' later minima are
    # each compared with their lead
    later = [(v, m[0]) for m in minima for v in m[1:]]
    if later:
        at_later, at_their_leads = _gather([v for v, _ in later]), _gather([u for _, u in later])
    matrix = []
    for w, mins in zip(reps, minima):
        flags = _bit_flags(reduce(or_, map(reach.__getitem__, mins)), g.order)
        if later and at_later(flags) != at_their_leads(flags):
            w2 = next(w2 for w2, m in zip(reps, minima) if len({flags[v] for v in m}) > 1)
            raise AssertionError(
                f"some/any disagree for w={w!r}, w2={w2!r}, J={sorted(J)}"
            )
        matrix.append(list(at_leads(flags)))
    return reps, matrix, minima


# -- positive roots, by root strings ---------------------------------------------------


def positive_roots_oracle(datum: CartanDatum) -> set[tuple[int, ...]]:
    """Rebuild the positive roots height by height using root strings.

    beta + alpha_i is a root iff the string bound q = p - <beta, alpha_i^vee>
    is positive, where p is how far beta - k alpha_i stays a root. Independent
    of the reflection-closure construction.
    """
    rank = datum.rank
    a = datum.cartan_matrix
    simples = [tuple(1 if k == i else 0 for k in range(rank)) for i in range(rank)]
    roots: set[tuple[int, ...]] = set(simples)
    layer = list(simples)
    while layer:
        nxt = []
        for beta in layer:
            for i in range(rank):
                alpha = simples[i]
                if beta == alpha:
                    continue
                pairing = sum(a[i][k] * beta[k] for k in range(rank))
                p = 0
                down = tuple(b - al for b, al in zip(beta, alpha))
                while down in roots:
                    p += 1
                    down = tuple(d - al for d, al in zip(down, alpha))
                if p - pairing >= 1:
                    up = tuple(b + al for b, al in zip(beta, alpha))
                    if up not in roots:
                        roots.add(up)
                        nxt.append(up)
        layer = nxt
    return roots


# -- irreducibility ----------------------------------------------------------------------


@memoized
def _stable_subsets(tc: TwistedConjugation, I) -> tuple[frozenset[int], ...]:
    """The delta-stable subsets of I, scanned once per action."""
    return tuple(S for S in subsets_of(I) if tc.delta.subset(S) == S)


def irreducible_oracle(tc: TwistedConjugation, J, w: WeylElement) -> bool:
    """A piece is reducible iff some delta-stable proper subset of I contains
    the support of its label together with its stabilizer type."""
    full = frozenset(tc.group.simple_indices)
    K = tc.stabilizer_type(J, w.inverse())
    need = support(w) | K
    return not any(need <= S for S in _stable_subsets(tc, full) if S != full)


# -- check suite ------------------------------------------------------------------------


def check_root_system(rs: RootSystem) -> OracleReport:
    """Reflection involutivity, uniform signs, and an independent root recount."""
    rep = OracleReport("root-system")
    for i in rs.simple_indices:
        for r in range(len(rs.roots)):
            rep.instances_checked += 1
            if rs.reflect(i, rs.reflect(i, r)) != r:
                rep.record(f"s_{i} not involutive at root {r}", r, rs.reflect(i, rs.reflect(i, r)))
    for k, root in enumerate(rs.roots):
        rep.instances_checked += 1
        if not (all(c >= 0 for c in root.coords) or all(c <= 0 for c in root.coords)):
            rep.record(f"root {k} has mixed signs", "uniform signs", root.coords)
    expected = positive_roots_oracle(rs.datum)
    got = {rs.roots[k].coords for k in range(rs.n_positive)}
    rep.instances_checked += 1
    if expected != got:
        rep.record(
            f"positive roots of {rs.datum.label}",
            f"{len(expected)} roots (string construction)",
            f"{len(got)} roots (reflection closure)",
        )
    return rep


def check_group_order(group: WeylGroup) -> OracleReport:
    rep = OracleReport("group-order")
    rep.instances_checked = 1
    expected = group.root_system.datum.weyl_group_order
    if group.order != expected:
        rep.record(f"order of W({group.root_system.datum.label})", expected, group.order)
    return rep


def check_bruhat_agreement(group: WeylGroup) -> OracleReport:
    """Fast Bruhat rows vs the subword oracle, for every v: one failure per
    pair (u, v) where they differ."""
    rep = OracleReport("bruhat-subword")
    up = [0] * group.order  # bit v of row u set iff u <= v by the oracle
    for v in range(group.order):
        bit = 1 << v
        for u in _subword_products(group, group.elements[v].word):
            up[u] |= bit
    rep.instances_checked = group.order * group.order
    for u, (row, fast) in enumerate(zip(up, group._bruhat_up_reach)):
        for v in _bits(row ^ fast):
            rep.record(
                f"u={word_str(group.elements[u])} vs v={word_str(group.elements[v])}",
                (row >> v) & 1,
                (fast >> v) & 1,
            )
    return rep


def check_coset_minimality(group: WeylGroup) -> OracleReport:
    """min_coset_rep lands in the coset, is its unique shortest element, and
    splits the length additively."""
    rep = OracleReport("coset-minimality")
    length = group._length
    sides = (("right", group._rmul), ("left", group._lmul))
    for J in subsets_of(group.simple_indices):
        # each coset is built once, literally, and shared by its members:
        # per side, coset_of[w] is (the coset of w, its minimal-length elements)
        coset_of = {side: [None] * group.order for side, _ in sides}
        for w in group.elements:
            for side, table in sides:
                rep.instances_checked += 1
                r = group.min_coset_rep(w, J, side)
                found = coset_of[side]
                if found[w.index] is None:
                    # w x^-1 (right side) or x w (left side) for every x in W_J
                    coset = set(group._sweep(J, w.index, **{side: table}))
                    low = min(length[e] for e in coset)
                    entry = (coset, [e for e in coset if length[e] == low])
                    for e in coset:
                        found[e] = entry
                coset, mins = found[w.index]
                if r.index not in coset:
                    rep.record(f"J={sorted(J)} side={side} w={word_str(w)}", "rep in coset", "outside")
                    continue
                if len(mins) != 1 or mins[0] != r.index:
                    rep.record(
                        f"J={sorted(J)} side={side} w={word_str(w)}",
                        "unique minimum = rep",
                        f"{len(mins)} minima",
                    )
                rest = r.inverse() * w if side == "right" else w * r.inverse()
                if w.length != r.length + rest.length:
                    rep.record(
                        f"J={sorted(J)} side={side} w={word_str(w)}",
                        "l(w) = l(rep) + l(rest)",
                        f"{w.length} != {r.length} + {rest.length}",
                    )
    return rep


def check_length_additivity(group: WeylGroup) -> OracleReport:
    """l(w x) = l(w) + l(x) for w in W^J, x in W_J."""
    rep = OracleReport("length-additivity")
    for J in subsets_of(group.simple_indices):
        wj = group.parabolic_elements(J)
        for w in group.min_coset_reps(J, "right"):
            for x in wj:
                rep.instances_checked += 1
                if (w * x).length != w.length + x.length:
                    rep.record(
                        f"J={sorted(J)} w={word_str(w)} x={word_str(x)}",
                        w.length + x.length,
                        (w * x).length,
                    )
    return rep


def check_parabolic_restriction(group: WeylGroup) -> OracleReport:
    """Levi root identity for every (J, K, w in ^JW)."""
    rep = OracleReport("parabolic-restriction")
    rs = group.root_system
    all_subsets = subsets_of(group.simple_indices)
    phi = {S: rs.parabolic_root_indices(S) for S in all_subsets}
    # per K, by element index x: w1(Phi_K) for w1 = min(x W_K); w1 and every
    # w with that w1 share one image
    images: dict[frozenset[int], dict[int, frozenset[int]]] = {K: {} for K in all_subsets}
    for J in all_subsets:
        phi_j = phi[J]
        reps = group.min_coset_reps(J, "left")
        for K in all_subsets:
            phi_k, image_of = phi[K], images[K]
            rep.instances_checked += len(reps)
            for w in reps:
                j1 = parabolic_restriction_type(group, J, K, w)
                image = image_of.get(w.index)
                if image is None:
                    w1 = group.min_coset_rep(w, K, "right")
                    image = image_of.get(w1.index)
                    if image is None:
                        image = image_of[w1.index] = frozenset(w1.root_image(r) for r in phi_k)
                    image_of[w.index] = image
                phi_j1 = phi[j1] if j1 in phi else rs.parabolic_root_indices(j1)
                if phi_j1 != phi_j & image:
                    rep.record(
                        f"J={sorted(J)} K={sorted(K)} w={word_str(w)}",
                        "Phi_J1 = Phi_J ^ w1 Phi_K",
                        f"J1={sorted(j1)}",
                    )
    return rep


def check_stabilizer_type(tc: TwistedConjugation, J) -> OracleReport:
    """`tc.stabilizer_type` and the records' stabilizer sets vs the
    all-subsets scan, per w in W^J."""
    rep = OracleReport("stabilizer-type")
    printed = {r.inv_w: r.stabilizer_set for r in pieces_mod.piece_records(tc, J)}
    images = _subset_images(tc, J)
    for w in tc.group.min_coset_reps(J, "right"):
        rep.instances_checked += 1
        fast = tc.stabilizer_type(J, w)
        slow = _stabilizer_scan(w, images)
        if fast != slow:
            rep.record(f"J={sorted(J)} w={word_str(w)}", sorted(slow), sorted(fast))
        got = printed.get(w, slow)  # a label without a record fails closure-agreement
        if got != slow:
            rep.record(f"J={sorted(J)} record of w={word_str(w)}", sorted(slow), sorted(got))
    return rep


def check_class_partition(tc: TwistedConjugation, J) -> OracleReport:
    """Classes tile the group and match their literal double-loop recomputation."""
    rep = OracleReport("class-partition")
    g = tc.group
    classes = tc.class_decomposition(J)
    seen: set[int] = set()
    for cls in classes:
        rep.instances_checked += 1
        # base v for every v in W_K, swept as base x^-1 for x in W_K, and
        # the twisted W_J-orbit of each
        bases = g._sweep(cls.stabilizer_set, cls.base.index, right=g._rmul)
        literal = _sweep_union(g, J, bases, tc._dlmul, g._rmul)
        members = {m.index for m in cls.members}
        if literal != members:
            rep.record(
                f"J={sorted(J)} base={word_str(cls.base)}",
                f"{len(literal)} members (literal)",
                f"{len(cls.members)} members",
            )
        overlap = seen & members
        if overlap:
            rep.record(f"J={sorted(J)} base={word_str(cls.base)}", "disjoint", f"{len(overlap)} shared")
        seen |= members
    if len(seen) != g.order:
        rep.record(f"J={sorted(J)}", f"{g.order} elements covered", len(seen))
    return rep


def check_orbit_minimality(tc: TwistedConjugation, J) -> OracleReport:
    """In each twisted orbit the Bruhat-minimal and length-minimal sets agree.

    A member v is Bruhat-minimal iff no other member u has u <= v, that is
    iff bit v is clear in the OR of the members' strict Bruhat up-sets."""
    rep = OracleReport("orbit-minimality")
    g = tc.group
    reach = g._bruhat_up_reach
    orbits, _ = tc.orbit_partition(J)
    for orbit in orbits:
        rep.instances_checked += 1
        members = orbit.member_indices
        above = reduce(or_, [reach[u] & ~(1 << u) for u in members])
        bruhat_min = {v for v in members if not (above >> v) & 1}
        if bruhat_min != set(members[: orbit.n_min]):
            rep.record(
                f"J={sorted(J)} orbit of {word_str(orbit.members[0])}",
                sorted(word_str(v) for v in orbit.min_elements),
                sorted(word_str(g.elements[v]) for v in bruhat_min),
            )
    return rep


def check_strong_conjugacy(tc: TwistedConjugation, J) -> OracleReport:
    """Minimal orbit elements are pairwise strongly conjugate; and in the same
    shift class whenever the orbit meets W^J. Each pair compares the part
    numbers of its two elements in the strong-conjugacy and shift-class
    partitions (`tc._strong_components(J)`, `tc._scc(J)`), read once per
    element."""
    rep = OracleReport("strong-conjugacy")
    g = tc.group
    strong, shift = tc._strong_components(J), tc._scc(J)
    orbits, _ = tc.orbit_partition(J)
    for orbit in orbits:
        mins = orbit.min_elements
        meets = any(g.is_min_left_rep(v, J) for v in orbit.members)
        parts = [(a, strong[a.index], shift[a.index] if meets else None) for a in mins]
        rep.instances_checked += len(mins) * len(mins)
        for a, strong_a, shift_a in parts:
            for b, strong_b, shift_b in parts:
                if strong_a != strong_b:
                    rep.record(
                        f"J={sorted(J)} {word_str(a)} ~ {word_str(b)}", True, False
                    )
                if shift_a != shift_b:
                    rep.record(
                        f"J={sorted(J)} {word_str(a)} ~~ {word_str(b)}", True, False
                    )
    return rep


def check_shift_reduction(tc: TwistedConjugation, J) -> OracleReport:
    """reduce_to_distinguished succeeds for every element; paths re-verified."""
    rep = OracleReport("shift-reduction")
    g = tc.group
    J = frozenset(J)
    length = g._length
    # per simple j, in J or not, the step y -> d(s_j) y s_j as two tables:
    # the left table of d(s_j) = s_d(j) and the right table of s_j
    shifts = {j: (g._lmul[tc.delta(j)], g._rmul[j]) for j in g.simple_indices}
    stab: dict[int, frozenset[int]] = {}  # per label in W^J, by index: its stabilizer type
    for w in g.elements:
        rep.instances_checked += 1
        red = tc.reduce_to_distinguished(w, J)
        label = red.label
        K = stab.get(label.index)
        if K is None and g.is_min_left_rep(label, J):
            K = stab[label.index] = tc.stabilizer_type(J, label)
        if K is None:  # no stabilizer type, so the tail is not checked
            rep.record(f"J={sorted(J)} w={word_str(w)}", "label in W^J", word_str(label))
        elif not set(red.tail.word) <= K:
            rep.record(
                f"J={sorted(J)} w={word_str(w)}", "tail in stabilizer parabolic", word_str(red.tail)
            )
        cur = w.index
        ok = True
        for j, nxt in red.path:
            left, right = shifts[j]
            step = right[left[cur]]
            if step != nxt.index or length[step] > length[cur]:
                ok = False
                break
            cur = step
        if not ok or cur != red.target.index:
            rep.record(f"J={sorted(J)} w={word_str(w)}", "valid shift path", "broken path")
    return rep


def check_sequence_bijection(tc: TwistedConjugation, J) -> OracleReport:
    """Raw sequence enumeration is in bijection with W^J via inverse(stable_w),
    and for each w in W^J, sequence_for has the steps of the sequence labeled
    w, passes validate_sequence and stabilizes at the stabilizer type of w;
    with that label and the stable-pair check, equal steps give stable_w = w^-1."""
    rep = OracleReport("sequence-bijection")
    g = tc.group
    J = frozenset(J)
    reps = g.min_coset_reps(J, "right")
    seqs = enumerate_stabilizing_sequences(tc, J)
    rep.instances_checked += len(seqs) + len(reps)
    labels = [seq.stable_w.inverse() for seq in seqs]
    if len(seqs) != len(reps):
        rep.record(f"J={sorted(J)} sequence count", len(reps), len(seqs))
    if len(set(labels)) != len(labels):
        rep.record(f"J={sorted(J)} labels", "pairwise distinct", "collision")
    if set(labels) != set(reps):
        rep.record(f"J={sorted(J)} label set", "W^J", "different set")
    by_label = {label: seq for label, seq in zip(labels, seqs)}
    for w in reps:
        seq = by_label.get(w)
        if seq is None:
            continue
        made = sequence_for(tc, J, w)
        if made.steps != seq.steps:
            rep.record(
                f"J={sorted(J)} w={word_str(w)}",
                "recipe sequence = enumerated sequence",
                "different steps",
            )
        stab = tc.stabilizer_type(J, w)
        if made.stable_J != stab:
            rep.record(f"J={sorted(J)} w={word_str(w)} stable J", sorted(stab), sorted(made.stable_J))
        try:
            validate_sequence(tc, made)
        except SequenceError as exc:
            rep.record(f"J={sorted(J)} w={word_str(w)}", "valid recipe sequence", str(exc))
    return rep


def check_order_axioms(tc: TwistedConjugation, J) -> OracleReport:
    """Poset axioms plus representative-independence of the twisted order."""
    rep = OracleReport("order-axioms")
    poset = pieces_mod.closure_poset(tc, J)
    try:
        _check_representative_independence(tc.group, poset)
        _check_partial_order(poset.leq_rows)
    except AssertionError as exc:
        rep.instances_checked += 1
        rep.record(f"J={sorted(J)}", "partial order axioms", str(exc))
        return rep
    n = len(poset.records)
    rep.instances_checked += n * n
    return rep


def _check_representative_independence(g: WeylGroup, poset) -> None:
    """Every minimal element of the orbit of b^-1 gives the same bit in the
    up-mask of a, the mask the row of a is read off. A target b with one
    minimal element cannot split, so only the others are tested."""
    targets = [
        (ib, sum(1 << v.index for v in rec.orbit_min))
        for ib, rec in enumerate(poset.records)
        if len(rec.orbit_min) > 1
    ]
    for ia, rec in enumerate(poset.records):
        up = _up_mask(g, rec.orbit_min)
        for ib, target in targets:
            hit = up & target
            if hit and hit != target:
                raise AssertionError(
                    f"twisted order not independent of the representative at "
                    f"nodes {ia}, {ib} for J={sorted(poset.J)}"
                )


def _check_partial_order(rows) -> None:
    """Raise on the first pair (a, b), in row order, that breaks reflexivity,
    antisymmetry or transitivity.

    Whole rows are tested first: each reflexive, each the OR of the rows it
    contains, and no two equal. With the first two, equal rows are exactly
    the pairs that break antisymmetry, so rows that pass are a partial order;
    otherwise the pair loop finds the failure and its message."""
    n = len(rows)
    if len(set(rows)) == n and all(
        (row >> a) & 1 and reduce(or_, itertools.compress(rows, _bit_flags(row, n)), 0) == row
        for a, row in enumerate(rows)
    ):
        return
    for a, row in enumerate(rows):
        if not (row >> a) & 1:
            raise AssertionError(f"closure relation is not reflexive at node {a}")
        for b in _bits(row):  # every b with a <= b
            if a != b and (rows[b] >> a) & 1:
                raise AssertionError(f"closure relation is not antisymmetric at {a}, {b}")
            if rows[b] | row != row:
                raise AssertionError(f"closure relation is not transitive at {a}, {b}")


def check_closure_agreement(tc: TwistedConjugation, J) -> OracleReport:
    """closure_poset vs the literal matrix, and each record's orbit minima vs
    the literal ones (counted with its row); at J = empty, vs Bruhat order.
    The Hasse edges are compared with the covers of the literal matrix, one
    failure per differing pair, per extra copy of an edge, and for edges out
    of ascending order, counted with the rows. The records must hold
    each label of ^JW once; otherwise each label held another number of
    times is one failure, and no row is compared."""
    rep = OracleReport("closure-agreement")
    g = tc.group
    J = frozenset(J)
    reps, matrix, minima = closure_matrix_oracle(tc, J)
    pos = {w: k for k, w in enumerate(reps)}
    poset = pieces_mod.closure_poset(tc, J)
    records = poset.records
    held = Counter(r.inv_w for r in records)
    if held != Counter(reps):
        for w in dict.fromkeys([*reps, *held]):
            rep.instances_checked += 1
            if held[w] != (w in pos):
                label = word_str(w.inverse())
                rep.record(f"J={sorted(J)} records of label {label}", int(w in pos), held[w])
        return rep
    n = len(records)
    words = [word_str(r.index_w) for r in records]

    def compare_row(ia: int, expected: int, describe) -> None:
        # the row is compared whole: one failure per bit where the expected
        # row and the poset row differ
        rep.instances_checked += n
        for ib in _bits(expected ^ poset.leq_rows[ia]):
            rep.record(describe(ib), (expected >> ib) & 1 == 1, poset.leq(ia, ib))

    at_cols = _gather([pos[r.inv_w] for r in records])
    rows = [_pack(at_cols(matrix[pos[r.inv_w]])) for r in records]
    for ia, ra in enumerate(records):
        compare_row(ia, rows[ia], lambda ib: f"J={sorted(J)} {words[ia]} <= {words[ib]}")
        literal = minima[pos[ra.inv_w]]
        if tuple(v.index for v in ra.orbit_min) != literal:
            expected = [word_str(g.elements[k]) for k in literal]
            got = [word_str(v) for v in ra.orbit_min]
            rep.record(f"J={sorted(J)} orbit minima of {words[ia]}^-1", expected, got)
    # the covers of a: the b above a and above no other c strictly above a
    strict = [row & ~(1 << a) for a, row in enumerate(rows)]
    edges = [0] * n
    for a, b in poset.hasse_edges:
        edges[a] |= 1 << b
    for (a, b), k in Counter(poset.hasse_edges).items():
        for _ in range(k - 1):
            rep.record(f"J={sorted(J)} copies of edge {words[b]} covers {words[a]}", 1, k)
    distinct = list(dict.fromkeys(poset.hasse_edges))
    if distinct != sorted(distinct):
        rep.record(f"J={sorted(J)} order of the Hasse edges", "ascending", "not ascending")
    for ia, above in enumerate(strict):
        covers = above & ~reduce(or_, itertools.compress(strict, _bit_flags(above, n)), 0)
        for ib in _bits(covers ^ edges[ia]):
            got = (edges[ia] >> ib) & 1 == 1
            rep.record(f"J={sorted(J)} {words[ib]} covers {words[ia]}", not got, got)
    if not J:
        reach = g._bruhat_up_reach
        idx = [r.index_w.index for r in records]
        # the labels are then all of W; held in group order, as they are
        # when the records are right, the expected rows are the Bruhat rows
        in_order = idx == list(range(g.order))
        at_labels = _gather(idx)
        for ia, u in enumerate(idx):
            compare_row(
                ia,
                reach[u] if in_order else _pack(at_labels(_bit_flags(reach[u], g.order))),
                lambda ib: f"Bruhat at {words[ia]}, {words[ib]}",
            )
    return rep


def check_root_inclusions(tc: TwistedConjugation, J) -> OracleReport:
    """Layerwise root inclusions along every piece's stabilizing sequence."""
    rep = OracleReport("root-inclusions")
    for w in tc.group.min_coset_reps(J, "right"):
        result = sequence_root_inclusions(tc, J, w)
        rep.instances_checked += max(result.checked, 1)
        for f in result.failures:
            rep.record(f"J={sorted(J)} w={word_str(w)}: {f}", "inclusion", "violated")
    return rep


def check_irreducibility(tc: TwistedConjugation, J) -> OracleReport:
    """The records' irreducibility flags (the support criterion) vs the
    stable-proper-subset containment oracle, per label w in ^JW."""
    rep = OracleReport("irreducibility")
    g = tc.group
    J = frozenset(J)
    if J == frozenset(g.simple_indices):
        return rep  # criterion not applicable; nothing to check
    flags = {r.index_w: r.irreducible for r in pieces_mod.piece_records(tc, J)}
    for w in g.min_coset_reps(J, "left"):
        rep.instances_checked += 1
        slow = irreducible_oracle(tc, J, w)
        fast = flags.get(w, slow)  # a label without a record fails closure-agreement
        if fast != slow:
            rep.record(f"J={sorted(J)} w={word_str(w)}", slow, fast)
    return rep


PER_SUBSET_CHECKS = (
    ("stabilizer-type", check_stabilizer_type),
    ("class-partition", check_class_partition),
    ("orbit-minimality", check_orbit_minimality),
    ("strong-conjugacy", check_strong_conjugacy),
    ("shift-reduction", check_shift_reduction),
    ("sequence-bijection", check_sequence_bijection),
    ("order-axioms", check_order_axioms),
    ("closure-agreement", check_closure_agreement),
    ("root-inclusions", check_root_inclusions),
    ("irreducibility", check_irreducibility),
)

GROUP_CHECKS = (
    ("root-system", lambda group: check_root_system(group.root_system)),
    ("group-order", check_group_order),
    ("bruhat-subword", check_bruhat_agreement),
    ("coset-minimality", check_coset_minimality),
    ("length-additivity", check_length_additivity),
    ("parabolic-restriction", check_parabolic_restriction),
)


def _run_guarded(name: str, check, *args) -> OracleReport:
    # an assertion in a check or in an oracle it calls, or an internal error
    # raised by the library, surfaces as a check failure, not a traceback, so
    # the verify command can report and exit 1
    try:
        return check(*args)
    except (AssertionError, RuntimeError) as exc:
        rep = OracleReport(name)
        rep.instances_checked = 1
        rep.record(str(exc), "no assertion failure", type(exc).__name__)
        return rep


def run_subset_checks(group: WeylGroup, delta, J) -> list[OracleReport]:
    """All per-J checks with a fresh action cache."""
    tc = TwistedConjugation(group, delta)
    return [_run_guarded(name, check, tc, frozenset(J)) for name, check in PER_SUBSET_CHECKS]


class WorkerError(Exception):
    """A verify worker process ended without sending its reports back."""


def _instrumented() -> bool:
    """Whether a tracer or profiler watches this process: one set with
    sys.settrace or sys.setprofile, or one that replaced the check tables'
    functions with wrappers (a wrapper made by functools.wraps has
    __wrapped__). It sees only this process, so forked work would be
    missing from what it reports."""
    checks = GROUP_CHECKS + PER_SUBSET_CHECKS
    return bool(sys.gettrace() or sys.getprofile()) or any(hasattr(f, "__wrapped__") for _, f in checks)


def _worker_count(jobs: int) -> int:
    """W: the CPUs this process may run on, at most one per job; 1 where
    fork or the affinity mask is unavailable, and 1 under a tracer or
    profiler, which then sees every job."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or _instrumented():
        return 1
    return min(len(os.sched_getaffinity(0)), jobs)


def _pull_jobs(jobs, queue: int, caller: int | None = None) -> dict:
    """{k: jobs[k]()} for each job number k pulled from the queue pipe, until
    it is empty; in a worker, whose caller's pid is given, stop before the
    next pull once the caller is gone (killed, say), since nobody would read
    the results. The pipe holds only whole 2-byte tokens, all written before
    the first pull, so each 2-byte read takes one token, whole."""
    out = {}
    while True:
        if caller is not None and os.getppid() != caller:
            os._exit(1)
        token = os.read(queue, 2)
        if not token:
            return out
        k = int.from_bytes(token, "little")
        out[k] = jobs[k]()


def _fork_worker(jobs, queue: int):
    """Fork a worker that pulls jobs from the queue pipe; return its pid and
    the read end of the pipe it sends (True, {k: result}) or (False, exception)
    down, pickled.

    fork, not spawn: the worker reads the group table the caller built
    instead of building its own, and the library starts no threads."""
    caller = os.getpid()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(wfd)
        return pid, open(rfd, "rb")
    # the worker never returns into the caller: os._exit skips atexit
    # handlers and the flush of output the parent had buffered
    code = 1
    try:
        os.close(rfd)
        # a supervisor may read the caller's stdout and stderr to EOF; a
        # worker left running after the caller was killed must not hold them
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, 1)
        os.dup2(null, 2)
        try:
            payload = (True, _pull_jobs(jobs, queue, caller))
        except BaseException as exc:
            # imported here: at module level it adds about 0.5 MB to the
            # peak RSS of every CLI command. Notes survive pickling, so the
            # caller's traceback shows the worker's
            import traceback

            exc.add_note("in a verify worker:\n" + traceback.format_exc().rstrip())
            payload = (False, exc)
        with open(wfd, "wb") as out:
            out.write(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
        code = 0
    finally:
        os._exit(code)


def _status_text(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        return f"killed by signal {signal.Signals(-code).name}"
    return f"exit status {code}"


def _run_jobs(jobs, pull_order) -> dict:
    """{k: jobs[k]()} for every job, spread over W processes, this one
    included. With W = 1 the jobs run here in their serial order. Otherwise
    the job numbers, in the order pull_order() gives, go into one pipe before
    the W - 1 workers are forked, and every process pulls the next number
    whenever it is free, until the pipe is empty. Every forked worker is
    reaped before this returns or raises; an exception a job raised in a
    worker is raised again here."""
    width = _worker_count(len(jobs))
    if width == 1:
        return {k: job() for k, job in enumerate(jobs)}
    workers = []  # (pid, read end of its pipe)
    queue, tokens = os.pipe()
    try:
        # every token is in the pipe and its write end is closed before any
        # process pulls, so an empty read means that no job is left
        with open(tokens, "wb") as out:
            out.write(b"".join(k.to_bytes(2, "little") for k in pull_order()))
        for _ in range(1, width):
            workers.append(_fork_worker(jobs, queue))
        results = _pull_jobs(jobs, queue)
        received = [pipe.read() for _, pipe in workers]
    except BaseException:
        for pid, _ in workers:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(queue)
        statuses = []
        for pid, pipe in workers:
            pipe.close()
            statuses.append(os.waitpid(pid, 0)[1])
    for status, data in zip(statuses, received):
        if status:
            raise WorkerError(f"a verify worker ended without a result ({_status_text(status)})")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        results.update(value)
    return results


def _pull_order(group: WeylGroup) -> list[int]:
    """Job numbers in the order the processes pull them: the group checks
    first, then the per-J jobs by decreasing |W^J|^2 + |W| |W_J|, ties in
    serial order. The two terms are the closure rows and the strong-component
    sweep; a long job pulled last would keep one process busy after the
    others run dry. |W^J| is read off `min_coset_reps`, which the forked
    workers then find memoized."""
    n = group.order
    first = len(GROUP_CHECKS)
    subsets = subsets_of(group.simple_indices)

    def cost(k: int) -> int:
        reps = len(group.min_coset_reps(subsets[k], "right"))
        return reps * reps + n * (n // reps)

    per_j = sorted(range(len(subsets)), key=cost, reverse=True)
    return list(range(first)) + [first + k for k in per_j]


def run_all_checks(group: WeylGroup, delta) -> list[OracleReport]:
    """Whole-suite run for one (group, delta): group-level checks, then the
    per-J checks for every subset of simple indices, merged per check kind.
    Each group check and each per-J run is one job for `_run_jobs`."""
    jobs = [partial(_run_guarded, name, check, group) for name, check in GROUP_CHECKS]
    jobs += [partial(run_subset_checks, group, delta, J) for J in subsets_of(group.simple_indices)]
    results = _run_jobs(jobs, partial(_pull_order, group))
    reports = [results[k] for k in range(len(GROUP_CHECKS))]
    per_subset = [results[k] for k in range(len(GROUP_CHECKS), len(jobs))]
    for kind, (name, _) in enumerate(PER_SUBSET_CHECKS):
        merged = OracleReport(name)
        for chunk in per_subset:
            merged.merge(chunk[kind])
        reports.append(merged)
    return reports
