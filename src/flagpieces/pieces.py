"""Pieces of a partial flag variety: labels, stabilizing sequences, closures.

For a subset J of simple indices and a diagram automorphism, the pieces are
labeled by the minimal right-coset representatives ^JW. Each label carries a
stabilizing sequence (J_n, w_n), a stabilizer type, the minimal elements of
its twisted orbit, an irreducibility flag, and a position in the closure
poset given by the twisted partial order on minimal representatives.

The records are what the `pieces` command prints: the rows of the pair
engine `pairs._piece_rows`, computed in W^J x W_J without a group table,
with each word read on the table. The closure poset, `twisted_leq` and
`piece_closure` take a label's orbit minima from them, and `verify` checks
them (`flagpieces.oracle`).
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import or_
from typing import NamedTuple

from .pairs import _bit_flags, _gather, _pack, _piece_rows
from .rootsys import memoized
from .twist import TwistedConjugation, simple_image
from .weyl import WeylElement, WeylGroup


class SequenceError(ValueError):
    """A stabilizing sequence violates one of its defining conditions."""


def simple_image_subset(w: WeylElement, subset) -> frozenset[int]:
    """{j : w(alpha_k) = alpha_j for some k in subset}; non-simple images dropped."""
    return frozenset(simple_image(w, k) for k in subset) - {None}


class TwistedSequence(NamedTuple):
    """The stabilizing sequence (J_n, w_n), stored up to its first stable pair."""

    steps: tuple[tuple[frozenset[int], WeylElement], ...]
    stable_J: frozenset[int]
    stable_w: WeylElement

    def subset_at(self, n: int) -> frozenset[int]:
        """J_n, extended constantly beyond the stabilization point."""
        return self.steps[min(n, len(self.steps) - 1)][0]


def validate_sequence(tc: TwistedConjugation, seq: TwistedSequence) -> None:
    """Check the four defining conditions and stabilization; raise on failure."""
    g, delta = tc.group, tc.delta
    steps = seq.steps
    if not steps:
        raise SequenceError("sequence has no steps")
    for n, (Jn, wn) in enumerate(steps):
        dJn = delta.subset(Jn)
        if not (g.is_min_right_rep(wn, Jn) and g.is_min_left_rep(wn, dJn)):
            raise SequenceError(
                f"condition (c) fails at step {n}: w_{n} is not a minimal "
                f"double coset representative"
            )
        if n == 0:
            continue
        Jp, wp = steps[n - 1]
        if Jn != Jp & simple_image_subset(wp, delta.subset(Jp)):
            raise SequenceError(f"condition (b) fails at step {n}")
        if not Jn < Jp:
            raise SequenceError(f"J_{n} does not strictly shrink before stabilization")
        dJp = delta.subset(Jp)
        if g.double_coset_rep(wn, Jn, dJp) != g.double_coset_rep(wp, Jn, dJp):
            raise SequenceError(
                f"condition (d) fails at step {n}: w_{n} is not in "
                f"W_J_{n} w_{n-1} W_d(J_{n-1})"
            )
    Jm, wm = steps[-1]
    if Jm != Jm & simple_image_subset(wm, delta.subset(Jm)):
        raise SequenceError("final step is not stabilized")
    if (seq.stable_J, seq.stable_w) != (Jm, wm):
        raise SequenceError("stable pair does not match the final step")


@memoized
def sequence_for(tc: TwistedConjugation, J, w: WeylElement) -> TwistedSequence:
    """Stabilizing sequence of the piece labeled by w^-1, for w in W^J.

    Iterated parabolic restriction from J_0 = J: w_n = min(w^-1 W_{d(J_n)})
    and J_{n+1} = J_n intersect Ad(w_n) d(J_n), read off `_restricted_image`.
    w_n depends only on J_n, so the pair first repeats when J_{n+1} = J_n,
    after at most |J| + 1 steps. `oracle.check_sequence_bijection` checks it.
    Memoized per (J, w) in tc's `_memo`, so `sequence_root_inclusions` reuses
    the sequences that the bijection check made.
    """
    g, delta = tc.group, tc.delta
    if not g.is_min_left_rep(w, J):
        raise ValueError(f"w = {w!r} is not a minimal coset representative for J={sorted(J)}")
    winv = w.inverse()
    steps: list[tuple[frozenset[int], WeylElement]] = []
    Jn, prev = J, None
    while Jn != prev:
        dJn = delta.subset(Jn)
        wn = g.min_coset_rep(winv, dJn, "right")
        steps.append((Jn, wn))
        prev, Jn = Jn, Jn & _restricted_image(g, dJn, wn)
    return TwistedSequence(tuple(steps), prev, wn)


def sequence_to_label(tc: TwistedConjugation, seq: TwistedSequence) -> WeylElement:
    """The element of W^J corresponding to a valid sequence: inverse(stable_w)."""
    validate_sequence(tc, seq)
    return seq.stable_w.inverse()


def twisted_leq(tc: TwistedConjugation, J, w: WeylElement, w2: WeylElement) -> bool:
    """The twisted partial order on W^J, extended to arbitrary right arguments.

    For w2 in W^J: true iff for some (equivalently any) v' minimal in the
    twisted orbit of w2 there is a v minimal in the orbit of w with v <= v';
    v' is the first minimal element of that orbit. For general w2: true iff
    some such v satisfies v <= w2 directly. The minima are those of the
    records (`_minima`); `oracle.check_order_axioms` checks that the choice
    of v' does not matter.
    """
    g = tc.group
    if w.group is not g or w2.group is not g:
        raise ValueError("elements do not belong to this group")
    minima = _minima(tc, J)
    if w.index not in minima:
        raise ValueError(f"w = {w!r} is not a minimal coset representative for J={sorted(J)}")
    target = minima[w2.index][0] if w2.index in minima else w2
    return (_up_mask(g, minima[w.index]) >> target.index) & 1 == 1


@memoized
def _minima(tc: TwistedConjugation, J) -> dict[int, tuple[WeylElement, ...]]:
    """{index of y in W^J: the minimal elements of its orbit}, read off the
    records; memoized per J in tc's `_memo`."""
    return {rec.inv_w.index: rec.orbit_min for rec in piece_records(tc, J)}


def _up_mask(g: WeylGroup, mins) -> int:
    """Bitmask over element indices x with v <= x in Bruhat order for some v in mins."""
    reach = g._bruhat_up_reach
    up = 0
    for v in mins:
        up |= reach[v.index]
    return up


def _bits(mask: int):
    """Positions of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class PieceRecord(NamedTuple):
    """Per-piece metadata: the ^JW label and everything derived from it."""

    index_w: WeylElement  # the piece label, in ^JW
    inv_w: WeylElement  # its inverse, in W^J
    stabilizer_set: frozenset[int]
    orbit_min: tuple[WeylElement, ...]
    irreducible: bool | None  # None when J = I (criterion not applicable)


class ClosurePoset(NamedTuple):
    """The closure partial order on the pieces for one subset J."""

    J: frozenset[int]
    records: tuple[PieceRecord, ...]
    leq_rows: tuple[int, ...]  # row a: bitmask of {b : a below-or-equal b}
    hasse_edges: tuple[tuple[int, int], ...]  # covering pairs (lower, upper)

    def leq(self, a: int, b: int) -> bool:
        return (self.leq_rows[a] >> b) & 1 == 1


@memoized
def piece_records(tc: TwistedConjugation, J) -> tuple[PieceRecord, ...]:
    """One record per element of ^JW, in the deterministic group order: the
    rows of `pairs._piece_rows`, each word read on tc's group table.
    Memoized per J in tc's `_memo`, so the engine runs once per (tc, J)."""
    word = tc.group.from_word
    out = []
    for row in _piece_rows(tc.delta, J):
        b = word(row.word)
        minima = tuple(map(word, row.orbit_min))
        out.append(PieceRecord(b, b.inverse(), row.stabilizer_set, minima, row.irreducible))
    return tuple(out)


@memoized
def closure_poset(tc: TwistedConjugation, J) -> ClosurePoset:
    """Closure order on pieces: a below b iff a^-1 twisted-below b^-1.

    Row a is read off one mask: up, the OR of the Bruhat up-sets of the
    minimal elements of the orbit of a^-1. Bit b of the row is the bit of up
    at the first minimal element of the orbit of b^-1; one gather reads it for
    every b. `oracle.check_order_axioms` checks that every minimal element of
    that orbit gives the same bit and that the rows form a partial order. The
    covers of a are the b above a that lie above no other c strictly above
    a: above(a) minus the OR of the strict rows of those c. The minima are
    the records'; no orbit partition of W is built. Memoized per J in tc's
    `_memo`.
    """
    g = tc.group
    records = piece_records(tc, J)
    n = len(records)
    at_targets = _gather([rec.orbit_min[0].index for rec in records])
    rows = [_pack(at_targets(_bit_flags(_up_mask(g, rec.orbit_min), g.order))) for rec in records]
    strict = [row & ~(1 << a) for a, row in enumerate(rows)]
    hasse = []  # a and then b ascend, so the edges come out sorted
    for a, above in enumerate(strict):
        through = reduce(or_, compress(strict, _bit_flags(above, n)), 0)
        hasse.extend((a, b) for b in _bits(above & ~through))
    return ClosurePoset(J, records, tuple(rows), tuple(hasse))


def piece_closure(tc: TwistedConjugation, J, w: WeylElement) -> tuple[WeylElement, ...]:
    """Labels of the pieces inside the closure of the stratum attached to w."""
    winv = w.inverse()
    return tuple(
        rec.index_w for rec in piece_records(tc, J) if twisted_leq(tc, J, rec.inv_w, winv)
    )


def parabolic_restriction_type(group: WeylGroup, J, K, w: WeylElement) -> frozenset[int]:
    """The type J1 = J intersect Ad(w1)K with w1 = min(w W_K), for w in ^JW.

    `oracle.check_parabolic_restriction` checks the root-level identity
    Phi_J1 = Phi_J intersect w1(Phi_K).
    """
    J = frozenset(J)
    if not group.is_min_right_rep(w, J):
        raise ValueError(f"w = {w!r} is not in ^JW for J={sorted(J)}")
    return J & _restricted_image(group, K, group.min_coset_rep(w, K, "right"))


@memoized
def _restricted_image(group: WeylGroup, K, w1: WeylElement) -> frozenset[int]:
    """simple_image_subset(w1, K) for w1 in W^K, memoized per (K, w1)."""
    return simple_image_subset(w1, K)


class RootInclusionReport(NamedTuple):
    """Outcome of the layerwise root-inclusion checks along a sequence."""

    w: WeylElement
    J: frozenset[int]
    checked: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def sequence_root_inclusions(tc: TwistedConjugation, J, w: WeylElement) -> RootInclusionReport:
    """Verify, at root level, how w transports the layers of its sequence.

    With (J_n) the subsets of the stabilizing sequence of w in W^J:
      (1) w(Phi+_J minus Phi_{J_1}) avoids Phi_{d(J)} (stays positive);
      (2) w(Phi+_{J_i} minus Phi_{J_{i+1}}) lands in
          Phi+_{d(J_{i-1})} minus Phi_{d(J_i)} for i >= 1.
    """
    g, delta = tc.group, tc.delta
    rs = g.root_system
    J = frozenset(J)
    seq = sequence_for(tc, J, w)
    n_steps = len(seq.steps)
    checked = 0
    failures: list[str] = []

    # (1): layer 0 into the unipotent part across delta(J)
    J1 = seq.subset_at(1)
    target = frozenset(range(rs.n_positive)) - rs.parabolic_root_indices(delta.subset(J))
    for r in rs.parabolic_root_indices(J, positive_only=True) - rs.parabolic_root_indices(J1):
        checked += 1
        img = w.root_image(r)
        if img not in target:
            failures.append(
                f"layer 0: w({rs.roots[r].coords}) = {rs.roots[img].coords} "
                f"is not in Phi+ minus Phi_d(J)"
            )
    # (2): layer i into the delta-image of the previous Levi, off the next one
    for i in range(1, n_steps):
        Ji, Ji1 = seq.subset_at(i), seq.subset_at(i + 1)
        target = rs.parabolic_root_indices(delta.subset(seq.subset_at(i - 1)), positive_only=True)
        target -= rs.parabolic_root_indices(delta.subset(Ji))
        for r in rs.parabolic_root_indices(Ji, positive_only=True) - rs.parabolic_root_indices(Ji1):
            checked += 1
            img = w.root_image(r)
            if img not in target:
                failures.append(
                    f"layer {i}: w({rs.roots[r].coords}) = {rs.roots[img].coords} "
                    f"is not in Phi+_d(J_{i-1}) minus Phi_d(J_{i})"
                )
    return RootInclusionReport(w, J, checked, tuple(failures))
