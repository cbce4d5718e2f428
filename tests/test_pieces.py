import gc
import random
from array import array

import pytest

import flagpieces as fp
from conftest import SCOPE, orbit_of
from flagpieces import pairs
from flagpieces import pieces as pieces_mod
from flagpieces import word_str
from flagpieces.oracle import (
    check_closure_agreement,
    check_irreducibility,
    check_order_axioms,
    check_parabolic_restriction,
    check_root_inclusions,
    closure_matrix_oracle,
    subsets_of,
)
from flagpieces.pieces import (
    SequenceError,
    TwistedSequence,
    closure_poset,
    parabolic_restriction_type,
    piece_closure,
    piece_records,
    sequence_for,
    sequence_root_inclusions,
    sequence_to_label,
    twisted_leq,
    validate_sequence,
)
from flagpieces.pairs import _FIXED, _level_search


def test_sequence_empty_j_is_immediately_stable(tc_of):
    tc = tc_of("A2", "id")
    g = tc.group
    for w in g.elements:
        seq = sequence_for(tc, set(), w)
        assert seq.steps == ((frozenset(), w.inverse()),)
        assert seq.stable_J == frozenset()
        assert seq.stable_w == w.inverse()


def test_sequence_a2_example(tc_of):
    tc = tc_of("A2", "id")
    g = tc.group
    seq = sequence_for(tc, {1}, g.from_word([1, 2]))
    assert [(sorted(Jn), word_str(wn)) for Jn, wn in seq.steps] == [
        ([1], "2"),
        ([], "2,1"),
    ]
    assert seq.stable_J == tc.stabilizer_type({1}, g.from_word([1, 2]))
    assert seq.stable_w == g.from_word([2, 1])


def test_sequence_identity_stabilizes_at_stable_subset(tc_of):
    tc = tc_of("A3", "flip")
    g = tc.group
    seq = sequence_for(tc, {1, 2}, g.identity)
    assert seq.stable_w == g.identity
    assert seq.stable_J == tc.stabilizer_type({1, 2}, g.identity) == frozenset({2})


def test_sequence_requires_min_rep(tc_of):
    tc = tc_of("A2", "id")
    with pytest.raises(ValueError, match="minimal coset representative"):
        sequence_for(tc, {1}, tc.group.from_word([1]))


def test_sequence_round_trip(tc_of):
    for label, spec in [("A2", "id"), ("A2", "flip"), ("B2", "id")]:
        tc = tc_of(label, spec)
        g = tc.group
        for J in subsets_of(g.simple_indices):
            for w in g.min_coset_reps(J, "right"):
                seq = sequence_for(tc, J, w)
                assert sequence_to_label(tc, seq) == w


def test_sequence_step_count_bounded(tc_of):
    tc = tc_of("D4", "tri")
    g = tc.group
    for J in subsets_of(g.simple_indices):
        for w in g.min_coset_reps(J, "right"):
            seq = sequence_for(tc, J, w)
            assert len(seq.steps) <= len(J) + 1


def test_sequence_for_runs_no_self_check(tc_of, monkeypatch):
    # the checks of a computed sequence live in oracle.check_sequence_bijection
    cases = [
        (tc, J, w)
        for tc in (tc_of("A3", "flip"), tc_of("D4", "tri"))
        for J in subsets_of(tc.group.simple_indices)
        for w in tc.group.min_coset_reps(J, "right")
    ]
    expected = [sequence_for(tc, J, w) for tc, J, w in cases]

    def refuse(*args):
        raise AssertionError("sequence_for checked its own result")

    monkeypatch.setattr(pieces_mod, "validate_sequence", refuse)
    monkeypatch.setattr(fp.TwistedConjugation, "stabilizer_type", refuse)
    # fresh actions, so that no sequence is read back from the memo
    fresh = {id(tc): fp.TwistedConjugation(tc.group, tc.delta) for tc, _, _ in cases}
    assert [sequence_for(fresh[id(tc)], J, w) for tc, J, w in cases] == expected


def test_sequence_for_is_memoized_per_j_and_w(tc_of):
    tc = tc_of("B3", "id")
    w = tc.group.from_word([1, 2])
    first = sequence_for(tc, {1}, w)
    assert sequence_for(tc, [1], w) is first
    assert sequence_for(tc, {2}, tc.group.identity) is not first


def test_validate_sequence_rejects_corruption(tc_of):
    tc = tc_of("A2", "id")
    g = tc.group
    seq = sequence_for(tc, {1}, g.from_word([1, 2]))
    broken = TwistedSequence(seq.steps, seq.stable_J, g.identity)
    with pytest.raises(SequenceError, match="stable pair"):
        validate_sequence(tc, broken)
    broken2 = TwistedSequence(
        ((frozenset({1}), g.from_word([1])),),
        frozenset({1}),
        g.from_word([1]),
    )
    with pytest.raises(SequenceError, match="condition \\(c\\)"):
        validate_sequence(tc, broken2)


def test_twisted_leq_reflexive_and_chain(tc_of):
    tc = tc_of("A2", "id")
    g = tc.group
    e, s2, s1s2 = g.identity, g.from_word([2]), g.from_word([1, 2])
    for w in (e, s2, s1s2):
        assert twisted_leq(tc, {1}, w, w)
    assert twisted_leq(tc, {1}, e, s2)
    assert twisted_leq(tc, {1}, s2, s1s2)
    assert not twisted_leq(tc, {1}, s1s2, s2)
    with pytest.raises(ValueError, match="minimal coset representative"):
        twisted_leq(tc, {1}, g.from_word([1]), e)


def test_twisted_leq_at_empty_j_is_bruhat(tc_of):
    tc = tc_of("A2", "id")
    g = tc.group
    for u in g.elements:
        for v in g.elements:
            assert twisted_leq(tc, set(), u, v) == g.bruhat_leq(u, v)


def test_closure_poset_empty_j_is_bruhat(tc_of):
    for label, spec in [("A2", "id"), ("B2", "id"), ("A3", "flip")]:
        tc = tc_of(label, spec)
        g = tc.group
        poset = closure_poset(tc, set())
        assert [r.index_w for r in poset.records] == list(g.elements)
        for a in range(g.order):
            for b in range(g.order):
                assert poset.leq(a, b) == g.bruhat_leq(g.elements[a], g.elements[b])


def test_closure_poset_a2_chain(tc_of):
    tc = tc_of("A2", "id")
    poset = closure_poset(tc, {1})
    assert [word_str(r.index_w) for r in poset.records] == ["e", "2", "2,1"]
    assert poset.hasse_edges == ((0, 1), (1, 2))


def test_closure_poset_full_j_single_node(tc_of):
    for label in ("A2", "A3"):
        tc = tc_of(label, "id")
        poset = closure_poset(tc, set(tc.group.simple_indices))
        assert len(poset.records) == 1
        assert poset.hasse_edges == ()


def test_closure_poset_hasse_is_transitive_reduction(tc_of):
    tc = tc_of("B2", "id")
    poset = closure_poset(tc, {2})
    n = len(poset.records)
    # rebuild reachability from the Hasse edges; must match leq minus loops
    reach = [set() for _ in range(n)]
    for a, b in poset.hasse_edges:
        reach[a].add(b)
    changed = True
    while changed:
        changed = False
        for a in range(n):
            for b in list(reach[a]):
                new = reach[b] - reach[a]
                if new:
                    reach[a] |= new
                    changed = True
    for a in range(n):
        expected = {b for b in range(n) if poset.leq(a, b) and a != b}
        assert reach[a] == expected
    # no Hasse edge is implied by two others
    for a, b in poset.hasse_edges:
        assert not any(
            poset.leq(a, c) and poset.leq(c, b) and c not in (a, b) for c in range(n)
        )


def test_monotonicity_of_closure_order(tc_of):
    tc = tc_of("A3", "flip")
    for J in subsets_of(tc.group.simple_indices):
        poset = closure_poset(tc, J)
        for a, ra in enumerate(poset.records):
            for b, rb in enumerate(poset.records):
                if poset.leq(a, b):
                    assert ra.orbit_min[0].length <= rb.orbit_min[0].length


def test_piece_closure_examples(tc_of):
    tc = tc_of("A2", "id")
    g = tc.group
    assert [word_str(b) for b in piece_closure(tc, {1}, g.identity)] == ["e"]
    assert [word_str(b) for b in piece_closure(tc, {1}, g.from_word([2]))] == ["e", "2"]
    full = piece_closure(tc, {1}, g.elements[g.order - 1])
    assert full == g.min_coset_reps({1}, "left")


def test_piece_closure_general_w_consistent_with_poset(tc_of):
    tc = tc_of("B2", "id")
    g = tc.group
    for J in subsets_of(g.simple_indices):
        poset = closure_poset(tc, J)
        for b, rb in enumerate(poset.records):
            strata = piece_closure(tc, J, rb.index_w)
            expected = tuple(
                ra.index_w for a, ra in enumerate(poset.records) if poset.leq(a, b)
            )
            assert strata == expected


def test_piece_records_fields(tc_of):
    tc = tc_of("A2", "flip")
    records = piece_records(tc, {1})
    for r in records:
        assert r.index_w.inverse() == r.inv_w
        assert tc.group.is_min_left_rep(r.inv_w, {1})
        assert r.orbit_min == orbit_of(tc, r.inv_w, {1}).min_elements
    # J = I: irreducibility flag not applicable
    for r in piece_records(tc, {1, 2}):
        assert r.irreducible is None


def test_is_irreducible_examples(tc_of):
    # the irreducibility flag of each record, by label in ^JW
    def flags(tc, J):
        return {r.index_w: r.irreducible for r in piece_records(tc, J)}

    g = tc_of("A2", "id").group
    tcf = tc_of("A2", "flip")
    tci = tc_of("A2", "id")
    assert flags(tci, {1})[g.identity] is False
    assert flags(tcf, {1})[g.from_word([2])] is True
    tc3 = tc_of("A3", "id")
    assert flags(tc3, {1})[tc3.group.from_word([2])] is False
    assert set(flags(tci, {1, 2}).values()) == {None}  # J = I: not applicable
    assert g.from_word([1]) not in flags(tci, {1})  # s1 is not in ^{1}W


@pytest.mark.parametrize("label,spec", [("A2", "flip"), ("B2", "id"), ("A3", "flip")])
def test_irreducibility_vs_containment_oracle(tc_of, label, spec):
    tc = tc_of(label, spec)
    for J in subsets_of(tc.group.simple_indices):
        report = check_irreducibility(tc, J)
        assert report.passed, report.failures


def test_parabolic_restriction_examples(tc_of):
    g = tc_of("A2", "id").group
    for w in g.min_coset_reps({1}, "left"):
        assert parabolic_restriction_type(g, {1}, set(), w) == frozenset()
    assert parabolic_restriction_type(g, {1}, {2}, g.identity) == frozenset()
    assert parabolic_restriction_type(g, {1}, {1}, g.identity) == frozenset({1})
    w = g.from_word([2, 1])
    assert parabolic_restriction_type(g, {1}, {2}, w) == frozenset({1})
    with pytest.raises(ValueError, match="not in"):
        parabolic_restriction_type(g, {1}, {2}, g.from_word([1]))


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_parabolic_restriction_root_identity(group_of, label):
    report = check_parabolic_restriction(group_of(label))
    assert report.passed, report.failures


def test_root_inclusions_examples(tc_of):
    tc = tc_of("A2", "id")
    g = tc.group
    report = sequence_root_inclusions(tc, set(), g.from_word([1, 2]))
    assert report.passed and report.checked == 0  # vacuous at J = empty
    report = sequence_root_inclusions(tc, {1}, g.from_word([1, 2]))
    assert report.passed and report.checked >= 1


@pytest.mark.parametrize("label,spec", [("A2", "id"), ("A2", "flip"), ("B2", "id")])
def test_root_inclusions_exhaustive_small(tc_of, label, spec):
    tc = tc_of(label, spec)
    for J in subsets_of(tc.group.simple_indices):
        report = check_root_inclusions(tc, J)
        assert report.passed, report.failures


@pytest.mark.parametrize(
    "label,spec", [("A2", "id"), ("A3", "id"), ("A3", "flip"), ("B2", "id")]
)
def test_order_axioms_and_closure_agreement_small(tc_of, label, spec):
    tc = tc_of(label, spec)
    for J in subsets_of(tc.group.simple_indices):
        assert check_order_axioms(tc, J).passed
        report = check_closure_agreement(tc, J)
        assert report.passed, report.failures


# -- closure rows from reach masks -------------------------------------------


def _closure_by_pairs(tc, J):
    """Rows and Hasse edges by one bruhat_leq call per (piece, piece, minimum),
    with the covers found through the column transpose."""
    g = tc.group
    mins = [rec.orbit_min for rec in piece_records(tc, J)]
    n = len(mins)
    rows = []
    for ia in range(n):
        mask = 0
        for ib in range(n):
            if any(g.bruhat_leq(v, mins[ib][0]) for v in mins[ia]):
                mask |= 1 << ib
        rows.append(mask)
    cols = [0] * n
    for a in range(n):
        for b in range(n):
            if (rows[a] >> b) & 1:
                cols[b] |= 1 << a
    hasse = []
    for a in range(n):
        above = rows[a] & ~(1 << a)
        for b in range(n):
            if (above >> b) & 1 and above & cols[b] & ~(1 << b) == 0:
                hasse.append((a, b))
    return tuple(rows), tuple(sorted(hasse))


@pytest.mark.parametrize("label,spec", [(t, d) for t, specs in SCOPE for d in specs])
def test_closure_poset_matches_pairwise_bruhat(tc_of, label, spec):
    tc = tc_of(label, spec)
    for J in subsets_of(tc.group.simple_indices):
        poset = closure_poset(tc, J)
        assert (poset.leq_rows, poset.hasse_edges) == _closure_by_pairs(tc, J)


@pytest.mark.parametrize(
    "label,spec,subsets",
    [(t, d, None) for t, specs in SCOPE for d in specs]
    + [("B4", "id", None), ("F4", "id", [{1}]), ("D5", "flip", [set()])],
)
def test_closure_rows_are_triangular_in_record_order(tc_of, label, spec, subsets):
    # the premise of the one-step covers in closure_poset: record order is a
    # linear extension, so no row has a bit below its own index
    tc = tc_of(label, spec)
    for J in subsets or subsets_of(tc.group.simple_indices):
        rows = closure_poset(tc, J).leq_rows
        assert all(row >> a << a == row for a, row in enumerate(rows)), sorted(J)


@pytest.mark.parametrize("label,spec", [("A3", "flip"), ("B3", "id"), ("D4", "tri")])
def test_twisted_leq_matches_pairwise_bruhat(tc_of, label, spec):
    tc = tc_of(label, spec)
    g = tc.group
    for J in subsets_of(g.simple_indices):
        for w in g.min_coset_reps(J, "right"):
            mins_w = orbit_of(tc, w, J).min_elements
            for w2 in g.elements:
                target = orbit_of(tc, w2, J).min_elements[0] if g.is_min_left_rep(w2, J) else w2
                expected = any(g.bruhat_leq(v, target) for v in mins_w)
                assert twisted_leq(tc, J, w, w2) == expected


def test_closure_and_twisted_leq_make_no_bruhat_leq_calls(tc_of, monkeypatch):
    # a fresh action, so that no poset is memoized before the patch
    base = tc_of("B3", "id")
    tc = fp.TwistedConjugation(base.group, base.delta)
    g = tc.group

    def refuse(self, u, v):
        raise AssertionError("bruhat_leq called")

    monkeypatch.setattr(fp.WeylGroup, "bruhat_leq", refuse)
    for J in subsets_of(g.simple_indices):
        closure_poset(tc, J)
        assert check_order_axioms(tc, J).passed
        reps = g.min_coset_reps(J, "right")
        for w in reps:
            for w2 in (reps[-1], g.elements[g.order - 1], g.from_word([1])):
                twisted_leq(tc, J, w, w2)


def test_twisted_leq_rejects_foreign_elements(tc_of):
    tc = tc_of("A2", "id")
    other = tc_of("A3", "id").group
    with pytest.raises(ValueError, match="do not belong"):
        twisted_leq(tc, set(), tc.group.identity, other.identity)


def test_twisted_leq_rejects_an_element_outside_w_j(tc_of):
    tc = tc_of("A3", "flip")
    s1 = tc.group.from_word([1])  # s1 s1 < s1, so s1 is not in W^{1}
    with pytest.raises(ValueError, match="minimal coset representative"):
        twisted_leq(tc, {1}, s1, s1)


@pytest.mark.parametrize(
    "rows,message",
    [
        ([0b10, 0b10], "not reflexive at node 0"),
        ([0b11, 0b11], "not antisymmetric at 0, 1"),
        ([0b011, 0b110, 0b100], "not transitive at 0, 1"),
    ],
)
def test_check_partial_order_rejects_broken_rows(tc_of, monkeypatch, rows, message):
    # the rows are planted in a poset with as many pieces: A1 at J = {}, A2 at J = {1}
    label, J = {2: ("A1", frozenset()), 3: ("A2", frozenset({1}))}[len(rows)]
    tc = tc_of(label, "id")
    broken = closure_poset(tc, J)._replace(leq_rows=tuple(rows))
    monkeypatch.setattr(pieces_mod, "closure_poset", lambda tc_, J_: broken)
    rep = check_order_axioms(tc, J)
    assert (rep.instances_checked, rep.failure_count) == (1, 1)
    assert rep.failures == [
        (f"J={sorted(J)}", "partial order axioms", f"closure relation is {message}")
    ]


def _plant_s1_minima(monkeypatch):
    # the engine gives the piece of s1 the minima (s1, s2)
    real = pairs._piece_rows

    def planted(delta, J):
        rows = real(delta, J)
        return tuple(r._replace(orbit_min=((1,), (2,))) if r.word == (1,) else r for r in rows)

    monkeypatch.setattr(pieces_mod, "_piece_rows", planted)


def test_closure_poset_verify_detects_representative_dependence(tc_of, monkeypatch):
    # give the A2 (J = {}) piece of s1 the minima (s1, s2): s2 <= s2 holds but
    # s2 <= s1 does not, so the order depends on the representative; a fresh
    # action, so that the doctored poset is not memoized for other tests
    base = tc_of("A2", "id")
    tc = fp.TwistedConjugation(base.group, base.delta)
    _plant_s1_minima(monkeypatch)
    closure_poset(tc, set())  # the fast path reads one representative only
    rep = check_order_axioms(tc, set())
    assert (rep.instances_checked, rep.failure_count) == (1, 1)
    assert rep.failures == [
        (
            "J=[]",
            "partial order axioms",
            "twisted order not independent of the representative at nodes 2, 1 for J=[]",
        )
    ]


def test_twisted_leq_verify_detects_representative_dependence(tc_of, monkeypatch):
    base = tc_of("A2", "id")
    tc = fp.TwistedConjugation(base.group, base.delta)
    g = tc.group
    s1, s2 = g.from_word([1]), g.from_word([2])
    _plant_s1_minima(monkeypatch)
    assert not twisted_leq(tc, set(), s2, s1)  # read at the first minimum, s1
    rep = check_order_axioms(tc, set())
    assert rep.failure_count == 1
    assert "not independent of the representative" in rep.failures[0][2]


@pytest.mark.parametrize("label,spec", [("A3", "flip"), ("B3", "id"), ("D4", "tri")])
def test_pieces_build_no_orbit_partition(tc_of, monkeypatch, label, spec):
    # a fresh action that cannot partition W into orbits gives the minima,
    # rows, orders and closures of the literal oracle
    base = tc_of(label, spec)
    tc = fp.TwistedConjugation(base.group, base.delta)
    g = tc.group

    def refuse(J):
        raise AssertionError("orbit_partition called")

    monkeypatch.setattr(tc, "orbit_partition", refuse)
    for J in subsets_of(g.simple_indices):
        reps, matrix, minima = closure_matrix_oracle(tc, J)
        pos = {w: k for k, w in enumerate(reps)}
        records = piece_records(tc, J)
        at = [pos[r.inv_w] for r in records]
        assert [tuple(v.index for v in r.orbit_min) for r in records] == [minima[a] for a in at]
        rows = closure_poset(tc, J).leq_rows
        assert [[(row >> b) & 1 == 1 for b in range(len(at))] for row in rows] == [
            [matrix[a][b] for b in at] for a in at
        ]
        for w in reps:
            for w2 in (reps[-1], g.elements[g.order - 1], g.from_word([1])):
                if w2 in pos:
                    expected = matrix[pos[w]][pos[w2]]
                else:
                    expected = any(g.bruhat_leq(g.elements[v], w2) for v in minima[pos[w]])
                assert twisted_leq(tc, J, w, w2) == expected
        for b in g.min_coset_reps(J, "left")[::3]:
            expected = tuple(r.index_w for r, a in zip(records, at) if matrix[a][pos[b.inverse()]])
            assert piece_closure(tc, J, b) == expected


def test_e6_pieces_create_few_elements():
    # the 27 labels of E6 flip at J = {1..5} need the labels, their inverses
    # and the minima of their orbits, not one element object per element of
    # W; a fresh group, so no other test has looked elements up in it
    g = fp.weyl_group("E6")
    tc = fp.TwistedConjugation(g, fp.DiagramAutomorphism.from_spec(g.root_system, "flip"))
    J = {1, 2, 3, 4, 5}
    assert len(piece_records(tc, J)) == 27
    made = sum(1 for o in gc.get_objects() if isinstance(o, fp.WeylElement) and o.group is g)
    assert made < 1000 < g.order
    position = tc.orbit_partition(J)[1]
    assert isinstance(position, array) and position.typecode == "I"


@pytest.mark.parametrize(
    "mask,width,flags",
    [
        (0, 1, [0]),
        (1, 1, [1]),
        (0, 5, [0, 0, 0, 0, 0]),
        (0b10000, 5, [0, 0, 0, 0, 1]),  # the top bit
        (0b1011, 6, [1, 1, 0, 1, 0, 0]),
    ],
)
def test_bit_flags_pack_round_trip(mask, width, flags):
    assert list(pairs._bit_flags(mask, width)) == flags
    assert pairs._pack(flags) == mask
    assert pairs._pack([bool(f) for f in flags]) == mask


def test_bit_kernels_gather():
    flags = pairs._bit_flags(0b100101, 6)
    assert pairs._gather([2])(flags) == (1,)  # one position: still a tuple
    assert pairs._gather([5, 0, 1])(flags) == (1, 1, 0)
    assert pairs._pack(pairs._gather([1])(flags)) == 0
    # a mask wider than the width keeps its low bits in place
    assert list(pairs._bit_flags(0b1101, 2)[:2]) == [1, 0]


def _pairwise_partial_order(rows) -> str | None:
    """The pair loop: the message of the first pair, in row order, that
    breaks reflexivity, antisymmetry or transitivity; None for a partial
    order."""
    n = len(rows)
    for a in range(n):
        if not (rows[a] >> a) & 1:
            return f"closure relation is not reflexive at node {a}"
        for b in range(n):
            if (rows[a] >> b) & 1:
                if a != b and (rows[b] >> a) & 1:
                    return f"closure relation is not antisymmetric at {a}, {b}"
                if rows[b] | rows[a] != rows[a]:
                    return f"closure relation is not transitive at {a}, {b}"
    return None


def _or_rows(rows, mask):
    """The OR of the rows at the set bits of mask."""
    out = 0
    for b in range(len(rows)):
        if (mask >> b) & 1:
            out |= rows[b]
    return out


def _random_relations(rng, count):
    """Rows of relations on 1 to 12 nodes: partial orders (reflexive
    transitive closures of random DAGs on a shuffled node order), some then
    broken by a dropped diagonal bit, a flipped cell or a duplicated row."""
    for _ in range(count):
        n = rng.randint(1, 12)
        perm = list(range(n))
        rng.shuffle(perm)
        rows = [1 << a for a in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    rows[perm[i]] |= 1 << perm[j]
        for _ in range(n):  # transitive closure
            rows = [row | _or_rows(rows, row) for row in rows]
        kind = rng.choice(("order", "diagonal", "flip", "duplicate"))
        if kind == "diagonal":
            a = rng.randrange(n)
            rows[a] &= ~(1 << a)
        elif kind == "flip":
            rows[rng.randrange(n)] ^= 1 << rng.randrange(n)
        elif kind == "duplicate" and n > 1:
            a, b = rng.sample(range(n), 2)
            rows[a] = rows[b]
        yield kind, rows


def test_check_partial_order_matches_pair_loop():
    # the whole-row test must give the pair loop's outcome and first message
    from flagpieces.oracle import _check_partial_order

    seen = set()
    for kind, rows in _random_relations(random.Random(2024), 3000):
        expected = _pairwise_partial_order(rows)
        try:
            _check_partial_order(rows)
            got = None
        except AssertionError as exc:
            got = str(exc)
        assert got == expected, (kind, rows)
        seen.add("partial order" if expected is None else expected.split(" at ")[0])
    assert seen == {
        "partial order",
        "closure relation is not reflexive",
        "closure relation is not antisymmetric",
        "closure relation is not transitive",
    }


@pytest.mark.parametrize(
    "label,delta_spec", [(label, spec) for label, specs in SCOPE for spec in specs]
)
def test_piece_rows_match_piece_records(tc_of, label, delta_spec):
    # the records are the engine's rows, which build no group table, read on
    # the table; they agree with the table's own stabilizer types, orbit
    # minima and supports, for every subset J
    tc = tc_of(label, delta_spec)
    g = tc.group
    full = frozenset(g.simple_indices)
    for J in subsets_of(g.simple_indices):
        rows = pairs._piece_rows(tc.delta, J)
        records = piece_records(tc, J)
        assert [(r.index_w.word, tuple(v.word for v in r.orbit_min)) for r in records] == [
            (row.word, row.orbit_min) for row in rows
        ]
        assert tuple(r.index_w for r in records) == g.min_coset_reps(J, "left")
        for r in records:
            assert r.inv_w == r.index_w.inverse()
            assert r.stabilizer_set == tc.stabilizer_type(J, r.inv_w)
            assert r.orbit_min == orbit_of(tc, r.inv_w, J).min_elements
            assert r.irreducible == (None if J == full else fp.stable_support(r.index_w, tc.delta) == full)


def test_level_search_labels_are_the_min_coset_reps(group_of):
    # the search of lambda_J enumerates W^J in group order, and its fixed
    # entries are the Deodhar steps s_i y = y s_k; W^J is read off a full
    # scan, since min_coset_reps is read off this same search
    g = group_of("D4")
    rs, full = g.root_system, frozenset(g.simple_indices)
    for J in subsets_of(g.simple_indices):
        left, length, first = _level_search(rs, full, full - J)
        reps = [w for w in g.elements if g.is_min_left_rep(w, J)]
        assert list(length) == [y.length for y in reps]
        pos = {y.index: u for u, y in enumerate(reps)}
        for i in g.simple_indices:
            for u, y in enumerate(reps):
                z = g.from_word([i]) * y
                if z.index in pos:
                    assert left[i][u] == pos[z.index]
                else:
                    assert left[i][u] == _FIXED and g.min_coset_rep(z, J) == y


def test_records_are_immutable(tc_of):
    # the records are named tuples: a field cannot be assigned, and a
    # changed copy is made with _replace
    from flagpieces import cli

    tc = tc_of("A3", "flip")
    g, J = tc.group, frozenset({1})
    w = g.from_word([2, 3])
    ctx = cli._build_context(cli._build_parser().parse_args(["--cartan", "A3", "verify"]))
    records = [
        g.root_system.roots[0],
        tc.orbit_partition(J)[0][0],
        tc.class_decomposition(J)[0],
        tc.reduce_to_distinguished(w, J),
        sequence_for(tc, J, w),
        piece_records(tc, J)[0],
        closure_poset(tc, J),
        sequence_root_inclusions(tc, J, w),
        ctx,
    ]
    for rec in records:
        field = rec._fields[0]
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
        assert rec._replace(**{field: getattr(rec, field)}) == rec
