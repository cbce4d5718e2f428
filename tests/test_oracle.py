import functools
import os
import random
import sys
import time

import pytest

import flagpieces as fp
from flagpieces import oracle, pieces, word_str
from flagpieces.oracle import (
    OracleReport,
    _stabilizer_scan,
    _subset_images,
    _subword_products,
    check_class_partition,
    check_closure_agreement,
    check_coset_minimality,
    check_parabolic_restriction,
    closure_matrix_oracle,
    enumerate_stabilizing_sequences,
    irreducible_oracle,
    positive_roots_oracle,
    subsets_of,
)
from flagpieces.rootsys import CartanDatum, DiagramAutomorphism
from flagpieces.weyl import WeylGroup


def test_report_passed_iff_no_failures():
    rep = OracleReport("demo")
    assert rep.passed
    rep.record("x", 1, 2)
    assert not rep.passed
    assert "FAIL" in rep.summary_line()


def test_failure_count_exact_across_subsets(group_of, monkeypatch):
    def noisy(tc, J):
        rep = OracleReport("noisy")
        for k in range(5):
            rep.instances_checked += 1
            rep.record(f"J={sorted(J)} #{k}", True, False)
        return rep

    monkeypatch.setattr(oracle, "PER_SUBSET_CHECKS", (("noisy", noisy),))
    g = group_of("A2")  # 4 subsets J, 5 failures each
    reports = oracle.run_all_checks(g, DiagramAutomorphism.from_spec(g.root_system, "id"))
    merged = reports[-1]
    assert merged.failure_count == 20
    assert len(merged.failures) == 8
    assert merged.summary_line() == "FAIL noisy (20 instances, 20 failures)"


def test_bruhat_oracle_trivial_cases(group_of):
    g = group_of("A2")
    for v in g.elements:
        lower = _subword_products(g, v.word)
        assert g.identity.index in lower
        assert v.index in lower


def test_bruhat_oracle_matches_fast_path(group_of):
    g = group_of("B2")
    for v in g.elements:
        lower = _subword_products(g, v.word)
        for u in g.elements:
            assert (u.index in lower) == g.bruhat_leq(u, v)


def test_bruhat_oracle_longest_element_of_f4_is_all_of_w(group_of):
    # 24 letters: the scan keeps one set per prefix, so it is not exponential
    g = group_of("F4")
    assert _subword_products(g, g.elements[g.order - 1].word) == set(range(g.order))


def test_bruhat_lower_set(group_of):
    g = group_of("A2")
    assert _subword_products(g, g.elements[g.order - 1].word) == set(range(g.order))
    assert _subword_products(g, g.identity.word) == {g.identity.index}


def test_stabilizer_type_oracle_examples(tc_of):
    tc = tc_of("A2", "id")
    g = tc.group
    for J in subsets_of(g.simple_indices):
        assert _stabilizer_scan(g.identity, _subset_images(tc, J)) == J
    tcf = tc_of("A2", "flip")
    assert _stabilizer_scan(g.from_word([1, 2]), _subset_images(tcf, {1})) == frozenset({1})


def test_enumerate_sequences_counts(tc_of):
    tc = tc_of("A2", "id")
    g = tc.group
    assert len(enumerate_stabilizing_sequences(tc, set())) == g.order
    assert len(enumerate_stabilizing_sequences(tc, {1})) == 3
    tcb = tc_of("B2", "id")
    for J in subsets_of(tcb.group.simple_indices):
        seqs = enumerate_stabilizing_sequences(tcb, J)
        assert len(seqs) == len(tcb.group.min_coset_reps(J, "right"))


def test_enumerated_sequences_satisfy_conditions(tc_of):
    from flagpieces.pieces import validate_sequence

    tc = tc_of("A3", "flip")
    for J in subsets_of(tc.group.simple_indices):
        for seq in enumerate_stabilizing_sequences(tc, J):
            validate_sequence(tc, seq)


def test_closure_matrix_oracle_empty_j_is_bruhat(tc_of):
    tc = tc_of("A2", "id")
    g = tc.group
    reps, matrix, _ = closure_matrix_oracle(tc, set())
    assert list(reps) == list(g.elements)
    for a, u in enumerate(reps):
        for b, v in enumerate(reps):
            assert matrix[a][b] == g.bruhat_leq(u, v)


@pytest.mark.parametrize(
    "label,spec,subsets",
    [("A3", "flip", None), ("B3", "id", None), ("D4", "tri", [{1, 3}, {1, 3, 4}])],
)
def test_closure_matrix_oracle_matches_per_cell_reference(tc_of, label, spec, subsets):
    # each cell from the definition: orbits as products d(x) w x^-1 over the
    # elements x of W_J, and "every minimum v' of the orbit of w2 lies above
    # some minimum v of the orbit of w" decided by subword scans; the chosen
    # subsets have orbits with several minima
    tc = tc_of(label, spec)
    g = tc.group
    lower = {}  # v' -> the indices of the elements below it
    several = 0
    for J in subsets or subsets_of(g.simple_indices):
        reps, matrix, minima = closure_matrix_oracle(tc, J)
        xs = g.parabolic_elements(J)
        mins = []
        for w in reps:
            orbit = {tc.twisted_conjugate(x, w, J) for x in xs}
            low = min(v.length for v in orbit)
            mins.append([v for v in orbit if v.length == low])
        several += sum(len(m) > 1 for m in mins)
        for vp in {vp for m in mins for vp in m} - lower.keys():
            lower[vp] = _subword_products(g, vp.word)
        expected = [
            [all(any(v.index in lower[vp] for v in ma) for vp in mb) for mb in mins]
            for ma in mins
        ]
        assert matrix == expected, sorted(J)
        assert minima == [tuple(sorted(v.index for v in m)) for m in mins], sorted(J)
    assert several > 0


def test_closure_matrix_oracle_a2_chain(tc_of):
    tc = tc_of("A2", "id")
    reps, matrix, _ = closure_matrix_oracle(tc, {1})
    assert len(reps) == 3
    # the order is total here: upper triangular in the deterministic order
    for a in range(3):
        for b in range(3):
            assert matrix[a][b] == (a <= b)


def test_positive_roots_oracle_counts():
    expected = {"A1": 1, "A3": 6, "B3": 9, "C3": 9, "D4": 12, "G2": 6, "F4": 24}
    for label, count in expected.items():
        datum = CartanDatum.from_label(label)
        assert len(positive_roots_oracle(datum)) == count


def test_irreducible_oracle_identity_reducible(tc_of):
    tc = tc_of("A2", "id")
    assert not irreducible_oracle(tc, {1}, tc.group.identity)
    assert irreducible_oracle(tc, {1}, tc.group.from_word([2, 1]))


def test_subsets_of_order():
    subs = subsets_of({1, 2})
    assert subs == [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})]


@pytest.mark.parametrize("J,k", [((1,), 11), ((), 11), ((), 3)])
def test_closure_agreement_counts_every_flipped_bit(tc_of, monkeypatch, J, k):
    # flip k cells of the poset the check compares against; at J = {} the
    # Bruhat half sees each flipped cell too
    tc = tc_of("A3", "flip")
    real = pieces.closure_poset(tc, J)
    n = len(real.records)
    flips = sorted(random.Random(17).sample([(a, b) for a in range(n) for b in range(n)], k))
    rows = list(real.leq_rows)
    for a, b in flips:
        rows[a] ^= 1 << b
    broken = real._replace(leq_rows=tuple(rows))
    monkeypatch.setattr(pieces, "closure_poset", lambda tc_, J_: broken)

    rep = check_closure_agreement(tc, J)

    words = [word_str(r.index_w) for r in real.records]
    expected = [
        (f"J={sorted(J)} {words[a]} <= {words[b]}", str(real.leq(a, b)), str(not real.leq(a, b)))
        for a, b in flips
    ]
    if not J:
        expected += [
            (f"Bruhat at {words[a]}, {words[b]}", str(real.leq(a, b)), str(not real.leq(a, b)))
            for a, b in flips
        ]
    assert rep.failure_count == len(expected)
    assert rep.failures == expected[:8]
    assert rep.instances_checked == n * n * (1 if J else 2)


@pytest.mark.parametrize("planted", ["dropped", "transitive", "doubled", "reversed"])
def test_closure_agreement_counts_one_wrong_hasse_edge(tc_of, monkeypatch, planted):
    # the rows stay right; the edges lose their first cover, gain the
    # bottom below the top (a relation that is not a cover), list their
    # first cover twice, or run backwards: one failure each way, and the
    # instances are those of the rows
    tc = tc_of("A3", "flip")
    J = frozenset({1})
    real = pieces.closure_poset(tc, J)
    n, edges = len(real.records), real.hasse_edges
    words = [word_str(r.index_w) for r in real.records]
    a, b = edges[0]
    if planted == "dropped":
        edges, expected = edges[1:], (f"J=[1] {words[b]} covers {words[a]}", "True", "False")
    elif planted == "transitive":
        a, b = 0, n - 1
        assert real.leq(a, b) and (a, b) not in edges
        edges = tuple(sorted(edges + ((a, b),)))
        expected = (f"J=[1] {words[b]} covers {words[a]}", "False", "True")
    elif planted == "doubled":
        edges, expected = edges[:1] + edges, (f"J=[1] copies of edge {words[b]} covers {words[a]}", "1", "2")
    else:
        edges, expected = edges[::-1], ("J=[1] order of the Hasse edges", "ascending", "not ascending")
    broken = real._replace(hasse_edges=edges)
    monkeypatch.setattr(pieces, "closure_poset", lambda tc_, J_: broken)

    rep = check_closure_agreement(tc, J)

    assert (rep.instances_checked, rep.failure_count) == (n * n, 1)
    assert rep.failures == [expected]


def test_closure_agreement_makes_no_bruhat_leq_calls(tc_of, monkeypatch):
    def refuse(self, u, v):
        raise AssertionError("bruhat_leq called")

    monkeypatch.setattr(WeylGroup, "bruhat_leq", refuse)
    for label, spec in (("A3", "flip"), ("B3", "id")):
        tc = tc_of(label, spec)
        for J in subsets_of(tc.group.simple_indices):
            closure_matrix_oracle(tc, J)
            assert check_closure_agreement(tc, J).passed


def _plant_rows(monkeypatch, change):
    """Make the records read change(rows) for the engine's rows."""
    real = pieces._piece_rows
    monkeypatch.setattr(pieces, "_piece_rows", lambda delta, J: change(real(delta, J)))


def test_closure_agreement_records_a_minima_walk_that_drops_a_step(group_of, monkeypatch):
    # a fresh A2 action at J = {1}, whose minima walk loses its only step: the
    # orbit of s1s2 keeps the minimum s1s2 but loses s2s1. The rows do not
    # change (the order on the 3 pieces is a chain either way), and the
    # instances stay those of the rows, 3 x 3
    g = group_of("A2")
    tc = fp.TwistedConjugation(g, DiagramAutomorphism.from_spec(g.root_system, "id"))
    _plant_rows(monkeypatch, lambda rows: tuple(r._replace(orbit_min=r.orbit_min[:1]) for r in rows))
    rep = check_closure_agreement(tc, {1})
    assert (rep.instances_checked, rep.failure_count) == (9, 1)
    assert rep.failures == [("J=[1] orbit minima of 2,1^-1", "['1,2', '2,1']", "['1,2']")]


@pytest.mark.parametrize(
    "planted,message", [("w", "unique minimum = rep"), ("outside", "rep in coset")]
)
def test_coset_minimality_counts_one_wrong_rep(monkeypatch, planted, message):
    # a fresh group, so that the planted method cannot leak into other tests
    g = fp.weyl_group("A3")
    J, w = frozenset({1, 2}), g.from_word([2, 1, 3])  # w is not minimal in W_J w
    wrong = w if planted == "w" else g.from_word([1])  # W_J w = W_J s3 does not hold s1
    real = g.min_coset_rep

    def planted_rep(u, subset, side="right"):
        if (frozenset(subset), side, u) == (J, "left", w):
            return wrong
        return real(u, subset, side)

    monkeypatch.setattr(g, "min_coset_rep", planted_rep)
    rep = check_coset_minimality(g)
    assert rep.failure_count == 1
    assert rep.failures[0][0] == "J=[1, 2] side=left w=2,1,3"
    assert rep.failures[0][1] == message


def test_closure_matrix_oracle_rejects_some_any_disagreement():
    # a fresh A2 group whose up-set of e misses s2: the orbit of s2 under the
    # flip-twisted W_{1} has the minima s1 and s2, so e lies below some of
    # them but not all
    g = fp.weyl_group("A2")
    tc = fp.TwistedConjugation(g, DiagramAutomorphism.from_spec(g.root_system, "flip"))
    reach = list(g._bruhat_up_reach)
    reach[0] &= ~(1 << g.from_word([2]).index)
    g.__dict__["_bruhat_up_reach"] = tuple(reach)
    with pytest.raises(AssertionError, match=r"some/any disagree for w=W\[e\], w2=W\[2\], J=\[1\]"):
        closure_matrix_oracle(tc, {1})


@pytest.mark.parametrize("flipped", [1, 2], ids=["lead", "later"])
def test_closure_agreement_fails_a_reach_bit_flipped_at_one_of_two_minima(flipped):
    # as above, with the bit cleared at the orbit's first minimum s1 (the
    # lead every later minimum is compared with) or at the later one, s2:
    # one failure either way, carrying the some/any message
    g = fp.weyl_group("A2")
    tc = fp.TwistedConjugation(g, DiagramAutomorphism.from_spec(g.root_system, "flip"))
    reach = list(g._bruhat_up_reach)
    reach[0] &= ~(1 << g.from_word([flipped]).index)
    g.__dict__["_bruhat_up_reach"] = tuple(reach)
    rep = oracle._run_guarded("closure-agreement", check_closure_agreement, tc, frozenset({1}))
    assert (rep.instances_checked, rep.failure_count) == (1, 1)
    assert rep.failures == [
        ("some/any disagree for w=W[e], w2=W[2], J=[1]", "no assertion failure", "AssertionError")
    ]


def _prefix_count_matrix(tc, J, reps, minima):
    """The closure matrix by the prefix-count definition: per row, the count
    of the minima of each orbit that lie above some minimum of the row's
    orbit; "some" is a count above 0, "every" a count equal to the number of
    minima, and the two must agree."""
    g = tc.group
    reach = g._bruhat_up_reach
    matrix = []
    for mins in minima:
        up = 0
        for v in mins:
            up |= reach[v]
        counts = [sum((up >> v) & 1 for v in m) for m in minima]
        some = [c > 0 for c in counts]
        every = [c == len(m) for c, m in zip(counts, minima)]
        assert some == every, sorted(J)
        matrix.append(every)
    return matrix


@pytest.mark.parametrize("label,spec", [("A3", "flip"), ("B3", "id"), ("D4", "tri")])
def test_kernels_equal_their_plain_definitions(tc_of, label, spec):
    # per J: the byte-row closure matrix is the prefix-count one; a class
    # literal, the union of orbits skipping starts already in it, is the
    # double loop over W_K x W_J; and the double cosets of the sequence
    # enumeration, unions of cosets built the same way, are {a w b}
    tc = tc_of(label, spec)
    g = tc.group
    for J in subsets_of(g.simple_indices):
        reps, matrix, minima = closure_matrix_oracle(tc, J)
        assert matrix == _prefix_count_matrix(tc, J, reps, minima)
        xs = g.parabolic_elements(J)
        for cls in tc.class_decomposition(J):
            bases = g._sweep(cls.stabilizer_set, cls.base.index, right=g._rmul)
            plain = {
                tc.twisted_conjugate(x, cls.base * v, J).index
                for v in g.parabolic_elements(cls.stabilizer_set)
                for x in xs
            }
            assert oracle._sweep_union(g, J, bases, tc._dlmul, g._rmul) == plain
        dJ = tc.delta.subset(J)
        for w in g.min_double_coset_reps(J, dJ):
            lefts = g._sweep(J, w.index, left=g._lmul)
            plain = {(a * w * b).index for a in xs for b in g.parabolic_elements(dJ)}
            assert oracle._sweep_union(g, dJ, lefts, right=g._rmul) == plain


def test_class_partition_records_planted_overlap(group_of, monkeypatch):
    # a fresh A2 action at J = {1} whose orbit {s1s2, s2s1} is replaced by the
    # orbit {e}: the class of s1s2 then shares e with the class of e, and
    # s1s2, s2s1 are left uncovered
    g = group_of("A2")
    tc = fp.TwistedConjugation(g, DiagramAutomorphism.from_spec(g.root_system, "id"))
    J = frozenset({1})
    orbits, orbit_of = tc.orbit_partition(J)
    assert [[word_str(m) for m in o.members] for o in orbits[::3]] == [["e"], ["1,2", "2,1"]]
    planted = orbits[:3] + orbits[:1]
    monkeypatch.setattr(tc, "orbit_partition", lambda J_: (planted, orbit_of))
    rep = check_class_partition(tc, J)
    assert rep.failures == [
        ("J=[1] base=1,2", "2 members (literal)", "1 members"),
        ("J=[1] base=1,2", "disjoint", "1 shared"),
        ("J=[1]", "6 elements covered", "4"),
    ]
    assert (rep.instances_checked, rep.failure_count) == (3, 3)


def test_parabolic_restriction_records_planted_j1(group_of, monkeypatch):
    # J1 = {1} at (J, K, w) = ({1}, {1}, e); plant the empty set there
    g = group_of("A2")
    real = oracle.parabolic_restriction_type

    def planted(group, J, K, w):
        if (J, K, w) == ({1}, {1}, g.identity):
            return frozenset()
        return real(group, J, K, w)

    monkeypatch.setattr(oracle, "parabolic_restriction_type", planted)
    rep = check_parabolic_restriction(g)
    assert rep.failure_count == 1
    assert rep.failures == [("J=[1] K=[1] w=e", "Phi_J1 = Phi_J ^ w1 Phi_K", "J1=[]")]
    assert rep.instances_checked == 4 * 13  # every K, and (J, w) with w in ^JW


def test_class_partition_records_a_member_moved_to_another_class(group_of, monkeypatch):
    # A2 at J = {1} has the classes {e, s1}, {s2, s1s2s1} and {s1s2, s2s1};
    # moving s1s2s1 to the third class leaves every element covered once,
    # and each of the two classes differs from its literal recomputation
    g = group_of("A2")
    tc = fp.TwistedConjugation(g, DiagramAutomorphism.from_spec(g.root_system, "id"))
    J = frozenset({1})
    classes = tc.class_decomposition(J)
    assert [[word_str(m) for m in c.members] for c in classes[1:]] == [["2", "1,2,1"], ["1,2", "2,1"]]
    moved = classes[1].members[1]
    planted = (
        classes[0],
        classes[1]._replace(members=classes[1].members[:1]),
        classes[2]._replace(members=classes[2].members + (moved,)),
    )
    monkeypatch.setattr(tc, "class_decomposition", lambda J_: planted)
    rep = check_class_partition(tc, J)
    assert (rep.instances_checked, rep.failure_count) == (3, 2)
    assert rep.failures == [
        ("J=[1] base=2", "2 members (literal)", "1 members"),
        ("J=[1] base=1,2", "2 members (literal)", "3 members"),
    ]


def test_shift_reduction_records_a_broken_path(group_of, monkeypatch):
    # A3 flip at J = {1}: s1 shifts to s3 by the step j = 1; a path that
    # claims s2 instead is one failure, and the other 23 elements pass
    g = group_of("A3")
    tc = fp.TwistedConjugation(g, DiagramAutomorphism.from_spec(g.root_system, "flip"))
    J = frozenset({1})
    s1, s2, s3 = (g.from_word([i]) for i in (1, 2, 3))
    real = tc.reduce_to_distinguished

    def planted(w, J_):
        red = real(w, J_)
        return red._replace(path=((1, s2),)) if w == s1 else red

    assert real(s1, J).path == ((1, s3),)
    monkeypatch.setattr(tc, "reduce_to_distinguished", planted)
    rep = oracle.check_shift_reduction(tc, J)
    assert (rep.instances_checked, rep.failure_count) == (24, 1)
    assert rep.failures == [("J=[1] w=1", "valid shift path", "broken path")]


def test_shift_reduction_records_a_step_outside_j(group_of, monkeypatch):
    # the step tables cover every simple index: a path from s1 by j = 2,
    # outside J = {1}, reaches d(s2) s1 s2 = s2 s1 s2 and raises the length,
    # so it is one failure, not a KeyError
    g = group_of("A3")
    tc = fp.TwistedConjugation(g, DiagramAutomorphism.from_spec(g.root_system, "flip"))
    s1, s2s1s2 = g.from_word([1]), g.from_word([2, 1, 2])
    real = tc.reduce_to_distinguished

    def planted(w, J_):
        red = real(w, J_)
        return red._replace(path=((2, s2s1s2),)) if w == s1 else red

    monkeypatch.setattr(tc, "reduce_to_distinguished", planted)
    rep = oracle.check_shift_reduction(tc, {1})
    assert (rep.instances_checked, rep.failure_count) == (24, 1)
    assert rep.failures == [("J=[1] w=1", "valid shift path", "broken path")]


def test_shift_reduction_records_a_wrong_distinguished_form(group_of, monkeypatch):
    # A3 flip at J = {1}: the table gives e the form e * e; planted as e * s1,
    # the tail leaves the stabilizer type (empty) and the path ends at e, not
    # at s1. e and s1 s3, which shifts to e by the step j = 1, reduce to it:
    # two failures each, and the other 22 elements pass
    g = group_of("A3")
    tc = fp.TwistedConjugation(g, DiagramAutomorphism.from_spec(g.root_system, "flip"))
    J = frozenset({1})
    s1 = g.from_word([1])
    forms = dict(tc._distinguished_forms(J))
    assert forms[0] == (0, 0)
    forms[0] = (0, s1.index)
    monkeypatch.setattr(tc, "_distinguished_forms", lambda J_: forms)
    rep = oracle.check_shift_reduction(tc, J)
    assert (rep.instances_checked, rep.failure_count) == (24, 4)
    assert rep.failures == [
        (f"J=[1] w={w}", expected, got)
        for w in ("e", "1,3")
        for expected, got in (("tail in stabilizer parabolic", "1"), ("valid shift path", "broken path"))
    ]


def test_sequence_bijection_records_a_wrong_step(group_of, monkeypatch):
    # A3 flip at J = {1, 3}: the sequence of s2 is ({1,3}, s2), ({}, s2);
    # a recipe that ends at ({}, s2s1) instead has other steps than the
    # enumerated sequence, and its stable pair is not its last step
    g = group_of("A3")
    tc = fp.TwistedConjugation(g, DiagramAutomorphism.from_spec(g.root_system, "flip"))
    J = frozenset({1, 3})
    s2 = g.from_word([2])
    real = oracle.sequence_for

    def planted(tc_, J_, w):
        seq = real(tc_, J_, w)
        if w != s2:
            return seq
        return seq._replace(steps=seq.steps[:1] + ((frozenset(), g.from_word([2, 1])),))

    assert [(sorted(Jn), word_str(wn)) for Jn, wn in real(tc, J, s2).steps] == [([1, 3], "2"), ([], "2")]
    monkeypatch.setattr(oracle, "sequence_for", planted)
    rep = oracle.check_sequence_bijection(tc, J)
    n = len(g.min_coset_reps(J, "right"))
    assert (rep.instances_checked, rep.failure_count) == (2 * n, 2)
    assert rep.failures == [
        ("J=[1, 3] w=2", "recipe sequence = enumerated sequence", "different steps"),
        ("J=[1, 3] w=2", "valid recipe sequence", "stable pair does not match the final step"),
    ]


def test_parabolic_restriction_records_a_wrong_type_at_every_j(group_of, monkeypatch):
    # at K = {2} and w = e, J1 is J & {2}; a fast path that returns J | {2}
    # there is wrong exactly where J is not {2}: J = {}, {1} and {1, 2}
    g = group_of("A2")
    real = oracle.parabolic_restriction_type

    def planted(group, J, K, w):
        if (K, w) == ({2}, g.identity):
            return frozenset(J) | {2}
        return real(group, J, K, w)

    monkeypatch.setattr(oracle, "parabolic_restriction_type", planted)
    rep = check_parabolic_restriction(g)
    assert (rep.instances_checked, rep.failure_count) == (4 * 13, 3)
    assert rep.failures == [
        ("J=[] K=[2] w=e", "Phi_J1 = Phi_J ^ w1 Phi_K", "J1=[2]"),
        ("J=[1] K=[2] w=e", "Phi_J1 = Phi_J ^ w1 Phi_K", "J1=[1, 2]"),
        ("J=[1, 2] K=[2] w=e", "Phi_J1 = Phi_J ^ w1 Phi_K", "J1=[1, 2]"),
    ]


def test_orbit_minimality_records_a_wrong_minimum_count(group_of, monkeypatch):
    # A2 at J = {1}: the orbit {s2, s1s2s1} has the one minimum s2; orbits
    # that claim s1s2s1 as a second minimum fail once, and the others pass
    g = group_of("A2")
    tc = fp.TwistedConjugation(g, DiagramAutomorphism.from_spec(g.root_system, "id"))
    J = frozenset({1})
    orbits, orbit_of = tc.orbit_partition(J)
    assert [word_str(m) for m in orbits[2].members] == ["2", "1,2,1"] and orbits[2].n_min == 1
    planted = orbits[:2] + (orbits[2]._replace(n_min=2),) + orbits[3:]
    monkeypatch.setattr(tc, "orbit_partition", lambda J_: (planted, orbit_of))
    rep = oracle.check_orbit_minimality(tc, J)
    assert (rep.instances_checked, rep.failure_count) == (4, 1)
    assert rep.failures == [("J=[1] orbit of 2", "['1,2,1', '2']", "['2']")]


@pytest.mark.parametrize("parts,sign", [("_strong_components", "~"), ("_scc", "~~")])
def test_strong_conjugacy_records_a_minimum_split_off(group_of, monkeypatch, parts, sign):
    # A2 flip at J = {1}: the orbit {s1, s2} has both as minima and meets
    # W^J (at s2); a partition that puts s1 in a part of its own fails the
    # pairs (s1, s2) and (s2, s1), and no other pair
    g = group_of("A2")
    tc = fp.TwistedConjugation(g, DiagramAutomorphism.from_spec(g.root_system, "flip"))
    J = frozenset({1})
    orbits, _ = tc.orbit_partition(J)
    real = getattr(tc, parts)(J)
    planted = {k: real[k] for k in range(g.order)}
    planted[g.from_word([1]).index] = -1
    monkeypatch.setattr(tc, parts, lambda J_: planted)
    rep = oracle.check_strong_conjugacy(tc, J)
    assert rep.instances_checked == sum(o.n_min**2 for o in orbits)
    assert rep.failures == [(f"J=[1] 1 {sign} 2", "True", "False"), (f"J=[1] 2 {sign} 1", "True", "False")]
    assert rep.failure_count == 2


def test_sequence_bijection_counts_a_truncated_recipe(tc_of, monkeypatch):
    tc = tc_of("A3", "flip")
    real = oracle.sequence_for

    def truncated(tc_, J, w):
        seq = real(tc_, J, w)
        return seq._replace(steps=seq.steps[:-1])

    monkeypatch.setattr(oracle, "sequence_for", truncated)
    for J in subsets_of(tc.group.simple_indices):
        n = len(tc.group.min_coset_reps(J, "right"))
        rep = oracle.check_sequence_bijection(tc, J)
        # per w: its steps differ from the enumerated ones, and validate_sequence
        # rejects them (no steps left, or a last step that is not stable)
        assert (rep.instances_checked, rep.failure_count) == (2 * n, 2 * n)
        assert {got for _, _, got in rep.failures} <= {
            "different steps",
            "sequence has no steps",
            "final step is not stabilized",
        }
    rep = oracle.check_sequence_bijection(tc, set())
    assert rep.failures[:2] == [
        ("J=[] w=e", "recipe sequence = enumerated sequence", "different steps"),
        ("J=[] w=e", "valid recipe sequence", "sequence has no steps"),
    ]


def test_planted_stabilizer_type_fails_two_checks(group_of, monkeypatch):
    g = group_of("A3")
    delta = DiagramAutomorphism.from_spec(g.root_system, "flip")
    real = fp.TwistedConjugation.stabilizer_type

    def planted(self, J, w):
        return real(self, J, w) ^ {1}

    monkeypatch.setattr(fp.TwistedConjugation, "stabilizer_type", planted)
    J = frozenset({1, 2})
    reports = {rep.check_name: rep for rep in oracle.run_subset_checks(g, delta, J)}
    n = len(g.min_coset_reps(J, "right"))
    assert reports["stabilizer-type"].failure_count == n
    seq = reports["sequence-bijection"]
    assert (seq.instances_checked, seq.failure_count) == (2 * n, n)
    assert seq.failures[0] == ("J=[1, 2] w=e stable J", "[1, 2]", "[2]")


def _extra_label(rows):
    # s1, which is not in ^{1}W, as a fourth label
    return rows + (rows[0]._replace(word=(1,), stabilizer_set=frozenset(), orbit_min=((1,),)),)


@pytest.mark.parametrize(
    "change,failing,failures",
    [
        (
            lambda rows: (rows[0]._replace(stabilizer_set=frozenset()),) + rows[1:],
            {"stabilizer-type": (3, 1)},
            [("J=[1] record of w=e", "[1]", "[]")],
        ),
        (
            lambda rows: rows[:2] + (rows[2]._replace(irreducible=not rows[2].irreducible),),
            {"irreducibility": (3, 1)},
            [("J=[1] w=2,1", "True", "False")],
        ),
        (
            lambda rows: rows[:2],
            {"closure-agreement": (3, 1)},
            [("J=[1] records of label 2,1", "1", "0")],
        ),
        (
            _extra_label,
            {"closure-agreement": (4, 1)},
            [("J=[1] records of label 1", "0", "1")],
        ),
    ],
    ids=["stabilizer", "irreducible", "dropped-label", "extra-label"],
)
def test_subset_checks_record_a_planted_engine_fault(group_of, monkeypatch, change, failing, failures):
    # the rows of A2 at J = {1} are the labels e, s2, s2s1; each fault in
    # what `pieces` prints is one recorded failure of one check, and the
    # other checks pass
    g = group_of("A2")
    _plant_rows(monkeypatch, change)
    reports = oracle.run_subset_checks(g, DiagramAutomorphism.from_spec(g.root_system, "id"), {1})
    got = {r.check_name: (r.instances_checked, r.failure_count) for r in reports if not r.passed}
    assert got == failing
    assert [f for r in reports for f in r.failures] == failures


def test_subset_checks_build_the_closure_poset_once(group_of, monkeypatch):
    # stabilizer-type, order-axioms, closure-agreement and irreducibility
    # share the records and the poset memoized on the action: the engine
    # runs once per J
    g = group_of("A3")
    delta = DiagramAutomorphism.from_spec(g.root_system, "flip")
    calls = []
    real = pieces._piece_rows

    def counting(delta_, J):
        calls.append(frozenset(J))
        return real(delta_, J)

    monkeypatch.setattr(pieces, "_piece_rows", counting)
    for J in subsets_of(g.simple_indices):
        calls.clear()
        assert all(rep.passed for rep in oracle.run_subset_checks(g, delta, J))
        assert calls == [J]


@pytest.mark.parametrize("width", [2, 3])
def test_failure_count_exact_with_worker_processes(
    group_of, monkeypatch, verify_workers, worker_handshake, width
):
    parent = os.getpid()

    def noisy(tc, J):
        if os.getpid() != parent:
            worker_handshake.started()
        else:
            worker_handshake.wait()
        rep = OracleReport("noisy")
        for k in range(5):
            rep.instances_checked += 1
            rep.record(f"J={sorted(J)} #{k}", True, "worker" if os.getpid() != parent else "parent")
        return rep

    monkeypatch.setattr(oracle, "PER_SUBSET_CHECKS", (("noisy", noisy),))
    verify_workers(width)
    g = group_of("A2")  # jobs: 6 group checks, then J = {}, {1}, {2}, {1,2}
    reports = oracle.run_all_checks(g, DiagramAutomorphism.from_spec(g.root_system, "id"))
    merged = reports[-1]
    assert merged.failure_count == 20
    assert [d for d, _, _ in merged.failures] == (
        [f"J=[] #{k}" for k in range(5)] + [f"J=[1] #{k}" for k in range(3)]
    )
    # each J ran in one process, the caller or a worker, and a worker ran
    # at least one per-J job (the handshake)
    got = [got for _, _, got in merged.failures]
    assert len(set(got[:5])) == len(set(got[5:])) == 1
    assert set(got) <= {"parent", "worker"}
    assert merged.summary_line() == "FAIL noisy (20 instances, 20 failures)"


@pytest.mark.parametrize("width", [2, 3])
def test_every_job_runs_exactly_once(group_of, monkeypatch, verify_workers, tmp_path, width):
    # every check logs its job to one file, whichever process pulls it
    log = tmp_path / "jobs.log"

    def logged(name, per_subset):
        def check(*args):
            with open(log, "a") as out:  # one short append per job
                out.write(f"{name} {sorted(args[1]) if per_subset else ''}\n")
            return OracleReport(name)

        return check

    monkeypatch.setattr(
        oracle, "GROUP_CHECKS", tuple((n, logged(n, False)) for n, _ in oracle.GROUP_CHECKS)
    )
    monkeypatch.setattr(oracle, "PER_SUBSET_CHECKS", (("logged", logged("logged", True)),))
    verify_workers(width)
    g = group_of("B3")
    reports = oracle.run_all_checks(g, DiagramAutomorphism.from_spec(g.root_system, "id"))
    assert [r.check_name for r in reports] == [n for n, _ in oracle.GROUP_CHECKS] + ["logged"]
    ran = sorted(log.read_text().splitlines())
    expected = [f"{n} " for n, _ in oracle.GROUP_CHECKS]
    expected += [f"logged {sorted(J)}" for J in subsets_of(g.simple_indices)]
    assert ran == sorted(expected)


def test_pull_order_longest_first(group_of):
    # A2, |W| = 6: J = {} costs 6^2 + 6 * 1 = 42, {1, 2} 1 + 6 * 6 = 37, and
    # {1} and {2} 3^2 + 6 * 2 = 21 each, kept in serial order
    assert oracle._pull_order(group_of("A2")) == [0, 1, 2, 3, 4, 5, 6, 9, 7, 8]
    g = group_of("B3")
    subsets = subsets_of(g.simple_indices)
    order = oracle._pull_order(g)
    assert order[:6] == list(range(6)) and sorted(order) == list(range(6 + len(subsets)))
    costs = []
    for k in order[6:]:
        n_reps = len(g.min_coset_reps(subsets[k - 6], "right"))
        costs.append((n_reps * n_reps + g.order * (g.order // n_reps), -k))
    assert costs == sorted(costs, reverse=True)


def test_worker_exception_is_raised_again_in_parent(
    group_of, monkeypatch, verify_workers, worker_handshake
):
    parent = os.getpid()

    def bad(tc, J):
        if os.getpid() != parent:
            worker_handshake.started()
            raise ValueError(f"planted in a worker, J={sorted(J)}")
        worker_handshake.wait()
        return OracleReport("bad")

    monkeypatch.setattr(oracle, "PER_SUBSET_CHECKS", (("bad", bad),))
    verify_workers(2)
    g = group_of("A2")
    with pytest.raises(ValueError, match=r"planted in a worker, J=\[") as raised:
        oracle.run_all_checks(g, DiagramAutomorphism.from_spec(g.root_system, "id"))
    # the worker's frames come back as a note, down to the failing check
    (note,) = raised.value.__notes__
    assert note.startswith("in a verify worker:\nTraceback")
    assert "in bad\n" in note


def test_parent_interrupt_stops_and_reaps_workers(group_of, monkeypatch, verify_workers):
    parent = os.getpid()

    def stuck(tc, J):
        if os.getpid() != parent:
            time.sleep(60)  # killed by the parent long before this ends
        elif J:
            raise KeyboardInterrupt
        return OracleReport("stuck")

    monkeypatch.setattr(oracle, "PER_SUBSET_CHECKS", (("stuck", stuck),))
    verify_workers(2)
    g = group_of("A2")
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        oracle.run_all_checks(g, DiagramAutomorphism.from_spec(g.root_system, "id"))
    assert time.perf_counter() - t0 < 30


def test_tracer_or_profiler_runs_every_job_in_process(monkeypatch):
    # what they count is in this process only, so nothing is forked under them
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    assert oracle._worker_count(22) == 4
    assert oracle._worker_count(3) == 3
    sys.setprofile(lambda *args: None)
    try:
        assert oracle._worker_count(22) == 1
    finally:
        sys.setprofile(None)

    def traced(fn):
        @functools.wraps(fn)
        def wrapper(*args):
            return fn(*args)

        return wrapper

    tables = {name: getattr(oracle, name) for name in ("GROUP_CHECKS", "PER_SUBSET_CHECKS")}
    for name, table in tables.items():
        monkeypatch.setattr(oracle, name, tuple((n, traced(f)) for n, f in table))
        assert oracle._worker_count(22) == 1
        monkeypatch.setattr(oracle, name, table)
    assert oracle._worker_count(22) == 4
