import dataclasses
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
    bruhat_lower_set_oracle,
    bruhat_oracle,
    check_class_partition,
    check_closure_agreement,
    check_coset_minimality,
    check_parabolic_restriction,
    closure_matrix_oracle,
    enumerate_stabilizing_sequences,
    irreducible_oracle,
    positive_roots_oracle,
    stabilizer_type_oracle,
    subsets_of,
)
from flagpieces.rootsys import CartanDatum
from flagpieces.twist import DiagramAutomorphism
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
        assert bruhat_oracle(g.identity, v)
        assert bruhat_oracle(v, v)


def test_bruhat_oracle_matches_fast_path(group_of):
    g = group_of("B2")
    for u in g.elements:
        for v in g.elements:
            assert bruhat_oracle(u, v) == g.bruhat_leq(u, v)


def test_bruhat_oracle_word_cap(group_of):
    g = group_of("F4")  # longest element has 24 letters
    with pytest.raises(ValueError, match="refusing"):
        bruhat_oracle(g.identity, g.longest_element)
    with pytest.raises(ValueError, match="refusing"):
        bruhat_lower_set_oracle(g.longest_element)


def test_bruhat_lower_set(group_of):
    g = group_of("A2")
    lower = bruhat_lower_set_oracle(g.longest_element)
    assert lower == set(g.elements)
    assert bruhat_lower_set_oracle(g.identity) == {g.identity}


def test_stabilizer_type_oracle_examples(tc_of):
    tc = tc_of("A2", "id")
    g = tc.group
    for J in subsets_of(g.simple_indices):
        assert stabilizer_type_oracle(tc, J, g.identity) == J
    tcf = tc_of("A2", "flip")
    assert stabilizer_type_oracle(tcf, {1}, g.from_word([1, 2])) == frozenset({1})


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
    reps, matrix = closure_matrix_oracle(tc, set())
    assert list(reps) == list(g.elements)
    for a, u in enumerate(reps):
        for b, v in enumerate(reps):
            assert matrix[a][b] == g.bruhat_leq(u, v)


def test_closure_matrix_oracle_a2_chain(tc_of):
    tc = tc_of("A2", "id")
    reps, matrix = closure_matrix_oracle(tc, {1})
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
    broken = dataclasses.replace(real, leq_rows=tuple(rows))
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


def test_closure_agreement_makes_no_bruhat_leq_calls(tc_of, monkeypatch):
    def refuse(self, u, v):
        raise AssertionError("bruhat_leq called")

    monkeypatch.setattr(WeylGroup, "bruhat_leq", refuse)
    for label, spec in (("A3", "flip"), ("B3", "id")):
        tc = tc_of(label, spec)
        for J in subsets_of(tc.group.simple_indices):
            closure_matrix_oracle(tc, J)
            assert check_closure_agreement(tc, J).passed


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
    reach[0] &= ~(1 << g.simple_reflection(2).index)
    g.__dict__["_bruhat_up_reach"] = tuple(reach)
    with pytest.raises(AssertionError, match=r"some/any disagree for w=W\[e\], w2=W\[2\], J=\[1\]"):
        closure_matrix_oracle(tc, {1})


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


def test_sequence_bijection_counts_a_truncated_recipe(tc_of, monkeypatch):
    tc = tc_of("A3", "flip")
    real = oracle.sequence_for

    def truncated(tc_, J, w):
        seq = real(tc_, J, w)
        return dataclasses.replace(seq, steps=seq.steps[:-1])

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


def test_subset_checks_build_the_closure_poset_once(group_of, monkeypatch):
    # order-axioms and closure-agreement share the poset memoized on the action
    g = group_of("A3")
    delta = DiagramAutomorphism.from_spec(g.root_system, "flip")
    calls = []
    real = pieces.piece_records

    def counting(tc, J):
        calls.append(frozenset(J))
        return real(tc, J)

    monkeypatch.setattr(pieces, "piece_records", counting)
    for J in subsets_of(g.simple_indices):
        calls.clear()
        assert all(rep.passed for rep in oracle.run_subset_checks(g, delta, J))
        assert calls == [J]


@pytest.mark.parametrize("width", [2, 3])
def test_failure_count_exact_with_worker_processes(group_of, monkeypatch, verify_workers, width):
    parent = os.getpid()

    def noisy(tc, J):
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
    # J = {1} is job 7: a worker's for W = 2 and W = 3
    assert [got for _, _, got in merged.failures] == ["parent"] * 5 + ["worker"] * 3
    assert merged.summary_line() == "FAIL noisy (20 instances, 20 failures)"


def test_worker_exception_is_raised_again_in_parent(group_of, monkeypatch, verify_workers):
    parent = os.getpid()

    def bad(tc, J):
        if os.getpid() != parent:
            raise ValueError(f"planted in a worker, J={sorted(J)}")
        return OracleReport("bad")

    monkeypatch.setattr(oracle, "PER_SUBSET_CHECKS", (("bad", bad),))
    verify_workers(2)
    g = group_of("A2")
    with pytest.raises(ValueError, match=r"planted in a worker, J=\[1\]") as raised:
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
