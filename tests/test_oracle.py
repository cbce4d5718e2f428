import pytest

from flagpieces import oracle
from flagpieces.oracle import (
    OracleReport,
    bruhat_lower_set_oracle,
    bruhat_oracle,
    closure_matrix_oracle,
    enumerate_stabilizing_sequences,
    irreducible_oracle,
    positive_roots_oracle,
    stabilizer_type_oracle,
    subsets_of,
)
from flagpieces.rootsys import CartanDatum
from flagpieces.twist import DiagramAutomorphism


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
