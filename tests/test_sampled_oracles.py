"""Seeded differential tests past the exhaustive acceptance scope.

Hypothesis samples (type, delta, J) from F4, D5 and B5, keeping J with at
most 200 pieces, and runs the order-axiom, closure-agreement, class-partition,
strong-conjugacy and sequence-bijection oracles on each sample. The run is
derandomized and keeps no example database.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from flagpieces.oracle import (  # noqa: E402
    check_class_partition,
    check_closure_agreement,
    check_order_axioms,
    check_sequence_bijection,
    check_strong_conjugacy,
    subsets_of,
)

CONFIGS = (("F4", "id"), ("D5", "id"), ("D5", "flip"), ("B5", "id"))
MAX_PIECES = 200


@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(config=st.sampled_from(CONFIGS), data=st.data())
def test_sampled_closure_poset_agrees_with_oracles(tc_of, config, data):
    tc = tc_of(*config)
    g = tc.group
    small = [
        J
        for J in subsets_of(g.simple_indices)
        if len(g.min_coset_reps(J, "left")) <= MAX_PIECES
    ]
    J = data.draw(st.sampled_from(small), label="J")
    order = check_order_axioms(tc, J)
    assert order.passed, order.failures
    closure = check_closure_agreement(tc, J)
    assert closure.passed, closure.failures
    classes = check_class_partition(tc, J)
    assert classes.passed, classes.failures
    strong = check_strong_conjugacy(tc, J)
    assert strong.passed, strong.failures
    sequences = check_sequence_bijection(tc, J)
    assert sequences.passed, sequences.failures
