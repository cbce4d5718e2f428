"""Acceptance suite: every criterion swept exhaustively at desk scale.

Each test prints one PASS line (visible with pytest -s) and enforces the
stated runtime budget where one applies. The scope is every subset J of
simple indices for A1-A4, B2, B3, C3, D4, G2 with every valid diagram
automorphism (id; flip for A_n n>=2 and D_n; both triality rotations of D4),
via the session-scoped caches in conftest.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import flagpieces
from flagpieces import word_str
from flagpieces.oracle import (
    check_class_partition,
    check_closure_agreement,
    check_group_order,
    check_irreducibility,
    check_orbit_minimality,
    check_order_axioms,
    check_parabolic_restriction,
    check_root_inclusions,
    check_sequence_bijection,
    check_shift_reduction,
    check_strong_conjugacy,
    check_stabilizer_type,
    subsets_of,
)


def _sweep(tc_of, scope_configs, check, note=""):
    """Run a per-J check over the full scope; return (elapsed, instances)."""
    t0 = time.monotonic()
    instances = 0
    failures = []
    for label, spec in scope_configs:
        tc = tc_of(label, spec)
        for J in subsets_of(tc.group.simple_indices):
            report = check(tc, J)
            instances += report.instances_checked
            for f in report.failures:
                failures.append((label, spec, sorted(J), f))
    elapsed = time.monotonic() - t0
    assert not failures, failures[:5]
    return elapsed, instances


def _announce(num, name, elapsed, instances, budget=None):
    line = f"ACCEPTANCE {num:02d} {name}: PASS ({elapsed:.1f}s, {instances} instances"
    if budget is not None:
        line += f", budget {budget}s"
    print(line + ")")
    if budget is not None:
        assert elapsed < budget, f"{name} exceeded its {budget}s budget: {elapsed:.1f}s"


def test_01_sequence_bijection(tc_of, scope_configs):
    """Enumerated stabilizing sequences biject with W^J for every (type, delta, J)."""
    elapsed, instances = _sweep(tc_of, scope_configs, check_sequence_bijection)
    _announce(1, "sequence-bijection", elapsed, instances, budget=60)


def test_02_class_partition(tc_of, scope_configs):
    """The classes [w]_J tile the whole group, exactly once each."""
    elapsed, instances = _sweep(tc_of, scope_configs, check_class_partition)
    _announce(2, "class-partition", elapsed, instances, budget=30)


def test_03_orbit_minimality(tc_of, scope_configs):
    """Bruhat-minimal = length-minimal inside every twisted orbit."""
    elapsed, instances = _sweep(tc_of, scope_configs, check_orbit_minimality)
    _announce(3, "orbit-minimality", elapsed, instances, budget=30)


def test_04_order_axioms(tc_of, scope_configs):
    """The twisted order is representative-independent and a partial order."""
    elapsed, instances = _sweep(tc_of, scope_configs, check_order_axioms)
    _announce(4, "order-axioms", elapsed, instances, budget=60)


def test_05_bruhat_specialization(tc_of, scope_configs):
    """At J = empty the closure poset relation equals the Bruhat order exactly."""
    from flagpieces.pieces import closure_poset

    t0 = time.monotonic()
    instances = 0
    for label, spec in scope_configs:
        tc = tc_of(label, spec)
        g = tc.group
        poset = closure_poset(tc, set())
        for a in range(g.order):
            for b in range(g.order):
                instances += 1
                assert poset.leq(a, b) == g.bruhat_leq(g.elements[a], g.elements[b]), (
                    label,
                    spec,
                    word_str(g.elements[a]),
                    word_str(g.elements[b]),
                )
    _announce(5, "bruhat-specialization", time.monotonic() - t0, instances)


def test_06_shift_reduction(tc_of, scope_configs):
    """Every element shifts down to a distinguished product; paths re-verified."""
    elapsed, instances = _sweep(tc_of, scope_configs, check_shift_reduction)
    _announce(6, "shift-reduction", elapsed, instances)


def test_07_strong_conjugacy(tc_of, scope_configs):
    """Minimal orbit elements are strongly conjugate; mutually shiftable when
    the orbit meets W^J."""
    elapsed, instances = _sweep(tc_of, scope_configs, check_strong_conjugacy)
    _announce(7, "strong-conjugacy", elapsed, instances)


def test_08_root_inclusions(tc_of, scope_configs):
    """Layerwise root inclusions hold along every stabilizing sequence."""
    elapsed, instances = _sweep(tc_of, scope_configs, check_root_inclusions)
    _announce(8, "root-inclusions", elapsed, instances)


def test_09_parabolic_restriction(group_of):
    """Levi root identity for every (J, K, w in ^JW) in A1-A3, B2, G2."""
    t0 = time.monotonic()
    instances = 0
    for label in ("A1", "A2", "A3", "B2", "G2"):
        report = check_parabolic_restriction(group_of(label))
        instances += report.instances_checked
        assert report.passed, (label, report.failures[:5])
    _announce(9, "parabolic-restriction", time.monotonic() - t0, instances)


def test_10_irreducibility(tc_of, scope_configs):
    """Stable-support criterion matches the stable-proper-subset oracle."""
    elapsed, instances = _sweep(tc_of, scope_configs, check_irreducibility)
    _announce(10, "irreducibility", elapsed, instances)


def test_11_group_orders(group_of):
    """Enumerated group orders match the closed forms, including F4."""
    t0 = time.monotonic()
    expected = {
        "A1": math.factorial(2),
        "A2": math.factorial(3),
        "A3": math.factorial(4),
        "A4": math.factorial(5),
        "B2": 2**2 * math.factorial(2),
        "B3": 2**3 * math.factorial(3),
        "C3": 2**3 * math.factorial(3),
        "D4": 2**3 * math.factorial(4),
        "G2": 12,
        "F4": 1152,
    }
    instances = 0
    for label, order in expected.items():
        g = group_of(label)
        assert g.order == order, (label, g.order, order)
        report = check_group_order(g)
        assert report.passed, report.failures
        instances += 1 + report.instances_checked
    _announce(11, "group-orders", time.monotonic() - t0, instances)


def test_12_poset_determinism():
    """cmd_poset output is byte-identical across three independent runs."""
    t0 = time.monotonic()
    args = [
        sys.executable,
        "-m",
        "flagpieces",
        "--cartan",
        "A3",
        "--delta",
        "flip",
        "--j",
        "1",
        "poset",
        "--format",
        "json",
    ]
    # the children import the same flagpieces as this process
    src = str(Path(flagpieces.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    outputs = [
        subprocess.run(args, capture_output=True, check=True, env=env).stdout
        for _ in range(3)
    ]
    assert outputs[0] == outputs[1] == outputs[2]
    payload = json.loads(outputs[0])
    assert payload["nodes"] and payload["hasse"]
    _announce(12, "poset-determinism", time.monotonic() - t0, 3)


def test_13_stabilizer_type_agreement(tc_of, scope_configs):
    """Fixpoint stabilizer types match the all-subsets oracle across the scope.

    Supporting sweep: not a numbered criterion by itself, but the stabilizer
    type feeds criteria 1, 6, and 10, so it is pinned here at full scope.
    """
    elapsed, instances = _sweep(tc_of, scope_configs, check_stabilizer_type)
    _announce(13, "stabilizer-type", elapsed, instances)


def test_14_closure_agreement(tc_of, scope_configs):
    """Fast closure posets equal the quantifier-literal matrices at full scope."""
    elapsed, instances = _sweep(tc_of, scope_configs, check_closure_agreement)
    _announce(14, "closure-agreement", elapsed, instances)
