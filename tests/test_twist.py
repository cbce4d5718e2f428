import random
import sys
import threading
import time

import pytest
from conftest import SCOPE, root_perm

import flagpieces as fp
from flagpieces import word_str
from flagpieces.oracle import (
    check_class_partition,
    check_orbit_minimality,
    check_shift_reduction,
    check_stabilizer_type,
    check_strong_conjugacy,
    run_subset_checks,
    subsets_of,
)
from flagpieces.rootsys import AutomorphismError, DiagramAutomorphism
from flagpieces.twist import (
    _UNSEEN,
    _Parts,
    delta_on_element,
    simple_image,
)


def _delta(group, spec):
    return DiagramAutomorphism.from_spec(group.root_system, spec)


def test_identity_automorphism(group_of, tc_of):
    g = group_of("A2")
    tc = tc_of("A2", "id")
    for w in g.elements:
        assert tc.delta_apply(w) == w


def test_flip_relabels_generators(group_of, tc_of):
    g = group_of("A2")
    tc = tc_of("A2", "flip")
    assert tc.delta_apply(g.simple_reflection(1)) == g.simple_reflection(2)
    g3 = group_of("A3")
    tc3 = tc_of("A3", "flip")
    assert tc3.delta_apply(g3.from_word([1, 2])) == g3.from_word([3, 2])


def test_delta_is_group_automorphism(group_of, tc_of):
    g = group_of("A3")
    tc = tc_of("A3", "flip")
    for u in g.elements:
        for v in g.parabolic_elements({1, 2}):
            assert tc.delta_apply(u * v) == tc.delta_apply(u) * tc.delta_apply(v)


def test_non_cartan_preserving_rejected(group_of):
    g = group_of("B2")
    with pytest.raises(AutomorphismError, match="Cartan-preserving"):
        DiagramAutomorphism(g.root_system, (2, 1))
    with pytest.raises(AutomorphismError, match="permutation"):
        DiagramAutomorphism(g.root_system, (1, 1))


def test_flip_specs():
    assert _spec_images("A3", "flip") == (3, 2, 1)
    assert _spec_images("D4", "flip") == (1, 2, 4, 3)
    assert _spec_images("D5", "flip") == (1, 2, 3, 5, 4)
    e6 = fp.root_system("E6")
    assert DiagramAutomorphism.from_spec(e6, "flip").images == (6, 2, 5, 4, 3, 1)


def _spec_images(label, spec):
    rs = fp.root_system(label)
    return DiagramAutomorphism.from_spec(rs, spec).images


def test_triality_specs():
    assert _spec_images("D4", "tri") == (3, 2, 4, 1)
    assert _spec_images("D4", "tri2") == (4, 2, 1, 3)
    rs = fp.root_system("A3")
    with pytest.raises(AutomorphismError, match="D4"):
        DiagramAutomorphism.from_spec(rs, "tri")
    with pytest.raises(AutomorphismError, match="flip"):
        DiagramAutomorphism.from_spec(fp.root_system("G2"), "flip")


def test_explicit_spec(group_of):
    g = group_of("A3")
    d = DiagramAutomorphism.from_spec(g.root_system, "3,2,1")
    assert d.images == (3, 2, 1)
    with pytest.raises(AutomorphismError, match="cannot parse"):
        DiagramAutomorphism.from_spec(g.root_system, "bogus")


def test_twisted_conjugate_examples(group_of, tc_of):
    g = group_of("A2")
    tc = tc_of("A2", "id")
    s1, s2 = g.simple_reflection(1), g.simple_reflection(2)
    for y in g.elements:
        assert tc.twisted_conjugate(g.identity, y, set()) == y
    assert tc.twisted_conjugate(s1, s2, {1}) == g.from_word([1, 2, 1])
    tcf = tc_of("A2", "flip")
    assert tcf.twisted_conjugate(s1, g.identity, {1}) == g.from_word([2, 1])
    with pytest.raises(ValueError, match="parabolic"):
        tc.twisted_conjugate(s2, s1, {1})


@pytest.mark.parametrize(
    "label,spec,J",
    [
        ("A2", "id", {1, 2}),
        ("A2", "flip", {1, 2}),
        ("B2", "id", {1, 2}),
        ("A3", "flip", {1, 3}),
        ("A3", "id", {1, 2}),
    ],
)
def test_twisted_action_axiom(group_of, tc_of, label, spec, J):
    g = group_of(label)
    tc = tc_of(label, spec)
    J = frozenset(J)
    wj = g.parabolic_elements(J)
    for x1 in wj:
        for x2 in wj:
            for y in g.elements:
                lhs = tc.twisted_conjugate(x1 * x2, y, J)
                rhs = tc.twisted_conjugate(x1, tc.twisted_conjugate(x2, y, J), J)
                assert lhs == rhs


def test_orbit_examples(group_of, tc_of):
    g = group_of("A2")
    tc = tc_of("A2", "id")
    for y in g.elements:
        assert tc.orbit(y, set()).members == (y,)
    orb = tc.orbit(g.simple_reflection(2), {1})
    assert {word_str(m) for m in orb.members} == {"2", "1,2,1"}
    assert [word_str(m) for m in orb.min_elements] == ["2"]
    orb2 = tc.orbit(g.from_word([1, 2]), {1})
    assert {word_str(m) for m in orb2.members} == {"1,2", "2,1"}
    assert len(orb2.min_elements) == 2


def test_orbit_closed_under_generators(group_of, tc_of):
    g = group_of("B2")
    tc = tc_of("B2", "id")
    for J in subsets_of(g.simple_indices):
        orbits, _ = tc.orbit_partition(J)
        for orbit in orbits:
            members = set(orbit.members)
            for j in J:
                for y in members:
                    assert tc.twisted_conjugate(g.simple_reflection(j), y, J) in members


def test_stabilizer_type_examples(group_of, tc_of):
    g = group_of("A2")
    tc = tc_of("A2", "id")
    for J in subsets_of(g.simple_indices):
        assert tc.stabilizer_type(J, g.identity) == J
    w = g.from_word([1, 2])
    assert tc.stabilizer_type({1}, w) == frozenset()
    tcf = tc_of("A2", "flip")
    assert tcf.stabilizer_type({1}, w) == frozenset({1})
    with pytest.raises(ValueError, match="minimal coset representative"):
        tc.stabilizer_type({1}, g.simple_reflection(1))


def test_stabilizer_type_identity_is_largest_stable_subset(group_of, tc_of):
    tc = tc_of("A3", "flip")
    # delta swaps 1 and 3: the largest delta-stable subset of {1,2} is {2}
    assert tc.stabilizer_type({1, 2}, tc.group.identity) == frozenset({2})


@pytest.mark.parametrize("label,spec", [("B3", "id"), ("A3", "flip"), ("D4", "tri")])
def test_stabilizer_type_vs_all_subsets_oracle(tc_of, label, spec):
    tc = tc_of(label, spec)
    for J in subsets_of(tc.group.simple_indices):
        report = check_stabilizer_type(tc, J)
        assert report.passed, report.failures


def test_class_decomposition_examples(group_of, tc_of):
    g = group_of("A2")
    tc = tc_of("A2", "id")
    classes = tc.class_decomposition(frozenset())
    assert all(len(c.members) == 1 for c in classes)
    assert len(classes) == g.order

    classes = tc.class_decomposition({1})
    by_base = {word_str(c.base): {word_str(m) for m in c.members} for c in classes}
    assert by_base == {
        "e": {"e", "1"},
        "2": {"2", "1,2,1"},
        "1,2": {"1,2", "2,1"},
    }

    classes = tc.class_decomposition({1, 2})
    assert len(classes) == 1
    assert len(classes[0].members) == g.order  # conjugation action: one class of e


def test_class_partition_checks(tc_of):
    for label, spec in [("A2", "id"), ("A2", "flip"), ("B2", "id"), ("A3", "flip")]:
        tc = tc_of(label, spec)
        for J in subsets_of(tc.group.simple_indices):
            report = check_class_partition(tc, J)
            assert report.passed, report.failures


def test_shift_step_examples(group_of, tc_of):
    # the shift steps w -> s_d(j) w s_j, j in J, that do not raise length
    g = group_of("A2")
    tc = tc_of("A2", "id")

    def steps(tc_, w, J):
        return [word_str(g.elements[z]) for z in tc_._shift_adjacency(J)[w.index]]

    assert steps(tc, g.identity, {1}) == ["e"]
    assert steps(tc, g.from_word([1, 2, 1]), {1, 2}) == ["1", "2"]
    assert steps(tc, g.from_word([1, 2]), {1, 2}) == ["2,1"]
    # pinned degenerate case: delta(j) != j at the identity has no edge
    tcf = tc_of("A2", "flip")
    assert steps(tcf, g.identity, {1}) == []


def test_reduce_to_distinguished_examples(group_of, tc_of):
    g = group_of("A2")
    tc = tc_of("A2", "id")
    s2 = g.simple_reflection(2)
    red = tc.reduce_to_distinguished(s2, {1})
    assert (red.label, red.tail, red.path) == (s2, g.identity, ())
    red = tc.reduce_to_distinguished(g.simple_reflection(1), {1})
    assert (red.label, red.tail) == (g.identity, g.simple_reflection(1))
    red = tc.reduce_to_distinguished(g.from_word([1, 2, 1]), {1})
    assert g.is_min_left_rep(red.label, {1})
    assert set(red.tail.word) <= tc.stabilizer_type({1}, red.label)


@pytest.mark.parametrize("label,spec", [("A2", "id"), ("B2", "id"), ("A3", "flip")])
def test_reduction_exhaustive(tc_of, label, spec):
    tc = tc_of(label, spec)
    for J in subsets_of(tc.group.simple_indices):
        report = check_shift_reduction(tc, J)
        assert report.passed, report.failures


def test_strong_conjugacy_examples(group_of, tc_of):
    g = group_of("A2")
    tc = tc_of("A2", "id")
    for w in g.elements:
        assert tc.strongly_conjugate(w, w, {1})
    assert tc.strongly_conjugate(g.from_word([1, 2]), g.from_word([2, 1]), {1})
    # both minimal elements of the orbit {s1 s2, s2 s1} meet W^J: one shift class
    assert tc.same_shift_class(g.from_word([1, 2]), g.from_word([2, 1]), {1})


@pytest.mark.parametrize("label,spec", [("A2", "id"), ("A2", "flip"), ("B2", "id")])
def test_strong_conjugacy_claims(tc_of, label, spec):
    tc = tc_of(label, spec)
    for J in subsets_of(tc.group.simple_indices):
        report = check_strong_conjugacy(tc, J)
        assert report.passed, report.failures


def test_shift_classes_partition_group(group_of, tc_of):
    g = group_of("B2")
    tc = tc_of("B2", "id")
    classes = tc.shift_classes({1, 2})
    seen = [m for cls in classes for m in cls]
    assert len(seen) == g.order
    assert len(set(seen)) == g.order
    # classes are length-homogeneous: cycles cannot strictly drop length
    for cls in classes:
        assert len({m.length for m in cls}) == 1


def test_shift_reachable_contains_self(group_of, tc_of):
    g = group_of("A2")
    tc = tc_of("A2", "id")
    for w in g.elements:
        assert w in tc.shift_reachable(w, {1, 2})


@pytest.mark.parametrize("label,spec", [("A2", "id"), ("B2", "id"), ("A3", "flip"), ("G2", "id")])
def test_orbit_minimality_equivalence(tc_of, label, spec):
    tc = tc_of(label, spec)
    for J in subsets_of(tc.group.simple_indices):
        report = check_orbit_minimality(tc, J)
        assert report.passed, report.failures


def test_support(group_of):
    g = group_of("A3")
    assert fp.support(g.identity) == frozenset()
    for w in g.elements:
        assert fp.support(w) == frozenset(w.word)


def test_stable_support(group_of, tc_of):
    g = group_of("A2")
    flip = tc_of("A2", "flip").delta
    ident = tc_of("A2", "id").delta
    assert fp.stable_support(g.simple_reflection(1), flip) == frozenset({1, 2})
    assert fp.stable_support(g.simple_reflection(1), ident) == frozenset({1})
    assert fp.stable_support(g.from_word([1, 2]), ident) == frozenset({1, 2})


def test_delta_on_element_free_function(group_of):
    g = group_of("A2")
    d = DiagramAutomorphism.from_spec(g.root_system, "flip")
    assert delta_on_element(d, g.simple_reflection(1)) == g.simple_reflection(2)
    other = fp.root_system("A3")
    d3 = DiagramAutomorphism.from_spec(other, "flip")
    with pytest.raises(ValueError, match="different root systems"):
        delta_on_element(d3, g.simple_reflection(1))


@pytest.mark.parametrize(
    "label,spec", [(label, spec) for label, specs in SCOPE for spec in specs] + [("F4", "id")]
)
def test_delta_apply_matches_root_conjugation(tc_of, label, spec):
    tc = tc_of(label, spec)
    g, rs = tc.group, tc.group.root_system
    # delta as a permutation of root indices; delta(w) = delta o w o delta^-1
    rp = []
    for root in rs.roots:
        c = [0] * rs.rank
        for i, x in enumerate(root.coords):
            c[tc.delta(i + 1) - 1] = x
        rp.append(rs.index[tuple(c)])
    inv = [0] * len(rp)
    for r, s in enumerate(rp):
        inv[s] = r
    perms = {w: root_perm(w) for w in g.elements}
    by_perm = {p: w for w, p in perms.items()}
    for w, p in perms.items():
        expected = by_perm[tuple(rp[p[inv[r]]] for r in range(len(rp)))]
        assert tc.delta_apply(w) is expected


@pytest.mark.parametrize("label,spec", [("A3", "flip"), ("B3", "id"), ("D4", "tri")])
def test_twisted_sweep_matches_products(tc_of, label, spec):
    # d(x) y x^-1 for every x in W_J, against delta_apply and the products
    tc = tc_of(label, spec)
    g = tc.group
    for J in subsets_of(g.simple_indices):
        pairs = [(tc.delta_apply(x), x.inverse()) for x in g.parabolic_elements(J)]
        for y in g.elements:
            assert g._sweep(J, y.index, tc._dlmul, g._rmul) == [(dx * y * xi).index for dx, xi in pairs]


@pytest.mark.parametrize("label", sorted({label for label, _ in SCOPE} | {"F4"}))
def test_simple_image_matches_root_images(group_of, label):
    # w(alpha_k) by the root permutation composed along the reduced word
    g = group_of(label)
    rs = g.root_system
    simple = {rs.simple_root_index(j): j for j in g.simple_indices}
    for w in g.elements:
        p = root_perm(w)
        for k in g.simple_indices:
            assert simple_image(w, k) == simple.get(p[rs.simple_root_index(k)])


@pytest.mark.parametrize("label", ["D4", "F4"])
def test_support_is_bruhat_support(group_of, label):
    g = group_of(label)
    for w in g.elements:
        below = {i for i in g.simple_indices if g.bruhat_leq(g.simple_reflection(i), w)}
        assert fp.support(w) == below


SCOPE_CONFIGS = [(label, spec) for label, specs in SCOPE for spec in specs]


def _first_seen_labels(labels) -> list[int]:
    """Relabel a partition given as one label per index by order of first
    occurrence, so that two labelings of the same partition compare equal."""
    ids: dict[int, int] = {}
    return [ids.setdefault(c, len(ids)) for c in labels]


@pytest.mark.parametrize("label,spec", SCOPE_CONFIGS)
def test_shift_classes_are_mutual_reachability(tc_of, label, spec):
    tc = tc_of(label, spec)
    g = tc.group
    for J in subsets_of(g.simple_indices):
        reach = [{v.index for v in tc.shift_reachable(w, J)} for w in g.elements]
        expected = []
        for k in range(g.order):
            cls = tuple(sorted(v for v in reach[k] if k in reach[v]))
            if cls[0] == k:
                expected.append(cls)
        classes = tc.shift_classes(J)
        assert [tuple(e.index for e in cls) for cls in classes] == expected
        parts = tc._scc(J)
        for cls in classes:
            assert {parts[e.index] for e in cls} == {parts[cls[0].index]}
        assert len({parts[cls[0].index] for cls in classes}) == len(classes)


def _union_find_strong_classes(tc, J) -> list[int]:
    """Strong-conjugacy classes by union-find over every length-additive,
    length-preserving twist, one root label per element index."""
    g = tc.group
    parent = list(range(g.order))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    xs = [(x, tc.delta_apply(x), x.inverse()) for x in g.parabolic_elements(J)]
    for w in g.elements:
        for x, dx, xi in xs:
            left = dx * w
            if left.length != x.length + w.length:
                right = w * xi
                if right.length != x.length + w.length:
                    continue
                z = dx * right
            else:
                z = left * xi
            if z.length == w.length:
                ri, rj = find(w.index), find(z.index)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    return [find(i) for i in range(g.order)]


@pytest.mark.parametrize("label,spec", SCOPE_CONFIGS)
def test_strong_classes_match_union_find(tc_of, label, spec):
    tc = tc_of(label, spec)
    for J in subsets_of(tc.group.simple_indices):
        expected = _first_seen_labels(_union_find_strong_classes(tc, J))
        assert _first_seen_labels(tc._strong_components(J)) == expected


def test_strong_conjugacy_check_labels_only_orbit_minima(group_of):
    # check_strong_conjugacy looks up orbit minima only, and a strong step
    # keeps length inside the orbit, so no other element is walked; a fresh
    # action, so that no other test has looked anything up in it
    g = group_of("D4")
    tc = fp.TwistedConjugation(g, _delta(g, "tri"))
    J = frozenset(g.simple_indices)
    assert check_strong_conjugacy(tc, J).passed
    labels = tc._strong_components(J)
    walked = {k for k, pid in enumerate(labels._part_of) if pid != _UNSEEN}
    minima = {v.index for orbit in tc.orbit_partition(J)[0] for v in orbit.min_elements}
    assert walked == minima
    assert len(minima) < g.order


def _union_find_parts(n: int, adj) -> list[tuple[int, ...]]:
    """Connected components of a relation given as neighbour sets, by
    union-find: each ascending, ordered by smallest member."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a in range(n):
        for b in adj[a]:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    parts: dict[int, list[int]] = {}
    for k in range(n):
        parts.setdefault(find(k), []).append(k)
    return [tuple(parts[r]) for r in sorted(parts)]


def test_parts_walk_on_demand_and_match_union_find():
    # a random symmetric relation on 200 indices, looked up in shuffled
    # order: each part(k) is ascending and holds k, numbers agree exactly
    # within a part, and all() gives the union-find components
    rng = random.Random(7)
    n = 200
    adj = [set() for _ in range(n)]
    for _ in range(150):
        a, b = rng.randrange(n), rng.randrange(n)
        adj[a].add(b)
        adj[b].add(a)
    expected = _union_find_parts(n, adj)
    order = list(range(n))
    rng.shuffle(order)
    parts = _Parts(n, lambda k: sorted(adj[k]))
    for k in order:
        part = parts._parts[parts[k]]
        assert k in part and list(part) == sorted(set(part))
        assert {parts[m] for m in part} == {parts[k]}
    assert [tuple(p) for p in parts.all()] == expected
    assert len(set(parts._part_of)) == len(expected)
    # walked whole in increasing order, a fresh one numbers parts by position
    fresh = _Parts(n, lambda k: sorted(adj[k]))
    assert [tuple(p) for p in fresh.all()] == expected
    assert [fresh[k] for k in range(n)] == [
        next(i for i, p in enumerate(expected) if k in p) for k in range(n)
    ]


def test_parts_racing_lookups_agree():
    # threads look parts up at once in different orders; a lookup that
    # meets a part another thread is still walking waits for its array, and
    # no part is numbered twice
    rng = random.Random(11)
    n = 1000
    adj = [set() for _ in range(n)]
    for _ in range(1300):
        a, b = rng.randrange(n), rng.randrange(n)
        adj[a].add(b)
        adj[b].add(a)
    expected = _union_find_parts(n, adj)
    part_of = {k: p for p in expected for k in p}

    def neighbours(k):
        time.sleep(0)  # let the other threads run in the middle of a walk
        return sorted(adj[k])

    parts = _Parts(n, neighbours)
    orders = [rng.sample(range(n), n) for _ in range(6)]
    seen: list[list] = [[] for _ in orders]

    def look(order, out):
        out.extend((k, tuple(parts._parts[parts[k]]), parts[k]) for k in order)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=look, args=args) for args in zip(orders, seen)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for out in seen:
        assert len(out) == n
        assert all(part == part_of[k] for k, part, _ in out)
        assert all(pid == parts[k] for k, _, pid in out)
    assert [tuple(p) for p in parts.all()] == expected
    assert len(parts._parts) == len(expected)


@pytest.mark.parametrize("label,spec", SCOPE_CONFIGS)
def test_shift_classes_do_not_depend_on_orbit_min_first(group_of, label, spec):
    # same_shift_class walks single shift classes of the lazy partition that
    # shift_classes then completes; the result is the same as walking it whole
    g = group_of(label)
    for J in subsets_of(g.simple_indices):
        cold = fp.TwistedConjugation(g, _delta(g, spec))
        warm = fp.TwistedConjugation(g, _delta(g, spec))
        for y in g.min_coset_reps(J, "right"):
            assert warm.same_shift_class(y, y, J)
        assert warm.shift_classes(J) == cold.shift_classes(J), sorted(J)


def test_subset_checks_need_no_shift_adjacency(group_of, monkeypatch):
    # the shift-adjacency lists serve shift_reachable only: no per-subset
    # check reads them
    def refuse(self, J):
        raise AssertionError("_shift_adjacency was called")

    monkeypatch.setattr(fp.TwistedConjugation, "_shift_adjacency", refuse)
    g = group_of("D4")
    delta = _delta(g, "tri")
    for J in subsets_of(g.simple_indices):
        for report in run_subset_checks(g, delta, J):
            assert report.passed, (sorted(J), report.check_name, report.failures)


@pytest.mark.parametrize("label,spec", SCOPE_CONFIGS)
def test_orbit_lookup_is_orbit_position(tc_of, label, spec):
    tc = tc_of(label, spec)
    g = tc.group
    for J in subsets_of(g.simple_indices):
        orbits, orbit_of = tc.orbit_partition(J)
        assert len(orbit_of) == g.order
        for pos, orbit in enumerate(orbits):
            assert list(orbit.members) == sorted(orbit.members, key=lambda e: e.index)
            for m in orbit.members:
                assert orbit_of[m.index] == pos
        assert [o.members[0].index for o in orbits] == sorted(o.members[0].index for o in orbits)


def test_shift_adjacency_is_built_once_per_subset(group_of, monkeypatch):
    g = group_of("D4")
    tc = fp.TwistedConjugation(g, _delta(g, "tri"))
    builds = []
    real = tc._twist_steps

    def counting(J):
        builds.append(frozenset(J))
        return real(J)

    monkeypatch.setattr(tc, "_twist_steps", counting)
    J = frozenset({1, 2, 3})
    for w in g.elements:
        tc.shift_reachable(w, J)
    tc.shift_classes(J)
    tc.same_shift_class(g.identity, g.longest_element, [3, 2, 1])
    # once by _shift_adjacency and once by _scc, which walks the steps alone
    assert builds == [J, J]
    tc.shift_reachable(g.identity, {2})
    assert builds == [J, J, frozenset({2})]


def test_per_subset_memo_keys_subset_as_a_set(group_of):
    g = group_of("A3")
    tc = fp.TwistedConjugation(g, _delta(g, "flip"))
    orbits = tc.orbit_partition({1, 2})
    poset = fp.closure_poset(tc, {1, 2})
    assert isinstance(poset, fp.ClosurePoset)
    for J in ([2, 1], frozenset({1, 2})):
        assert tc.orbit_partition(J) is orbits
        assert fp.closure_poset(tc, J) is poset
    assert poset.J == frozenset({1, 2})


def test_stabilizer_type_memo_stores_no_failed_call(group_of):
    g = group_of("A2")
    tc = fp.TwistedConjugation(g, _delta(g, "id"))
    for _ in range(2):
        with pytest.raises(ValueError, match="minimal coset representative"):
            tc.stabilizer_type({1}, g.simple_reflection(1))
    assert tc._memo == {}


@pytest.mark.parametrize("label,spec", [("A3", "flip"), ("B3", "id"), ("D4", "tri")])
def test_distinguished_forms_match_their_definition(tc_of, label, spec):
    # per J, the table swept from W^J against the per-element definition: u
    # has a form iff u = label * tail, label = min(u W_J), with the tail's
    # support inside the label's stabilizer type
    tc = tc_of(label, spec)
    g = tc.group
    for J in subsets_of(g.simple_indices):
        expected = {}
        for u in g.elements:
            y = g.min_coset_rep(u, J, "right")
            tail = y.inverse() * u
            if set(tail.word) <= tc.stabilizer_type(J, y):
                expected[u.index] = (y.index, tail.index)
        forms = tc._distinguished_forms(J)
        assert forms == expected, sorted(J)
        assert tc._distinguished_forms(sorted(J)) is forms


def test_equal_orbits_hash_alike(group_of):
    g = group_of("B3")
    J = {1, 3}
    a = fp.TwistedConjugation(g, _delta(g, "id")).orbit_partition(J)[0]
    b = fp.TwistedConjugation(g, _delta(g, "id")).orbit_partition(J)[0]
    assert a == b and a[0] is not b[0]
    assert [hash(o) for o in a] == [hash(o) for o in b]
    assert set(a) == set(b)
    assert len(set(a)) == len(a)


@pytest.mark.parametrize(
    "label,spec,subsets",
    [
        ("A3", "flip", None),
        ("B3", "id", None),
        ("D4", "tri", None),
        ("G2", "id", None),
        ("E6", "flip", [{1, 2, 3, 4, 5}, {2, 4}]),
        ("E6", "id", [{2, 3, 4, 5}]),
    ],
)
def test_orbit_min_of_a_label_is_its_orbit_minima(tc_of, label, spec, subsets):
    # the engine's shift-class walk, read on the table as the records,
    # against the minima of the whole orbit partition
    tc = tc_of(label, spec)
    g = tc.group
    for J in subsets or subsets_of(g.simple_indices):
        records = fp.piece_records(tc, J)
        assert tuple(r.index_w for r in records) == g.min_coset_reps(J, "left")
        for r in records:
            assert r.orbit_min == tc.orbit(r.inv_w, J).min_elements, (sorted(J), r.inv_w)
