import math
import random
import sys
import threading
import time
from array import array
from operator import mul

import pytest
from conftest import SCOPE, root_perm

import flagpieces as fp
from flagpieces import weyl_group, word_str
from flagpieces.rootsys import parse_letters
from flagpieces.oracle import (
    check_bruhat_agreement,
    check_coset_minimality,
    check_length_additivity,
    subsets_of,
)
from flagpieces.pairs import _inverse_and_right, _level_search
from flagpieces.rootsys import GroupTooLargeError
from flagpieces.weyl import WeylElement


def test_identity_and_involutions(group_of):
    g = group_of("A2")
    s1 = g.from_word([1])
    for w in g.elements:
        assert g.identity * w == w
        assert w * g.identity == w
    assert s1 * s1 == g.identity


def test_longest_element_a2(group_of):
    g = group_of("A2")
    w0 = g.from_word([1, 2, 1])
    assert w0.length == 3
    assert g.elements[g.order - 1] == w0


def test_canonical_words(group_of):
    assert group_of("A2").identity.word == ()
    for label, word in (("A2", (1, 2, 1)), ("B2", (1, 2, 1, 2))):
        g = group_of(label)
        assert g.elements[g.order - 1].word == word


def test_canonical_word_is_lex_smallest_reduced(group_of):
    # brute force over all products of all words of the right length
    import itertools

    g = group_of("B2")
    for w in g.elements:
        reduced = [
            word
            for word in itertools.product(range(1, g.rank + 1), repeat=w.length)
            if g.from_word(word) == w
        ]
        assert min(reduced) == w.word if reduced else w.word == ()


@pytest.mark.parametrize("label", sorted({label for label, _ in SCOPE}))
def test_derived_words_are_lex_smallest_reduced(group_of, label):
    # every word up to the longest length, multiplied out as root
    # permutations (no group table): layer maps each product of a word of the
    # current length to its lexicographically smallest such word, and
    # smallest keeps that word from the first length the product appears at
    g = group_of(label)
    table = g.root_system.simple_reflection_table
    layer = {tuple(range(len(table[0]))): ()}
    smallest = dict(layer)
    for _ in range(g.elements[g.order - 1].length):
        longer: dict[tuple[int, ...], tuple[int, ...]] = {}
        for perm, word in layer.items():
            for a in g.simple_indices:
                p = tuple(table[a - 1][r] for r in perm)  # s_a w
                if p not in longer or (a,) + word < longer[p]:
                    longer[p] = (a,) + word
        for p, word in longer.items():
            smallest.setdefault(p, word)
        layer = longer
    for w in g.elements:
        assert len(w.word) == w.length
        x = 0
        for i in w.word:
            x = g._rmul[i][x]
        assert x == w.index
        assert smallest[root_perm(w)] == w.word


def test_elements_read_as_a_sequence():
    g = weyl_group("A3")
    assert len(g.elements) == g.order == 24
    for bad in (24, -1):
        with pytest.raises(IndexError):
            g.elements[bad]
    assert [w.index for w in g.elements] == list(range(24))
    assert WeylElement(g, 7) in g.elements
    assert weyl_group("A3").identity not in g.elements


def test_elements_equal_by_group_and_index():
    # a second element at one index, as two threads racing on a first lookup
    # make, is equal to the stored one
    g = weyl_group("A3")
    twin = WeylElement(g, 5)
    w = g.elements[5]
    assert twin is not w
    assert twin == w and hash(twin) == hash(w) and twin.word == w.word
    assert g.double_coset_rep(twin, {1}, {3}) == g.double_coset_rep(w, {1}, {3})
    assert twin != WeylElement(weyl_group("A3"), 5)


def test_racing_lookups_agree():
    # threads fill one fresh store at once; whichever element a lookup returns
    # equals the stored one and has the right word
    g = weyl_group("B4")
    expected = [w.word for w in weyl_group("B4").elements]
    seen: list[list[WeylElement]] = [[] for _ in range(6)]

    def look(out):
        out.extend(g.elements[x] for x in range(g.order))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=look, args=(out,)) for out in seen]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for out in seen:
        assert out == list(g.elements)
        assert [w.word for w in out] == expected


@pytest.mark.parametrize(
    "label,expected",
    [
        ("A2", math.factorial(3)),
        ("A4", math.factorial(5)),
        ("B3", 2**3 * math.factorial(3)),
        ("C3", 2**3 * math.factorial(3)),
        ("D4", 2**3 * math.factorial(4)),
        ("G2", 12),
    ],
)
def test_group_orders(group_of, label, expected):
    assert group_of(label).order == expected


def test_enumeration_ceiling():
    with pytest.raises(GroupTooLargeError):
        weyl_group("A3", max_elements=10)


def test_enumeration_ceiling_is_the_group_order():
    for ceiling in (5, 24, 47):
        with pytest.raises(GroupTooLargeError, match="B3 exceeds the element ceiling"):
            weyl_group("B3", max_elements=ceiling)
    assert weyl_group("B3", max_elements=48).order == 48


def test_over_ceiling_group_refused_before_enumeration():
    # E8 has 696,729,600 elements; enumerating 3 M of them before refusing
    # took about 45 s
    start = time.perf_counter()
    with pytest.raises(GroupTooLargeError, match="E8 exceeds the element ceiling 3000000"):
        weyl_group("E8")
    assert time.perf_counter() - start < 1.0


def test_length_via_negated_positives(group_of):
    g = group_of("B2")
    rs = g.root_system
    for w in g.elements:
        count = sum(
            1 for r in range(rs.n_positive) if not rs.is_positive_index(w.root_image(r))
        )
        assert count == w.length == len(w.word)


def test_mismatched_groups_rejected():
    a = weyl_group("A2")
    b = weyl_group("A2")
    with pytest.raises(ValueError, match="different"):
        a.identity * b.identity


def test_bruhat_examples(group_of):
    g = group_of("A2")
    s1, s2 = g.from_word([1]), g.from_word([2])
    for w in g.elements:
        assert g.bruhat_leq(g.identity, w)
    assert not g.bruhat_leq(s1, s2)
    assert g.bruhat_leq(s2, s1 * s2)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "G2"])
def test_bruhat_agrees_with_subword_oracle(group_of, label):
    report = check_bruhat_agreement(group_of(label))
    assert report.passed, report.failures


def _plant_bruhat_faults(g, monkeypatch, pairs) -> None:
    """Flip bit v of row u of g's Bruhat table for each (u, v) in pairs; the
    table is restored after the test."""
    reach = list(g._bruhat_up_reach)
    for u, v in pairs:
        reach[u] ^= 1 << v
    monkeypatch.setitem(g.__dict__, "_bruhat_up_reach", tuple(reach))


@pytest.mark.parametrize("label,instances", [("B3", 2_304), ("F4", 1_327_104)])
def test_bruhat_check_reports_each_planted_fault(group_of, monkeypatch, label, instances):
    # k flipped bits: exactly k failures, each naming its pair, and the same
    # instance count (every pair (u, v)) as a clean table
    g = group_of(label)
    rng = random.Random(label)
    pairs = {(rng.randrange(g.order), rng.randrange(g.order)) for _ in range(5)}
    # two faults in one column: the identity is below every v
    pairs |= {(0, g.order - 1), (g.order - 1, g.order - 1)}
    truth = {(u, v): g.bruhat_leq(g.elements[u], g.elements[v]) for u, v in pairs}
    _plant_bruhat_faults(g, monkeypatch, pairs)
    report = check_bruhat_agreement(g)
    assert report.instances_checked == instances
    assert report.failure_count == len(pairs) == len(report.failures)
    assert sorted(report.failures) == sorted(
        (
            f"u={word_str(g.elements[u])} vs v={word_str(g.elements[v])}",
            str(int(truth[u, v])),
            str(int(not truth[u, v])),
        )
        for u, v in pairs
    )


def test_bruhat_check_counts_a_fault_at_the_longest_element(group_of, monkeypatch):
    # F4's longest element has 24 letters; the subword oracle scans it like
    # any other v, so a fault in its column is one failure
    g = group_of("F4")
    w0 = g.elements[g.order - 1]
    _plant_bruhat_faults(g, monkeypatch, [(0, w0.index)])
    assert not g.bruhat_leq(g.identity, w0)
    report = check_bruhat_agreement(g)
    assert (report.instances_checked, report.failure_count) == (1_327_104, 1)
    assert report.failures == [(f"u=e vs v={word_str(w0)}", "1", "0")]


def test_bruhat_covers_are_length_one_steps(group_of):
    g = group_of("B2")
    for u in g.elements:
        for vidx in g.bruhat_covers_up[u.index]:
            v = g.elements[vidx]
            assert v.length == u.length + 1
            assert g.bruhat_leq(u, v)
            t = u.inverse() * v
            assert t in g.reflections


def test_min_coset_rep_examples(group_of):
    g = group_of("A2")
    # already minimal
    s2 = g.from_word([2])
    assert g.min_coset_rep(s2, {1}, "right") == s2
    # coset {s2 s1, s2 s1 s2}: min is s2 s1
    w = g.from_word([2, 1])
    assert g.min_coset_rep(w, {2}, "right") == w
    # coset {s1 s2 s1, s1 s2}: min is s1 s2
    assert g.min_coset_rep(g.from_word([1, 2, 1]), {1}, "right") == g.from_word([1, 2])


def test_min_coset_rep_length_splits(group_of):
    g = group_of("B2")
    for J in subsets_of(g.simple_indices):
        for w in g.elements:
            r = g.min_coset_rep(w, J, "right")
            assert w.length == r.length + (r.inverse() * w).length
            l = g.min_coset_rep(w, J, "left")
            assert w.length == l.length + (w * l.inverse()).length


@pytest.mark.parametrize("label", ["A2", "B2", "A3"])
def test_coset_minimality_exhaustive(group_of, label):
    report = check_coset_minimality(group_of(label))
    assert report.passed, report.failures


def test_min_coset_reps_examples(group_of):
    g = group_of("A2")
    assert g.min_coset_reps(set(), "right") == tuple(g.elements)
    wj = [word_str(w) for w in g.min_coset_reps({1}, "right")]
    assert wj == ["e", "2", "1,2"]
    jw = [word_str(w) for w in g.min_coset_reps({1}, "left")]
    assert jw == ["e", "2", "2,1"]
    assert len(g.min_coset_reps({1}, "right")) == g.order // 2


def test_double_coset_rep_examples(group_of):
    g = group_of("A2")
    w0 = g.from_word([1, 2, 1])
    # W_{1} w0 W_{1} = {w0, s2 s1, s1 s2, s2}: minimal is s2
    assert g.double_coset_rep(w0, {1}, {1}) == g.from_word([2])
    for w in g.elements:
        assert g.double_coset_rep(w, set(), set()) == w
    for w in g.min_double_coset_reps({1}, {2}):
        assert g.double_coset_rep(w, {1}, {2}) == w


def test_double_coset_rep_is_unique_minimum(group_of):
    g = group_of("B2")
    for J in subsets_of(g.simple_indices):
        wj = g.parabolic_elements(J)
        for K in subsets_of(g.simple_indices):
            wk = g.parabolic_elements(K)
            for w in g.elements:
                rep = g.double_coset_rep(w, J, K)
                coset = {a * w * b for a in wj for b in wk}
                assert rep in coset
                low = min(e.length for e in coset)
                assert [e for e in coset if e.length == low] == [rep]


@pytest.mark.parametrize("label", ["A2", "A3", "B3"])
def test_length_additivity_on_coset_split(group_of, label):
    report = check_length_additivity(group_of(label))
    assert report.passed, report.failures


@pytest.mark.parametrize("label", ["A3", "B3"])
def test_length_subadditive_with_reduced_concatenation(group_of, label):
    g = group_of(label)
    for u in g.elements:
        for v in g.elements:
            lw = (u * v).length
            assert lw <= u.length + v.length
            concat_reduced = g.from_word(u.word + v.word).length == len(u.word) + len(v.word)
            assert (lw == u.length + v.length) == concat_reduced


def test_parabolic_elements(group_of):
    g = group_of("A3")
    assert g.parabolic_elements(set()) == (g.identity,)
    assert len(g.parabolic_elements({1, 2})) == 6
    assert len(g.parabolic_elements({1, 3})) == 4
    for x in g.parabolic_elements({1, 3}):
        assert set(x.word) <= {1, 3}


@pytest.mark.parametrize("label", sorted({label for label, _ in SCOPE}))
def test_parabolic_tree_is_a_prefix_tree(group_of, label):
    # one entry per x in W_J, in parabolic_elements order: the position of
    # s_f x and f, the smallest left descent of x, which lies in J
    g = group_of(label)
    for J in subsets_of(g.simple_indices):
        wj = g.parabolic_elements(J)
        assert list(wj) == [w for w in g.elements if set(w.word) <= J]
        tree = g._parabolic_tree(J)
        assert len(tree) == len(wj)
        assert tree[0] == (0, 0)
        for k, ((p, f), x) in enumerate(zip(tree[1:], wj[1:]), 1):
            descents = [i for i in g.simple_indices if (g.from_word([i]) * x).length < x.length]
            assert f == min(descents) and f in J
            assert p < k and wj[p] == g.from_word([f]) * x
        assert g._sweep(J, 0, left=g._lmul) == [x.index for x in wj]


@pytest.mark.parametrize("label", ["A3", "B3", "D4"])
def test_parabolic_sweeps_match_products(group_of, label):
    # x y and y x^-1 for every x in W_J, against the word-walking product
    g = group_of(label)
    for J in subsets_of(g.simple_indices):
        wj = g.parabolic_elements(J)
        inverses = [x.inverse() for x in wj]
        for y in g.elements:
            assert g._sweep(J, y.index, left=g._lmul) == [(x * y).index for x in wj]
            assert g._sweep(J, y.index, right=g._rmul) == [(y * xi).index for xi in inverses]


def parse_word(g, text):
    # how the CLI reads --w
    return g.from_word(parse_letters(g.rank, text))


def test_word_round_trip(group_of):
    g = group_of("A3")
    for w in g.elements:
        assert parse_word(g, word_str(w)) == w


def test_parse_word_canonicalizes_non_reduced(group_of):
    g = group_of("A2")
    assert parse_word(g, "1,1") == g.identity
    assert parse_word(g, "2,1,2") == g.from_word([1, 2, 1])
    assert parse_word(g, "e") == g.identity


def test_parse_word_rejects_garbage(group_of):
    g = group_of("A2")
    with pytest.raises(ValueError):
        parse_word(g, "1,x")
    with pytest.raises(ValueError):
        parse_word(g, "3")


def test_parse_subset(group_of):
    g = group_of("A3")
    assert fp.parse_subset(g.rank, "") == frozenset()
    assert fp.parse_subset(g.rank, "1,3") == frozenset({1, 3})
    with pytest.raises(ValueError):
        fp.parse_subset(g.rank, "0")
    with pytest.raises(ValueError):
        fp.parse_subset(g.rank, "1,1")


def test_deterministic_element_order(group_of):
    g = group_of("B2")
    keys = [(e.length, e.word) for e in g.elements]
    assert keys == sorted(keys)
    rebuilt = weyl_group("B2")
    assert [e.word for e in rebuilt.elements] == [e.word for e in g.elements]


@pytest.mark.parametrize("label", sorted({label for label, _ in SCOPE} | {"F4"}))
def test_tables_match_permutation_composition(group_of, label):
    # root permutations are an independent witness for the multiplication tables
    g = group_of(label)
    perms = {w: root_perm(w) for w in g.elements}
    by_perm = {p: w.index for w, p in perms.items()}
    for i in g.simple_indices:
        s = g.root_system.simple_reflection_table[i - 1]
        assert perms[g.from_word([i])] == s
        for w, p in perms.items():
            assert g._lmul[i][w.index] == by_perm[tuple(s[r] for r in p)]
            assert g._rmul[i][w.index] == by_perm[tuple(p[r] for r in s)]
    w0 = g.elements[g.order - 1]
    for w, p in perms.items():
        assert w * w.inverse() == g.identity
        assert w.inverse() * w == g.identity
        assert perms[w * w0] == tuple(p[r] for r in perms[w0])


@pytest.mark.parametrize("label", sorted({label for label, _ in SCOPE} | {"F4"}))
def test_root_queries_match_permutation(group_of, label):
    # root images, descents, coset minimality and reflections against the
    # root permutation composed along each reduced word
    g = group_of(label)
    rs = g.root_system
    n_roots = len(rs.roots)
    simple = [rs.simple_root_index(i) for i in g.simple_indices]
    for w in g.elements:
        p = root_perm(w)
        inv = [0] * n_roots
        for r, img in enumerate(p):
            inv[img] = r
        assert tuple(w.root_image(r) for r in range(n_roots)) == p
        for i, sr in zip(g.simple_indices, simple):
            assert g.is_min_left_rep(w, {i}) == rs.is_positive_index(p[sr])
            assert g.is_min_right_rep(w, {i}) == rs.is_positive_index(inv[sr])
    # t_beta(alpha_r) = alpha_r - <alpha_r, beta^vee> beta
    by_perm = {root_perm(w): w for w in g.elements}
    expected = []
    for b in range(rs.n_positive):
        cb = rs.roots[b].coords
        perm = []
        for r in range(n_roots):
            pairing = rs.coroot_pairing(r, b)
            perm.append(rs.index[tuple(x - pairing * y for x, y in zip(rs.roots[r].coords, cb))])
        expected.append(by_perm[tuple(perm)])
    assert g.reflections == tuple(expected)


def _reference_tables(rs):
    """The group tables by the earlier construction: breadth-first search
    keyed on w(2 rho) in simple-root coordinates, reduced words by the
    smallest left descent, inverses by walking each word, then a sort into
    (length, word) order. Returns words, lengths, left and right tables
    (0-based simple index) and the inverse index."""
    rank, a = rs.rank, rs.datum.cartan_matrix
    rho2 = tuple(map(sum, zip(*(r.coords for r in rs.roots[: rs.n_positive]))))
    ids, keys, depth = {rho2: 0}, [rho2], [0]
    left = [[] for _ in range(rank)]
    for k, c in enumerate(keys):
        for i, row in enumerate(a):
            q = list(c)
            q[i] -= sum(map(mul, row, c))
            q = tuple(q)
            j = ids.get(q)
            if j is None:
                j = ids[q] = len(keys)
                keys.append(q)
                depth.append(depth[k] + 1)
            left[i].append(j)
    n = len(keys)
    words = [()] * n
    for k in range(1, n):
        for i in range(rank):
            u = left[i][k]
            if depth[u] < depth[k]:
                words[k] = (i + 1,) + words[u]
                break
    inverse = []
    for word in words:
        x = 0
        for i in word:
            x = left[i - 1][x]
        inverse.append(x)
    order = sorted(range(n), key=lambda k: (depth[k], words[k]))
    new = [0] * n
    for idx, k in enumerate(order):
        new[k] = idx
    inv = [new[inverse[k]] for k in order]
    lmul = [[new[table[k]] for k in order] for table in left]
    rmul = [[inv[lm[inv[w]]] for w in range(n)] for lm in lmul]
    return [words[k] for k in order], [depth[k] for k in order], lmul, rmul, inv


@pytest.mark.parametrize(
    "label", sorted({label for label, _ in SCOPE} | {"F4", "B5", "D5", "E6"})
)
def test_tables_match_reference_construction(label):
    g = weyl_group(label)
    words, lengths, lmul, rmul, inv = _reference_tables(g.root_system)
    assert [e.word for e in g.elements] == words
    assert [e.length for e in g.elements] == lengths
    assert [e.index for e in g.elements] == list(range(g.order))
    assert g._lmul[1:] == tuple(array("I", t) for t in lmul)
    assert g._rmul[1:] == tuple(array("I", t) for t in rmul)
    assert g._inverse_index == array("I", inv)


@pytest.mark.parametrize("label", sorted({label for label, _ in SCOPE}))
def test_parabolic_tables_match_the_group(group_of, label):
    # the right and inverse tables of W_J from its own level search, mapped
    # to the group's indices by reduced words; letters off J have no table
    g = group_of(label)
    rs = g.root_system
    for J in subsets_of(g.simple_indices):
        left, length, first = _level_search(rs, [1] * g.rank, sorted(J), rs.parabolic_order(J))
        inv, right = _inverse_and_right(left, length, first)
        words = [()]
        for u in range(1, len(length)):
            words.append((first[u],) + words[left[first[u]][u]])
        pos = [g.from_word(word).index for word in words]
        assert [g.elements[x].word for x in pos] == words
        assert [pos[v] for v in inv] == [g._inverse_index[x] for x in pos]
        assert right[0] == array("I")
        for i in g.simple_indices:
            if i in J:
                assert [pos[v] for v in right[i]] == [g._rmul[i][x] for x in pos]
            else:
                assert right[i] == array("I")


def _searches(rs):
    """Every level search the package runs on rs, with its exact size: the
    group, and per J its parabolic subgroup W_J and its labels W^J."""
    order = rs.datum.weyl_group_order
    yield [1] * rs.rank, range(1, rs.rank + 1), order
    for J in subsets_of(range(1, rs.rank + 1)):
        size = rs.parabolic_order(J)
        yield [1] * rs.rank, sorted(J), size
        yield [int(i not in J) for i in range(1, rs.rank + 1)], range(1, rs.rank + 1), order // size


@pytest.mark.parametrize("label", sorted({label for label, _ in SCOPE} | {"F4", "D5"}))
def test_level_search_first_letters_ascend_within_a_level(label):
    # _inverse_and_right gathers one run per level and first letter, so
    # first must not decrease within a level
    rs = fp.build_root_system(fp.CartanDatum.from_label(label))
    for start, letters, size in _searches(rs):
        left, length, first = _level_search(rs, start, letters, size)
        assert len(length) == size
        assert all(len(left[i]) == size for i in letters)
        assert all(
            f <= f2 for f, f2, l, l2 in zip(first[1:], first[2:], length[1:], length[2:]) if l == l2
        )


@pytest.mark.parametrize("label", ["A3", "B3", "D4", "G2"])
def test_level_search_refuses_a_wrong_size(label):
    # the size is exact: one point short fails on a left table (a one-point
    # orbit writes none, and fails on the count), one spare slot fails
    # naming both counts
    rs = fp.build_root_system(fp.CartanDatum.from_label(label))
    for start, letters, size in _searches(rs):
        with pytest.raises(IndexError if size > 1 else ValueError):
            _level_search(rs, start, letters, size - 1)
        with pytest.raises(ValueError, match=f"has {size} points.* sized for {size + 1}"):
            _level_search(rs, start, letters, size + 1)


@pytest.mark.parametrize("label", sorted({label for label, _ in SCOPE} | {"F4"}))
def test_min_coset_reps_match_full_scan(group_of, label):
    g = group_of(label)
    for J in subsets_of(g.simple_indices):
        assert g.min_coset_reps(J, "right") == tuple(
            e for e in g.elements if g.is_min_left_rep(e, J)
        )
        assert g.min_coset_reps(J, "left") == tuple(
            e for e in g.elements if g.is_min_right_rep(e, J)
        )


@pytest.mark.parametrize("label", sorted({label for label, _ in SCOPE}))
def test_min_double_coset_reps_match_full_scan(group_of, label):
    g = group_of(label)
    for J in subsets_of(g.simple_indices):
        for K in subsets_of(g.simple_indices):
            assert g.min_double_coset_reps(J, K) == tuple(
                e
                for e in g.elements
                if g.is_min_right_rep(e, J) and g.is_min_left_rep(e, K)
            )


def test_min_coset_reps_rejects_unknown_side(group_of):
    with pytest.raises(ValueError, match="side must be"):
        group_of("A2").min_coset_reps({1}, "up")


def test_min_coset_reps_memo_keys_subset_as_a_set(group_of):
    g = group_of("A3")
    for side in ("right", "left"):
        first = g.min_coset_reps({1, 2}, side)
        assert g.min_coset_reps([2, 1], side) is first
        assert g.min_coset_reps(frozenset({1, 2}), side) is first
    assert g.min_coset_reps({1, 2}, "left") is not g.min_coset_reps({1, 2}, "right")


def test_memo_takes_the_subset_by_keyword(group_of):
    g = group_of("A2")
    rs = g.root_system
    assert g.parabolic_elements(subset={1}) is g.parabolic_elements({1})
    assert g.min_coset_reps(subset=[2, 1]) is g.min_coset_reps({1, 2})
    assert rs.parabolic_root_indices(subset={2}) is rs.parabolic_root_indices({2})
    with pytest.raises(TypeError, match="missing argument 'subset'"):
        g.parabolic_elements()


def test_min_coset_reps_memo_stores_no_failed_call(group_of):
    g = group_of("A2")
    before = dict(g._memo)
    for _ in range(2):
        with pytest.raises(ValueError, match="side must be"):
            g.min_coset_reps({1}, "up")
    assert g._memo == before


@pytest.mark.parametrize("off", [1, -1])
def test_wrong_parabolic_order_raises_and_stores_nothing(monkeypatch, off):
    # the W_J and W^J searches are sized from |W_J| in closed form; one more
    # or one less makes them raise, and no memo keeps a result. For these J
    # of A3 the size of W^J, |W| // |W_J|, moves with |W_J| too
    g = weyl_group("A3")
    closed_form = fp.RootSystem.parabolic_order
    monkeypatch.setattr(fp.RootSystem, "parabolic_order", lambda rs, J: closed_form(rs, J) + off)
    for J in ({1}, {1, 3}):
        for side in ("right", "left"):
            with pytest.raises((ValueError, IndexError)):
                g.min_coset_reps(J, side)
        with pytest.raises((ValueError, IndexError)):
            g._parabolic_tree(J)
        with pytest.raises((ValueError, IndexError)):
            g.parabolic_elements(J)
    assert g._memo == {}


@pytest.mark.parametrize("label", ["A3", "B4", "C3", "D4", "F4", "G2", "D5", "E6"])
def test_parabolic_order_is_the_closed_form(group_of, label):
    # |W_J| from the heights of the positive roots of Phi_J sizes the W_J
    # search of `pieces` at once
    g = group_of(label)
    rs = g.root_system
    for J in subsets_of(g.simple_indices):
        assert rs.parabolic_order(J) == len(g.parabolic_elements(J)), sorted(J)
    assert rs.parabolic_order(g.simple_indices) == rs.datum.weyl_group_order


def test_parabolic_order_on_e8():
    rs = fp.root_system("E8")
    assert rs.parabolic_order(range(1, 8)) == 2_903_040  # E7
    assert rs.parabolic_order(range(1, 9)) == 696_729_600
    assert rs.parabolic_order({1, 3, 5}) == 12  # A2 x A1
