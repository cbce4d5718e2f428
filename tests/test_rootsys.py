import itertools
from fractions import Fraction

import pytest

from flagpieces import rootsys
from flagpieces.oracle import positive_roots_oracle
from flagpieces.rootsys import (
    CartanDatum,
    CartanError,
    build_root_system,
    root_system,
    standard_cartan_matrix,
)
from flagpieces.pairs import _weight_field

SUPPORTED = [
    "A1", "A2", "A3", "A4", "A5",
    "B2", "B3", "B4",
    "C2", "C3", "C4",
    "D3", "D4", "D5",
    "E6", "E7", "E8",
    "F4", "G2",
]


def test_a1_counts():
    rs = root_system("A1")
    assert rs.n_positive == 1
    assert len(rs.roots) == 2
    assert rs.roots[0].coords == (1,)
    assert rs.roots[1].coords == (-1,)


def test_a2_positive_roots_exact():
    # closure of {a1, a2} under s1, s2 by hand: a1, a2, a1+a2
    rs = root_system("A2")
    assert rs.n_positive == 3
    positives = {rs.roots[k].coords for k in range(3)}
    assert positives == {(1, 0), (0, 1), (1, 1)}


def test_g2_counts():
    rs = root_system("G2")
    assert rs.n_positive == 6
    assert len(rs.roots) == 12


def test_negation_is_index_shift():
    for label in ("A3", "B2", "G2"):
        rs = root_system(label)
        n = rs.n_positive
        for r in range(2 * n):
            assert rs.roots[rs.neg_index(r)] == -rs.roots[r]
            assert rs.neg_index(rs.neg_index(r)) == r


def test_reflect_simple_to_its_negative():
    rs = root_system("A2")
    i1 = rs.simple_root_index(1)
    assert rs.reflect(1, i1) == rs.neg_index(i1)


def test_reflect_a2_examples():
    rs = root_system("A2")
    i1, i2 = rs.simple_root_index(1), rs.simple_root_index(2)
    i12 = rs.index[(1, 1)]
    # s1(a2) = a1 + a2 (Cartan matrix row), s2(a1+a2) = a1
    assert rs.reflect(1, i2) == i12
    assert rs.reflect(2, i12) == i1


@pytest.mark.parametrize("label", SUPPORTED)
def test_reflections_are_involutive(label):
    rs = root_system(label)
    for i in rs.simple_indices:
        for r in range(len(rs.roots)):
            assert rs.reflect(i, rs.reflect(i, r)) == r


@pytest.mark.parametrize("label", SUPPORTED)
def test_roots_uniformly_signed(label):
    rs = root_system(label)
    for root in rs.roots:
        assert all(c >= 0 for c in root.coords) or all(c <= 0 for c in root.coords)


@pytest.mark.parametrize("label", SUPPORTED)
def test_positive_roots_match_string_oracle(label):
    rs = root_system(label)
    expected = positive_roots_oracle(rs.datum)
    got = {rs.roots[k].coords for k in range(rs.n_positive)}
    assert got == expected


def test_coroot_pairing_diagonal_is_two():
    for label in ("A2", "B3", "G2"):
        rs = root_system(label)
        for r in range(len(rs.roots)):
            assert rs.coroot_pairing(r, r) == 2


def test_coroot_pairing_a2():
    rs = root_system("A2")
    i1, i2 = rs.simple_root_index(1), rs.simple_root_index(2)
    assert rs.coroot_pairing(i1, i2) == -1


def test_coroot_pairing_g2_asymmetric():
    rs = root_system("G2")
    i1, i2 = rs.simple_root_index(1), rs.simple_root_index(2)
    # alpha_1 short, alpha_2 long
    assert {rs.coroot_pairing(i1, i2), rs.coroot_pairing(i2, i1)} == {-1, -3}


def test_index_errors():
    rs = root_system("A2")
    with pytest.raises(IndexError):
        rs.reflect(3, 0)
    with pytest.raises(IndexError):
        rs.reflect(1, 99)


@pytest.mark.parametrize(
    "family,rank", [("B", 1), ("C", 1), ("D", 2), ("E", 5), ("E", 9), ("F", 3), ("G", 4)]
)
def test_rank_bounds_rejected(family, rank):
    with pytest.raises(CartanError, match="out of range"):
        CartanDatum.from_family(family, rank)


def test_unknown_family_rejected():
    with pytest.raises(CartanError, match="unsupported family"):
        CartanDatum.from_family("H", 3)


def test_bad_label_rejected():
    with pytest.raises(CartanError, match="cannot parse"):
        CartanDatum.from_label("X9")


def test_affine_matrix_rejected_as_non_finite_type():
    with pytest.raises(CartanError, match="not of finite type"):
        CartanDatum("A", 2, ((2, -2), (-2, 2)))


def test_mislabeled_matrix_rejected():
    with pytest.raises(CartanError, match="Bourbaki matrix"):
        CartanDatum("A", 2, standard_cartan_matrix("B", 2))


def test_positive_offdiagonal_rejected():
    with pytest.raises(CartanError, match="<= 0"):
        CartanDatum("A", 2, ((2, 1), (1, 2)))


def test_asymmetric_zero_pattern_rejected():
    with pytest.raises(CartanError, match="zero pattern"):
        CartanDatum("A", 2, ((2, 0), (-1, 2)))


def test_bad_diagonal_rejected():
    with pytest.raises(CartanError, match="diagonal"):
        CartanDatum("A", 2, ((1, -1), (-1, 2)))


def test_disconnected_rejected():
    with pytest.raises(CartanError, match="connected"):
        CartanDatum("D", 4, tuple(
            tuple(2 if i == j else 0 for j in range(4)) for i in range(4)
        ))


def test_parabolic_root_indices():
    rs = root_system("A2")
    phi1 = rs.parabolic_root_indices({1})
    assert {rs.roots[k].coords for k in phi1} == {(1, 0), (-1, 0)}
    assert rs.parabolic_root_indices(set()) == frozenset()
    assert len(rs.parabolic_root_indices({1, 2})) == 6


def _scan(rs, subset, positive_only):
    return frozenset(
        k
        for k, root in enumerate(rs.roots)
        if (not positive_only or sum(root.coords) > 0)
        and all(c == 0 or i + 1 in subset for i, c in enumerate(root.coords))
    )


class _CountingRoots(tuple):
    """The roots tuple, counting how often it is iterated (one count per scan)."""

    scans = 0

    def __iter__(self):
        type(self).scans += 1
        return super().__iter__()


def test_parabolic_root_indices_scans_each_key_once(monkeypatch):
    rs = root_system("B3")
    monkeypatch.setattr(_CountingRoots, "scans", 0)
    rs.roots = _CountingRoots(rs.roots)
    for positive_only in (False, True):
        expected = _scan(rs, {1, 2}, positive_only)
        before = _CountingRoots.scans
        found = {
            rs.parabolic_root_indices(arg, positive_only=positive_only)
            for arg in ([1, 2], {1, 2}, frozenset({1, 2}), range(1, 3), (2, 1))
        }
        assert _CountingRoots.scans == before + 1
        assert found == {expected}
    # a second root system keeps its own memo
    assert root_system("B3").parabolic_root_indices({1, 2}) == _scan(rs, {1, 2}, False)


@pytest.mark.parametrize("label", ["A3", "B3", "G2", "F4"])
def test_parabolic_root_indices_match_scan(label):
    rs = root_system(label)
    for mask in range(1 << rs.rank):
        subset = {i + 1 for i in range(rs.rank) if mask >> i & 1}
        both = rs.parabolic_root_indices(subset)
        pos = rs.parabolic_root_indices(subset, positive_only=True)
        assert both == _scan(rs, subset, False)
        assert pos == _scan(rs, subset, True)
        assert len(both) == 2 * len(pos)
        assert (pos != both) == bool(subset)


@pytest.mark.parametrize("label", SUPPORTED + ["B8", "C8", "D8"])
def test_weight_keys_fit_their_packed_fields(label):
    # the group table keys w by <w(rho), alpha_j^vee> = <rho, beta^vee> for
    # the root beta = w^-1(alpha_j); a value outside its field would carry
    # into the next one and merge keys. The label search keys by a sum of
    # fewer fundamental weights, whose pairings are bounded by rho's.
    rs = root_system(label)
    b = rs.datum.bilinear
    rank = rs.rank

    def form(x, y):
        return sum(x[i] * b[i][j] * y[j] for i in range(rank) for j in range(rank))

    rho2 = [sum(r.coords[i] for r in rs.roots[: rs.n_positive]) for i in range(rank)]
    pairings = [form(rho2, r.coords) / form(r.coords, r.coords) for r in rs.roots]
    assert all(p.denominator == 1 for p in pairings)
    width, offset = _weight_field(rs)
    # the offset is the largest pairing, the height of the highest coroot
    assert max(abs(p) for p in pairings) == offset
    assert 2 * offset < 1 << width


# -- integer validation ------------------------------------------------------

BOURBAKI = (
    [f"A{n}" for n in range(1, 9)]
    + [f"{f}{n}" for f in "BC" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("label", BOURBAKI)
def test_every_bourbaki_matrix_is_accepted(label):
    family, rank = label[0], int(label[1:])
    datum = CartanDatum(family, rank, standard_cartan_matrix(family, rank))
    assert datum == CartanDatum.from_label(label)
    assert hash(datum) == hash(CartanDatum.from_label(label))
    d, b = datum.symmetrizer, datum.bilinear
    assert min(d) == 1 and all(x > 0 for x in d)
    assert all(b[i][j] == b[j][i] for i in range(rank) for j in range(rank))


@pytest.mark.parametrize(
    "family,matrix,message",
    [
        # a 3-cycle whose bond ratios do not close up: d_2 = d_1 / 2 from
        # the bond 1-2, but d_2 = d_3 = d_1 through node 3
        ("A", ((2, -1, -1), (-2, 2, -1), (-1, -1, 2)), "not symmetrizable"),
        # affine A2~: the 3-cycle of simple bonds, determinant 0
        ("A", ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)), "not of finite type"),
        # affine D4~: one node bonded to four, determinant 0
        (
            "D",
            ((2, -1, -1, -1, -1), (-1, 2, 0, 0, 0), (-1, 0, 2, 0, 0), (-1, 0, 0, 2, 0), (-1, 0, 0, 0, 2)),
            "not of finite type",
        ),
    ],
)
def test_non_finite_matrices_refused(family, matrix, message):
    with pytest.raises(CartanError, match=message):
        CartanDatum(family, len(matrix), matrix)


def _fraction_verdict(a):
    """The rational symmetrizer (normalized to min 1) and finite-type verdict
    by Gaussian elimination over Fraction: the reference for the integer
    validation."""
    rank = len(a)
    d = [None] * rank
    d[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(rank):
            if i != j and a[i][j] != 0 and d[j] is None:
                d[j] = d[i] * a[i][j] / a[j][i]
                stack.append(j)
    d = [x / min(d) for x in d]
    m = [[d[i] * a[i][j] for j in range(rank)] for i in range(rank)]
    if any(m[i][j] != m[j][i] for i in range(rank) for j in range(rank)):
        return d, "not symmetrizable"
    for k in range(rank):
        if m[k][k] <= 0:
            return d, "not of finite type"
        for i in range(k + 1, rank):
            f = m[i][k] / m[k][k]
            for j in range(k, rank):
                m[i][j] -= f * m[k][j]
    return d, "finite"


def test_integer_validation_matches_fraction_elimination():
    # every connected 3x3 generalized Cartan matrix with off-diagonal entries
    # in {0, -1, -2, -3}; a finite-type matrix that is not A3's Bourbaki
    # matrix is refused by the label check, after the finite-type test
    verdicts = {}
    for a12, a13, a21, a23, a31, a32 in itertools.product((0, -1, -2, -3), repeat=6):
        a = ((2, a12, a13), (a21, 2, a23), (a31, a32, 2))
        if any((a[i][j] == 0) != (a[j][i] == 0) for i in range(3) for j in range(3)):
            continue
        if sum(a[i][j] != 0 for i in range(3) for j in range(i)) < 2:
            continue  # disconnected
        d, expected = _fraction_verdict(a)
        try:
            CartanDatum("A", 3, a)
            got = "finite"
        except CartanError as exc:
            got = "finite" if "Bourbaki" in str(exc) else str(exc)
        assert expected in got, a
        if expected != "not symmetrizable":
            ints = rootsys._symmetrizer(a)
            assert [Fraction(x, min(ints)) for x in ints] == d, a
        verdicts[expected] = verdicts.get(expected, 0) + 1
    assert set(verdicts) == {"finite", "not symmetrizable", "not of finite type"}
    # A3 on a path of 3 nodes (3 choices of middle node); B3 or C3 with the
    # double bond at either end (3 * 2 * 2): no 3-cycle is of finite type
    assert verdicts["finite"] == 15
