import hashlib
from fractions import Fraction

import pytest

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
        CartanDatum(family, rank)


def test_unknown_family_rejected():
    with pytest.raises(CartanError, match="unsupported family"):
        CartanDatum("H", 3)


@pytest.mark.parametrize("rank", [0, -1])
def test_nonpositive_rank_rejected(rank):
    with pytest.raises(CartanError, match="positive integer"):
        CartanDatum("A", rank)


def test_bad_label_rejected():
    with pytest.raises(CartanError, match="cannot parse"):
        CartanDatum.from_label("X9")


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


# -- the datum of each Bourbaki label ------------------------------------------

BOURBAKI = (
    [f"A{n}" for n in range(1, 9)]
    + [f"{f}{n}" for f in "BC" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)

# sha256 (first 16 hex digits) of `_datum_values`: the symmetrizer, the
# bilinear form and a grid of coroot pairings, as recorded when a datum still
# took its matrix as an argument. The repr prints a Fraction as Fraction(p, q),
# so a change of value or of type changes the digest.
DATUM_DIGESTS = {
    "A1": "c62731c9d5f9187e",
    "A2": "24b38cab6e994fc9",
    "A3": "5d684b801d63e05b",
    "A4": "ff5daa7c4d0fb2ed",
    "A5": "0fc08b1460e98a5d",
    "A6": "b2a779da9b2b036d",
    "A7": "91c5bdb73ea79433",
    "A8": "0be6c07fac67e976",
    "B2": "44d0638641554a98",
    "B3": "58e98780c62a6cf0",
    "B4": "875ed054e122275c",
    "B5": "58508690acc446d7",
    "B6": "242d03dbe4e842af",
    "B7": "4f8462891c936ae1",
    "B8": "723a74df20a6a2f8",
    "C2": "47c379b19a6a73c7",
    "C3": "75f4dacf71303384",
    "C4": "927b1983923e2d3b",
    "C5": "647829283b4dff37",
    "C6": "d657bae168bd9135",
    "C7": "6a94f2169150e5b1",
    "C8": "28a6f56b005033bd",
    "D3": "71fba6b1015069b0",
    "D4": "24da1a44d70ed806",
    "D5": "54622df6df79825f",
    "D6": "55370ac51368b123",
    "D7": "4381ff23f1fb2b81",
    "D8": "be93bbf8c468b88c",
    "E6": "ea08aff7f122fe8a",
    "E7": "02ff1ab319d04d19",
    "E8": "0529070c0800ed2e",
    "F4": "b482233564121d68",
    "G2": "2b807c26aaea0973",
}


def _datum_values(datum: CartanDatum) -> str:
    rs = build_root_system(datum)
    n = len(rs.roots)
    step = max(1, n // 12)
    pairings = [
        rs.coroot_pairing(r, s) for r in range(0, n, step) for s in range(step // 2, n, step)
    ]
    return repr((datum.symmetrizer, datum.bilinear, pairings))


@pytest.mark.parametrize("label", BOURBAKI)
def test_every_bourbaki_matrix_is_accepted(label):
    family, rank = label[0], int(label[1:])
    datum = CartanDatum(family, rank)
    assert datum == CartanDatum.from_label(label)
    assert hash(datum) == hash(CartanDatum.from_label(label))
    d, b = datum.symmetrizer, datum.bilinear
    assert min(d) == 1 and all(x > 0 for x in d)
    assert all(b[i][j] == b[j][i] for i in range(rank) for j in range(rank))


@pytest.mark.parametrize("label", BOURBAKI)
def test_datum_values_are_pinned(label):
    family, rank = label[0], int(label[1:])
    datum = CartanDatum(family, rank)
    assert datum == CartanDatum.from_label(label)
    assert repr(datum) == f"CartanDatum(family={family!r}, rank={rank!r})"
    assert datum.cartan_matrix == standard_cartan_matrix(family, rank)
    assert all(isinstance(x, Fraction) for x in datum.symmetrizer)
    digest = hashlib.sha256(_datum_values(datum).encode()).hexdigest()[:16]
    assert digest == DATUM_DIGESTS[label]
