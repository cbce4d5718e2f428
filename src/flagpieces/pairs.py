"""The table-free engine: weight orbits searched level by level, and the
pieces computed on pairs (y, x) with y in W^J and x in W_J.

Nothing here builds a group table: the `pieces` command loads this module,
`rootsys` and the CLI, and no other. `_level_search` enumerates the orbit of a
dominant weight under some simple reflections, sized from its closed-form
count and run once per root system: the orbit of rho gives W or W_J, that of
lambda_J gives W^J, for the group table (`weyl.WeylGroup`) and the pair engine
alike. `_inverse_and_right` derives the inverses and right tables from the
left ones. The bit kernels read and pack whole rows of bits in C-level
calls, for `pieces.closure_poset` and the oracle. `_piece_rows` gives the
pieces that every command prints, and `verify` checks.
"""

from __future__ import annotations

import operator
from array import array
from bisect import bisect_right
from typing import NamedTuple

from .rootsys import DiagramAutomorphism, RootSystem, _stable_closure, _stable_part, memoized


def _weight_field(root_system: RootSystem) -> tuple[int, int]:
    """Bit width and offset of one packed weight coordinate.

    A key coordinate <w(lambda), alpha_j^vee> equals <lambda, beta^vee> for the
    root beta = w^-1(alpha_j). For lambda = rho, or any sum of distinct
    fundamental weights, its absolute value is at most the height of the
    highest coroot, h - 1 = 2N/n - 1 (Coxeter number h, N positive roots,
    rank n), so it is stored plus h - 1 in 0..2(h - 1)."""
    top = 2 * root_system.n_positive // root_system.rank - 1
    return (2 * top).bit_length(), top


# entry of a left table where s_i fixes the searched weight (see _sized_search)
_FIXED = 0xFFFFFFFF


@memoized
def _level_search(root_system: RootSystem, letters, support: frozenset):
    """`_sized_search` of the weight lambda = sum of omega_j, j in support,
    under W_letters, run once per root system and kept in its `_memo`: the
    group table and the pair engine share it, and no caller writes into it.
    The stabilizer of lambda in W_letters is W_(letters - support), which
    gives the orbit size in closed form (`RootSystem.parabolic_order`)."""
    order, stabilizer = root_system.parabolic_order, letters - support
    size = order(letters) // order(stabilizer) if stabilizer else order(letters)
    return _sized_search(root_system, sorted(letters), support, size)


def _sized_search(root_system: RootSystem, letters, support, capacity: int):
    """Breadth-first search of the orbit of lambda = sum of omega_j, j in
    support, under the simple reflections s_i, i in letters (increasing), one
    length level at a time.

    An orbit point mu = w(lambda) stands for the shortest such w; it is keyed
    by its coordinates mu_j = <mu, alpha_j^vee>, each stored plus the offset
    in its own field of one int (`_weight_field`). s_i subtracts mu_i alpha_i,
    i.e. mu_i times column i of the Cartan matrix, and l(s_i w) > l(w) iff
    mu_i > 0. With i as the outer loop and the level, in order, as the inner
    one, each point is first reached from the smallest left descent i of its
    w, so numbering by discovery gives the (length, lexicographically
    smallest reduced word) order and that word is (i,) + word(s_i w).

    Returns (left, length, first): left[i][u] is the index of s_i u for i in
    letters, or _FIXED where mu_i = 0 and s_i fixes the point (the other
    slots of left, 0 included, are empty); length[u] and first[u] are the
    length and smallest left descent of w (first[0] = 0). capacity is the
    exact orbit size, and sizes every table at once. A wrong one raises:
    IndexError on a left table when the search outgrows it, ValueError naming
    both counts otherwise.
    """
    rank = root_system.rank
    a = root_system.datum.cartan_matrix
    width, offset = _weight_field(root_system)
    field = (1 << width) - 1
    shifts = [width * j for j in range(rank)]
    left = [array("I") for _ in range(rank + 1)]
    for i in letters:
        left[i] = array("I", [_FIXED]) * capacity
    length, first = array("B", [0]) * capacity, array("B", [0]) * capacity
    n = 1
    columns = {i: sum(a[j][i - 1] << s for j, s in enumerate(shifts)) for i in letters}
    level = [sum((int(j in support) + offset) << s for j, s in enumerate(shifts, 1))]
    base = 0  # index of level[0]
    depth = 1  # length of the points found from level
    while level:
        ids: dict[int, int] = {}
        for i in letters:
            column, shift, li, new = columns[i], shifts[i - 1], left[i], n
            for u, key in enumerate(level, base):
                lam = (key >> shift & field) - offset
                if lam > 0:
                    q = key - lam * column
                    j = ids.get(q)
                    if j is None:
                        j = ids[q] = n
                        n += 1
                    li[u] = j
                    li[j] = u
            first[new:n] = array("B", [i]) * (n - new)
        length[n - len(ids) : n] = array("B", [depth]) * len(ids)
        base += len(level)
        level = list(ids)
        depth += 1
    if n != capacity:
        raise ValueError(f"the orbit has {n} points, but the tables were sized for {capacity}")
    return tuple(left), length, first


def _runs(length, first):
    """The runs of a search after its start, in order, as (f, a, b): points
    a..b-1 share a level and the first letter f, which orders a level, so
    their parents are left[f][a:b]; at most 2^14, to cap a gather's ints."""
    n, a = len(length), 1
    while a < n:
        f = first[a]
        b = min(bisect_right(first, f, a, bisect_right(length, length[a], a)), a + (1 << 14))
        yield f, a, b
        a = b


def _inverse_and_right(left, length, first) -> tuple[array, tuple[array, ...]]:
    """w^-1 per index and the right tables (w s_i), for the tables of a group
    or a parabolic subgroup (`_level_search` of rho); a right table is empty
    where the left one is. w = s_f v for f = first[w] and v one level down, so
    w s_i = s_f (v s_i) and w^-1 = v^-1 s_f: one gather per run (`_runs`)."""
    inv = array("I", [0]) * len(length)
    right = [array("I", lm[:1]) * len(inv) if lm else lm for lm in left]  # e s_i = s_i
    for f, a, b in _runs(length, first):
        lf, at_v = left[f], _gather(left[f][a:b])
        for rm in right:
            if rm:
                rm[a:b] = array("I", _gather(at_v(rm))(lf))
        inv[a:b] = array("I", _gather(at_v(inv))(right[f]))
    return inv, tuple(right)


# Whole-row bit kernels: a mask becomes one byte per bit, a row of bits is
# read at many positions by one itemgetter, and 0/1 flags pack back into a
# mask, each in a C-level call instead of one big-int operation per bit.
_TO_FLAGS = bytes.maketrans(b"01", b"\x00\x01")
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _bit_flags(mask: int, width: int) -> bytes:
    """Byte k is bit k of mask (0 or 1), for every k < width."""
    return format(mask, f"0{width}b").encode().translate(_TO_FLAGS)[::-1]


def _gather(positions):
    """A function giving the items of a sequence at positions, as a tuple.

    positions must not be empty; for one position, itemgetter alone would
    give the bare item."""
    get = operator.itemgetter(*positions)
    return (lambda seq: (get(seq),)) if len(positions) == 1 else get


def _pack(flags) -> int:
    """The mask with bit k set iff flags[k], for 0/1 (or bool) flags, at
    least one."""
    return int(bytes(flags)[::-1].translate(_TO_DIGITS), 2)


class _PieceRow(NamedTuple):
    """What `pieces` prints of one piece, as words (tuples of letters)."""

    word: tuple[int, ...]  # the label b in ^JW
    stabilizer_set: frozenset[int]
    orbit_min: tuple[tuple[int, ...], ...]
    irreducible: bool | None


def _piece_rows(delta: DiagramAutomorphism, J) -> tuple[_PieceRow, ...]:
    """The pieces for J, without a group table: what the `pieces` command
    prints, and, read on a table, `pieces.piece_records`.

    Every element of W is one pair (y, x) standing for y x, with y in W^J and
    x in W_J, and l(y x) = l(y) + l(x); label b is represented by
    y = b^-1, the pair (y, e). W_J is the level search of rho under the s_k,
    k in J, and W^J that of lambda_J, the sum of the fundamental weights off
    J, under every s_i, since lambda_J has stabilizer W_J
    (`_level_search`). By Deodhar's lemma (Geck-Pfeiffer, Lemma 2.1.2),
    s_i y is another element of W^J or y s_k with k in J. In the second case
    s_i fixes y(lambda_J), the search leaves the entry _FIXED, and k is read
    off the root y^-1(alpha_i) = alpha_k. So s_i (y, x) is (s_i y, x) or
    (y, s_k x), and (y, x) s_j = (y, x s_j) for j in J.

    The (i, k) pairs of y are its simple images y(alpha_k) = alpha_i, which
    give the stabilizer type. The orbit minima of y are its shift class, by
    (i) and (ii) below: its class under the length-preserving steps
    y -> s_d(j) y s_j, j in J, each two table steps.
    A word is found by stripping the smallest left descent of (y, x): that of
    y, or a smaller i of an (i, k) pair with k a left descent of x. Labels
    and minima are sorted as the group orders elements: by length, then word.

    (i) y is minimal in its twisted W_J-orbit: for x in W_J,
    l(y x^-1) = l(y) + l(x) as y is in W^J, and l(d(x)) = l(x), so
    l(d(x) y x^-1) >= l(y x^-1) - l(x) = l(y). (ii) The minima of an orbit
    that meets W^J are one shift class. This is asserted, not proved: by
    `oracle.check_strong_conjugacy`, and by `oracle.check_closure_agreement`
    against the literal orbit minima.
    """
    rs = delta.root_system
    rank, J = rs.rank, frozenset(J)
    letters = range(1, rank + 1)
    full = frozenset(letters)
    xl, xlen, xfirst = _level_search(rs, J, full)
    xr = _inverse_and_right(xl, xlen, xfirst)[1]
    yl, ylen, yfirst = _level_search(rs, full, full - J)
    # fixed[y][i] = k where s_i y = y s_k, by increasing i; a y with no such
    # i has no entry
    fixed: dict[int, dict[int, int]] = {}
    simple_of = {rs.simple_root_index(k): k for k in letters}
    reflect = rs.simple_reflection_table
    for i in letters:
        for u in [u for u, v in enumerate(yl[i]) if v == _FIXED]:
            r, v = rs.simple_root_index(i), u
            while v:  # y^-1 = (s_f y')^-1 = y'^-1 s_f
                f = yfirst[v]
                r, v = reflect[f - 1][r], yl[f][v]
            fixed.setdefault(u, {})[i] = simple_of[r]

    no_fixed: dict[int, int] = {}

    def left(i: int, y: int, x: int) -> tuple[int, int]:
        v = yl[i][y]
        if v != _FIXED:
            return v, x
        return y, xl[fixed[y][i]][x]

    def word(y: int, x: int) -> tuple[int, ...]:
        out = []
        while x:
            f = yfirst[y] if y else rank + 1
            for i, k in fixed.get(y, no_fixed).items():
                if i < f and xl[k][x] < x:
                    out.append(i)
                    x = xl[k][x]
                    break
            else:
                out.append(f)
                y = yl[f][y]
        while y:  # x = e: the smallest left descents are those of y
            f = yfirst[y]
            out.append(f)
            y = yl[f][y]
        return tuple(out)

    steps = [(delta(j), xr[j]) for j in sorted(J)]
    rows = []
    for u in range(len(ylen)):
        # the word of y_u, and the pair (y, x) of the label b = y_u^-1, one
        # left step per letter of that word (`left`, inlined)
        y_word, y, x, v = [], 0, 0, u
        while v:
            f = yfirst[v]
            y_word.append(f)
            v = yl[f][v]
            t = yl[f][y]
            if t != _FIXED:
                y = t
            else:
                x = xl[fixed[y][f]][x]
        b_word = word(y, x)
        image = dict.fromkeys(J)
        image.update((k, i) for i, k in fixed.get(u, no_fixed).items())
        found, seen = [(u, 0)], {(u, 0)}
        for y, x in found:  # found grows while it is walked
            for d, r in steps:
                z, x2 = left(d, y, x)
                z = (z, r[x2])
                if z not in seen and ylen[z[0]] + xlen[z[1]] == ylen[u]:
                    seen.add(z)
                    found.append(z)
        rows.append(
            _PieceRow(
                b_word,
                _stable_part(image, delta),
                tuple(sorted([tuple(y_word)] + [word(y, x) for y, x in found[1:]])),
                None if J == full else _stable_closure(b_word, delta) == full,
            )
        )
    rows.sort(key=lambda row: (len(row.word), row.word))
    return tuple(rows)
