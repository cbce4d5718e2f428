"""Command-line front end: pieces, poset, orbits, sequence, closure, verify.

Exit codes: 0 on success, 1 when the verify suite finds a failure, 2 on bad
configuration, when memory runs out or would (the group table, and the |W|^2
Bruhat table of `poset`, `closure` and `verify`, are refused when they exceed
physical memory), or when a verify worker process dies. All output is deterministic for a fixed
configuration. A command imports only what it runs: `pieces` only `rootsys`
and `pairs`; the others, once their arguments are checked, the group-table
modules `weyl` (`sequence` checks --w with it first) and `twist`, and
`pieces` where they read it; `oracle` only verify, and `json` only --format
json. Headers and payloads name the type by its canonical label.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import NamedTuple

from .pairs import _piece_rows
from .rootsys import (
    DEFAULT_MAX_ELEMENTS,
    AutomorphismError,
    CartanDatum,
    CartanError,
    DiagramAutomorphism,
    GroupTooLargeError,
    build_root_system,
    check_ceiling,
    format_subset,
    letters_str,
    parse_letters,
    parse_subset,
)

COMMANDS = ("pieces", "poset", "orbits", "sequence", "closure", "verify")
FORMATS = ("text", "json", "dot")


class ConfigError(Exception):
    """Bad configuration or a dead verify worker; one line, exit code 2."""


class Context(NamedTuple):
    cfg: argparse.Namespace  # the parsed command line
    delta: DiagramAutomorphism
    J: frozenset[int]
    group: WeylGroup | None  # None for pieces, which builds no group table
    tc: TwistedConjugation | None
    w: WeylElement | None

    @property
    def cartan(self) -> str:
        """The canonical type label: --cartan " A03" prints as A3."""
        return self.delta.root_system.datum.label


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="flagpieces",
        description=(
            "Combinatorics of the partition of partial flag varieties into "
            "Frobenius-stable pieces: labels, orbits, stabilizing sequences, "
            "closure posets, and a brute-force verification suite."
        ),
    )
    p.add_argument("--cartan", required=True, help="Cartan type label, e.g. A3 or D4")
    p.add_argument(
        "--delta",
        default="id",
        help="diagram automorphism: id, flip, tri, tri2, or explicit images like 2,1,3",
    )
    p.add_argument(
        "--j",
        default="",
        help="comma-separated subset of simple indices (empty or - for the full flag variety)",
    )
    p.add_argument("--w", default=None, help="word: comma-separated letters, or e")
    p.add_argument("--format", default="text", choices=FORMATS)
    p.add_argument(
        "--max-elements",
        type=int,
        default=DEFAULT_MAX_ELEMENTS,
        help="group enumeration ceiling (override for E8-scale groups)",
    )
    p.add_argument("command", choices=COMMANDS)
    return p


def _build_context(cfg: argparse.Namespace) -> Context:
    # every check that needs no group table runs before the table is built
    try:
        datum = CartanDatum.from_label(cfg.cartan)
        check_ceiling(datum, cfg.max_elements)
        rs = build_root_system(datum)
        delta = DiagramAutomorphism.from_spec(rs, cfg.delta)
        J = parse_subset(rs.rank, cfg.j)
        letters = parse_letters(rs.rank, cfg.w) if cfg.w is not None else None
    except (CartanError, AutomorphismError, GroupTooLargeError, ValueError) as exc:
        raise ConfigError(str(exc))
    if cfg.command in ("sequence", "closure") and letters is None:
        raise ConfigError(f"the {cfg.command} command requires --w")
    if cfg.format == "dot" and cfg.command != "poset":
        raise ConfigError("format 'dot' is only available for the poset command")
    if cfg.command == "sequence":
        from .weyl import is_min_left_word, reduced_word  # no group table

        if not is_min_left_word(rs, letters, J):
            raise ConfigError(
                f"precondition violated: w = {letters_str(reduced_word(rs, letters))} is not "
                f"a minimal coset representative for J = {{{format_subset(J)}}} "
                "(w must lie in W^J)"
            )
    if cfg.command == "pieces":  # enumerates W_J and ^JW, not W
        return Context(cfg, delta, J, None, None, None)
    # each table is refused before it is built when it exceeds physical memory
    need = {"group": datum.weyl_group_order * rs.rank * 4}  # 4 bytes per element and letter
    if cfg.command in ("poset", "closure", "verify"):
        need["Bruhat"] = datum.weyl_group_order**2 // 8  # |W|^2 bits
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    for table, size in need.items():
        if size > have:
            raise ConfigError(
                f"the {cfg.command} command needs the {size / 2**30:.1f} GiB {table} table "
                f"of {datum.label}, more than the {have / 2**30:.1f} GiB of physical memory"
            )
    from .twist import TwistedConjugation
    from .weyl import WeylGroup

    group = WeylGroup(rs, cfg.max_elements)
    w = group.from_word(letters) if letters is not None else None
    return Context(cfg, delta, J, group, TwistedConjugation(group, delta), w)


def _json(payload: dict) -> str:
    import json

    return json.dumps(payload, indent=2) + "\n"


def _subset_text(J) -> str:
    return format_subset(J) if J else "-"


# -- pieces -----------------------------------------------------------------


def _irr_text(flag: bool | None) -> str:
    if flag is None:
        return "n/a: J=I"
    return "yes" if flag else "no"


def cmd_pieces(ctx: Context) -> str:
    rows = _piece_rows(ctx.delta, ctx.J)
    if ctx.cfg.format == "json":
        payload = {
            "cartan": ctx.cartan,
            "delta": ctx.delta.spec,
            "J": sorted(ctx.J),
            "pieces": [
                {
                    "word": letters_str(r.word),
                    "length": len(r.word),
                    "stabilizer": sorted(r.stabilizer_set),
                    "orbit_min": [letters_str(v) for v in r.orbit_min],
                    "irreducible": r.irreducible,
                }
                for r in rows
            ],
        }
        return _json(payload)
    lines = [
        f"# cartan={ctx.cartan} delta={ctx.delta.spec} "
        f"J={_subset_text(ctx.J)} pieces={len(rows)}"
    ]
    for r in rows:
        lines.append(
            f"w={letters_str(r.word)} len={len(r.word)} "
            f"stabilizer={_subset_text(r.stabilizer_set)} "
            f"orbit_min={'|'.join(map(letters_str, r.orbit_min))} "
            f"irreducible={_irr_text(r.irreducible)}"
        )
    return "\n".join(lines) + "\n"


# -- poset -------------------------------------------------------------------


def _poset_payload(ctx: Context, poset: pieces.ClosurePoset) -> dict:
    return {
        "cartan": ctx.cartan,
        "delta": ctx.delta.spec,
        "J": sorted(ctx.J),
        "nodes": [
            {
                "id": k,
                "word": letters_str(r.index_w.word),
                "length": r.index_w.length,
                "stabilizer": sorted(r.stabilizer_set),
                "irreducible": r.irreducible,
            }
            for k, r in enumerate(poset.records)
        ],
        "hasse": [[a, b] for a, b in poset.hasse_edges],
    }


def _poset_dot(ctx: Context, poset: pieces.ClosurePoset) -> str:
    lines = [
        "digraph closure_poset {",
        "  rankdir=BT;",
        f'  label="{ctx.cartan} delta={ctx.delta.spec} J={_subset_text(ctx.J)}";',
        "  node [shape=box];",
    ]
    for k, r in enumerate(poset.records):
        lines.append(
            f'  n{k} [label="{letters_str(r.index_w.word)}\\nl={r.index_w.length} '
            f'stab={_subset_text(r.stabilizer_set)}"];'
        )
    by_rank: dict[int, list[int]] = {}
    for k, r in enumerate(poset.records):
        by_rank.setdefault(r.orbit_min[0].length, []).append(k)
    for rank_len in sorted(by_rank):
        row = "; ".join(f"n{k}" for k in by_rank[rank_len])
        lines.append(f"  {{ rank=same; {row}; }}")
    for a, b in poset.hasse_edges:
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_poset(ctx: Context) -> str:
    from . import pieces

    poset = pieces.closure_poset(ctx.tc, ctx.J)
    if ctx.cfg.format == "dot":
        return _poset_dot(ctx, poset)
    if ctx.cfg.format == "json":
        return _json(_poset_payload(ctx, poset))
    payload = _poset_payload(ctx, poset)
    lines = [
        f"# cartan={ctx.cartan} delta={ctx.delta.spec} "
        f"J={_subset_text(ctx.J)} nodes={len(payload['nodes'])}"
    ]
    for node in payload["nodes"]:
        lines.append(
            f"node {node['id']}: w={node['word']} len={node['length']} "
            f"stabilizer={format_subset(node['stabilizer']) or '-'} "
            f"irreducible={_irr_text(node['irreducible'])}"
        )
    lines.append(
        "hasse: " + " ".join(f"{a}->{b}" for a, b in poset.hasse_edges)
        if poset.hasse_edges
        else "hasse: (none)"
    )
    return "\n".join(lines) + "\n"


# -- orbits ---------------------------------------------------------------------


def cmd_orbits(ctx: Context) -> str:
    tc, J = ctx.tc, ctx.J
    orbits, _ = tc.orbit_partition(J)
    shift_classes = tc.shift_classes(J)
    class_of = {}
    for cid, cls in enumerate(shift_classes):
        for e in cls:
            class_of[e.index] = cid
    rows = []
    for orbit in orbits:
        cids = sorted({class_of[m.index] for m in orbit.members})
        parts = [
            [letters_str(e.word) for e in shift_classes[cid]]
            for cid in cids
        ]
        rows.append(
            {
                "members": [letters_str(m.word) for m in orbit.members],
                "min": [letters_str(m.word) for m in orbit.min_elements],
                "shift_classes": parts,
            }
        )
    if ctx.cfg.format == "json":
        payload = {
            "cartan": ctx.cartan,
            "delta": ctx.delta.spec,
            "J": sorted(J),
            "orbits": rows,
        }
        return _json(payload)
    lines = [
        f"# cartan={ctx.cartan} delta={ctx.delta.spec} "
        f"J={_subset_text(J)} orbits={len(rows)}"
    ]
    for k, row in enumerate(rows):
        lines.append(
            f"orbit {k}: size={len(row['members'])} min={'|'.join(row['min'])} "
            f"members={'|'.join(row['members'])} "
            f"shift_classes={' '.join('|'.join(p) for p in row['shift_classes'])}"
        )
    return "\n".join(lines) + "\n"


# -- sequence ----------------------------------------------------------------------


def cmd_sequence(ctx: Context) -> str:
    from . import pieces

    seq = pieces.sequence_for(ctx.tc, ctx.J, ctx.w)
    label = pieces.sequence_to_label(ctx.tc, seq)
    if ctx.cfg.format == "json":
        payload = {
            "cartan": ctx.cartan,
            "delta": ctx.delta.spec,
            "J": sorted(ctx.J),
            "w": letters_str(ctx.w.word),
            "steps": [
                {"J": sorted(Jn), "w": letters_str(wn.word)} for Jn, wn in seq.steps
            ],
            "stable_J": sorted(seq.stable_J),
            "stable_w": letters_str(seq.stable_w.word),
            "label": letters_str(label.word),
        }
        return _json(payload)
    lines = [
        f"# cartan={ctx.cartan} delta={ctx.delta.spec} "
        f"J={_subset_text(ctx.J)} w={letters_str(ctx.w.word)}"
    ]
    for n, (Jn, wn) in enumerate(seq.steps):
        lines.append(f"n={n} J={_subset_text(Jn)} w={letters_str(wn.word)}")
    lines.append(
        f"stable: J={_subset_text(seq.stable_J)} w={letters_str(seq.stable_w.word)} "
        f"label={letters_str(label.word)}"
    )
    return "\n".join(lines) + "\n"


# -- closure ---------------------------------------------------------------------------


def cmd_closure(ctx: Context) -> str:
    from . import pieces

    strata = pieces.piece_closure(ctx.tc, ctx.J, ctx.w)
    if ctx.cfg.format == "json":
        payload = {
            "cartan": ctx.cartan,
            "delta": ctx.delta.spec,
            "J": sorted(ctx.J),
            "w": letters_str(ctx.w.word),
            "strata": [letters_str(b.word) for b in strata],
        }
        return _json(payload)
    lines = [
        f"# cartan={ctx.cartan} delta={ctx.delta.spec} "
        f"J={_subset_text(ctx.J)} w={letters_str(ctx.w.word)} strata={len(strata)}"
    ]
    for b in strata:
        lines.append(f"stratum {letters_str(b.word)}")
    return "\n".join(lines) + "\n"


# -- verify -------------------------------------------------------------------------------


def cmd_verify(ctx: Context) -> tuple[str, int]:
    from . import oracle

    try:
        reports = oracle.run_all_checks(ctx.group, ctx.delta)
    except oracle.WorkerError as exc:
        raise ConfigError(str(exc)) from None
    ok = all(r.passed for r in reports)
    if ctx.cfg.format == "json":
        payload = {
            "cartan": ctx.cartan,
            "delta": ctx.delta.spec,
            "checks": [
                {
                    "name": r.check_name,
                    "instances": r.instances_checked,
                    "failure_count": r.failure_count,
                    "failures": [
                        {"input": d, "expected": e, "got": g} for d, e, g in r.failures
                    ],
                }
                for r in reports
            ],
            "ok": ok,
        }
        return _json(payload), 0 if ok else 1
    lines = [f"# verify cartan={ctx.cartan} delta={ctx.delta.spec}"]
    for r in reports:
        lines.append(r.summary_line())
        for d, e, g in r.failures:
            lines.append(f"  counterexample: {d}; expected {e}, got {g}")
        if r.failure_count > len(r.failures):
            lines.append(f"  ... {r.failure_count - len(r.failures)} further failures not shown")
    lines.append("verdict: " + ("all checks passed" if ok else "FAILURES FOUND"))
    return "\n".join(lines) + "\n", 0 if ok else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        cfg = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        ctx = _build_context(cfg)
        if cfg.command == "pieces":
            out, code = cmd_pieces(ctx), 0
        elif cfg.command == "poset":
            out, code = cmd_poset(ctx), 0
        elif cfg.command == "orbits":
            out, code = cmd_orbits(ctx), 0
        elif cfg.command == "sequence":
            out, code = cmd_sequence(ctx), 0
        elif cfg.command == "closure":
            out, code = cmd_closure(ctx), 0
        else:
            out, code = cmd_verify(ctx)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        label = CartanDatum.from_label(cfg.cartan).label  # parsed before anything is built
        print(
            f"error: out of memory building {label} for the {cfg.command} command; "
            f"try a smaller type",
            file=sys.stderr,
        )
        return 2
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
