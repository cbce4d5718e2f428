"""Command-line front end: pieces, poset, orbits, sequence, closure, verify.

Exit codes: 0 on success, 1 when the verify suite finds a failure, 2 on bad
configuration, when memory runs out, or when a verify worker process dies.
All output is deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import oracle, pieces
from .rootsys import CartanDatum, CartanError, build_root_system
from .twist import AutomorphismError, DiagramAutomorphism, TwistedConjugation
from .weyl import (
    DEFAULT_MAX_ELEMENTS,
    GroupTooLargeError,
    WeylElement,
    WeylGroup,
    format_subset,
    parse_subset,
    parse_word,
    word_str,
)

COMMANDS = ("pieces", "poset", "orbits", "sequence", "closure", "verify")
FORMATS = ("text", "json", "dot")


class ConfigError(Exception):
    """Bad command-line configuration; reported on one line with exit code 2."""


@dataclass
class Context:
    cfg: argparse.Namespace  # the parsed command line
    group: WeylGroup
    delta: DiagramAutomorphism
    tc: TwistedConjugation
    J: frozenset[int]
    w: WeylElement | None


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
        help="comma-separated subset of simple indices (empty for the full flag variety)",
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
    try:
        datum = CartanDatum.from_label(cfg.cartan)
        group = WeylGroup(build_root_system(datum), cfg.max_elements)
        delta = DiagramAutomorphism.from_spec(group.root_system, cfg.delta)
        J = parse_subset(group, cfg.j)
        w = parse_word(group, cfg.w) if cfg.w is not None else None
    except (CartanError, AutomorphismError, GroupTooLargeError, ValueError) as exc:
        raise ConfigError(str(exc))
    if cfg.command == "sequence":
        if w is None:
            raise ConfigError("the sequence command requires --w")
        if not group.is_min_left_rep(w, J):
            raise ConfigError(
                f"precondition violated: w = {word_str(w)} is not a minimal coset "
                f"representative for J = {{{format_subset(J)}}} (w must lie in W^J)"
            )
    if cfg.command == "closure" and w is None:
        raise ConfigError("the closure command requires --w")
    if cfg.format == "dot" and cfg.command != "poset":
        raise ConfigError("format 'dot' is only available for the poset command")
    return Context(cfg, group, delta, TwistedConjugation(group, delta), J, w)


def _subset_text(J) -> str:
    return format_subset(J) if J else "-"


# -- pieces -----------------------------------------------------------------


def _irr_text(flag: bool | None) -> str:
    if flag is None:
        return "n/a: J=I"
    return "yes" if flag else "no"


def cmd_pieces(ctx: Context) -> str:
    records = pieces.piece_records(ctx.tc, ctx.J)
    if ctx.cfg.format == "json":
        payload = {
            "cartan": ctx.cfg.cartan,
            "delta": ctx.delta.spec,
            "J": sorted(ctx.J),
            "pieces": [
                {
                    "word": word_str(r.index_w),
                    "length": r.index_w.length,
                    "stabilizer": sorted(r.stabilizer_set),
                    "orbit_min": [word_str(v) for v in r.orbit_min],
                    "irreducible": r.irreducible,
                }
                for r in records
            ],
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = [
        f"# cartan={ctx.cfg.cartan} delta={ctx.delta.spec} "
        f"J={_subset_text(ctx.J)} pieces={len(records)}"
    ]
    for r in records:
        lines.append(
            f"w={word_str(r.index_w)} len={r.index_w.length} "
            f"stabilizer={_subset_text(r.stabilizer_set)} "
            f"orbit_min={'|'.join(word_str(v) for v in r.orbit_min)} "
            f"irreducible={_irr_text(r.irreducible)}"
        )
    return "\n".join(lines) + "\n"


# -- poset -------------------------------------------------------------------


def _poset_payload(ctx: Context, poset: pieces.ClosurePoset) -> dict:
    return {
        "cartan": ctx.cfg.cartan,
        "delta": ctx.delta.spec,
        "J": sorted(ctx.J),
        "nodes": [
            {
                "id": k,
                "word": word_str(r.index_w),
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
        f'  label="{ctx.cfg.cartan} delta={ctx.delta.spec} J={_subset_text(ctx.J)}";',
        "  node [shape=box];",
    ]
    for k, r in enumerate(poset.records):
        lines.append(
            f'  n{k} [label="{word_str(r.index_w)}\\nl={r.index_w.length} '
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
    poset = pieces.closure_poset(ctx.tc, ctx.J)
    if ctx.cfg.format == "dot":
        return _poset_dot(ctx, poset)
    if ctx.cfg.format == "json":
        return json.dumps(_poset_payload(ctx, poset), indent=2) + "\n"
    payload = _poset_payload(ctx, poset)
    lines = [
        f"# cartan={ctx.cfg.cartan} delta={ctx.delta.spec} "
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
            [word_str(e) for e in shift_classes[cid]]
            for cid in cids
        ]
        rows.append(
            {
                "members": [word_str(m) for m in orbit.members],
                "min": [word_str(m) for m in orbit.min_elements],
                "shift_classes": parts,
            }
        )
    if ctx.cfg.format == "json":
        payload = {
            "cartan": ctx.cfg.cartan,
            "delta": ctx.delta.spec,
            "J": sorted(J),
            "orbits": rows,
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = [
        f"# cartan={ctx.cfg.cartan} delta={ctx.delta.spec} "
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
    seq = pieces.sequence_for(ctx.tc, ctx.J, ctx.w)
    label = pieces.sequence_to_label(ctx.tc, seq)
    if ctx.cfg.format == "json":
        payload = {
            "cartan": ctx.cfg.cartan,
            "delta": ctx.delta.spec,
            "J": sorted(ctx.J),
            "w": word_str(ctx.w),
            "steps": [
                {"J": sorted(Jn), "w": word_str(wn)} for Jn, wn in seq.steps
            ],
            "stable_J": sorted(seq.stable_J),
            "stable_w": word_str(seq.stable_w),
            "label": word_str(label),
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = [
        f"# cartan={ctx.cfg.cartan} delta={ctx.delta.spec} "
        f"J={_subset_text(ctx.J)} w={word_str(ctx.w)}"
    ]
    for n, (Jn, wn) in enumerate(seq.steps):
        lines.append(f"n={n} J={_subset_text(Jn)} w={word_str(wn)}")
    lines.append(
        f"stable: J={_subset_text(seq.stable_J)} w={word_str(seq.stable_w)} "
        f"label={word_str(label)}"
    )
    return "\n".join(lines) + "\n"


# -- closure ---------------------------------------------------------------------------


def cmd_closure(ctx: Context) -> str:
    strata = pieces.piece_closure(ctx.tc, ctx.J, ctx.w)
    if ctx.cfg.format == "json":
        payload = {
            "cartan": ctx.cfg.cartan,
            "delta": ctx.delta.spec,
            "J": sorted(ctx.J),
            "w": word_str(ctx.w),
            "strata": [word_str(b) for b in strata],
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = [
        f"# cartan={ctx.cfg.cartan} delta={ctx.delta.spec} "
        f"J={_subset_text(ctx.J)} w={word_str(ctx.w)} strata={len(strata)}"
    ]
    for b in strata:
        lines.append(f"stratum {word_str(b)}")
    return "\n".join(lines) + "\n"


# -- verify -------------------------------------------------------------------------------


def cmd_verify(ctx: Context) -> tuple[str, int]:
    reports = oracle.run_all_checks(ctx.group, ctx.delta)
    ok = all(r.passed for r in reports)
    if ctx.cfg.format == "json":
        payload = {
            "cartan": ctx.cfg.cartan,
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
        return json.dumps(payload, indent=2) + "\n", 0 if ok else 1
    lines = [f"# verify cartan={ctx.cfg.cartan} delta={ctx.delta.spec}"]
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
    except (ConfigError, oracle.WorkerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(
            f"error: out of memory building {cfg.cartan} for the {cfg.command} command; "
            f"try a smaller type",
            file=sys.stderr,
        )
        return 2
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
