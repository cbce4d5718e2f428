"""Child-process side of the benchmark; run with PYTHONPATH=<checkout>/src.

    python3 perfbench/probe.py setup <cartan> <delta>
        Builds the root system, group table, diagram automorphism and
        TwistedConjugation through the public constructors the CLI calls
        before any command, and prints one JSON line with the seconds taken.

    python3 perfbench/probe.py trace <flagpieces CLI arguments...>
        Runs `flagpieces.cli.main` on the arguments with per-layer spans
        installed. The CLI's output goes to stdout unchanged; the trace goes
        to stderr as the last line, prefixed with TRACE_PREFIX.

Both modes report `flagpieces.__file__`, so the parent can check that the
working tree, not an installed copy, was measured.
"""

from __future__ import annotations

import json
import sys
import time

TRACE_PREFIX = "PERFBENCH_TRACE "


def setup(cartan: str, delta_spec: str) -> int:
    import flagpieces
    from flagpieces import (
        CartanDatum,
        DiagramAutomorphism,
        TwistedConjugation,
        WeylGroup,
        build_root_system,
    )

    t0 = time.perf_counter()
    rs = build_root_system(CartanDatum.from_label(cartan))
    group = WeylGroup(rs)
    delta = DiagramAutomorphism.from_spec(rs, delta_spec)
    TwistedConjugation(group, delta)
    setup_s = time.perf_counter() - t0
    print(json.dumps({"setup_s": setup_s, "order": group.order, "file": flagpieces.__file__}))
    return 0


def trace(cli_args: list[str]) -> int:
    from tracer import Tracer

    t0 = time.perf_counter()
    import flagpieces.cli as cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    code = tracer.run(cli.main, cli_args)
    sys.stdout.flush()
    report = tracer.report()
    report["import_s"] = import_s
    report["file"] = sys.modules["flagpieces"].__file__
    print(TRACE_PREFIX + json.dumps(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        sys.exit(setup(*rest))
    if mode == "trace":
        sys.exit(trace(rest))
    sys.exit(f"unknown mode {mode!r}")
