"""Fast self-test of the benchmark harness on a tiny configuration (A3, flip).

    python3 perfbench/selftest.py

Checks BENCHMARK.json against its format limits, that a run reports every
metric it lists, that a wrong digest and a timed-out child are counted as
failures without raising, and that a traced run matches the untraced output
and repeats its exact counts. Exits 1 on the first failed check.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys

import harness
import tracer

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")

TINY = harness.Workload(
    "a3-selftest",
    "A3",
    "flip",
    ("--cartan", "A3", "--delta", "flip", "verify"),
    2,
)


def check(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def main() -> int:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    everything = names + e2e + layer
    check(all(NAME.match(n) and len(n) <= 64 for n in everything), "every name matches [A-Za-z0-9_.-]+")
    check(len(set(everything)) == len(everything), "every name is used once")
    check(2 <= len(names) <= 8, f"{len(names)} workloads, within 2..8")
    check(1 <= len(e2e) <= 16, f"{len(e2e)} end-to-end metrics, within 1..16")
    check(1 <= len(layer) <= 128, f"{len(layer)} per-layer metrics, within 1..128")
    check(all(len(w["why"]) <= 200 for w in spec["workloads"]), "every why fits 200 characters")
    check(set(names) <= set(harness.WORKLOADS), "every BENCHMARK.json workload is in harness.WORKLOADS")
    check(all(m["bound"] <= 0.25 for m in spec["end_to_end"]), "every bound is at most 0.25")

    root = harness.ROOT
    ref = harness.spawn("cli", [sys.executable, "-m", "flagpieces", *TINY.cli_args], root, 60.0)
    check(ref.exit_code == 0, "reference A3 verify exits 0")
    good = harness.Golden(24, 0, hashlib.sha256(ref.stdout).hexdigest(), ("verdict: all checks passed",))

    m = harness.measure(TINY, 0.0, random.Random(1), False, good)
    check(m.failed == 0, "a run against the right digest has no failures")
    samples = m.end_to_end()
    check(set(e2e) <= set(samples) and all(samples[k] for k in e2e), "a run reports every end-to-end metric")

    wrong = harness.Golden(24, 0, "0" * 64)
    m = harness.measure(TINY, 0.0, random.Random(1), False, wrong)
    cli = m.of("cli", ok_only=False)
    check(cli and all(r.error and "sha256" in r.error for r in cli), "a wrong digest is reported as a failure")
    check(m.failed == len(cli), "only the CLI children fail on a wrong digest")

    hung = harness.spawn("cli", [sys.executable, "-c", "import time; time.sleep(60)"], root, 0.5)
    check(hung.wall_s < 10 and harness.output_error(hung, good) is not None, "a child past its timeout is killed and fails")
    died = harness.spawn("cli", [sys.executable, "-c", "raise MemoryError"], root, 60.0)
    err = harness.output_error(died, good)
    check(err is not None and "exit code 1" in err, "a child that dies is reported as a failure")

    traced = [harness.measure(TINY, 0.0, random.Random(k), True, good) for k in (1, 2)]
    check(all(t.failed == 0 for t in traced), "traced runs match the golden digest and pass integrity checks")
    layers = traced[0].per_layer()
    check(set(layer) <= set(layers), "a traced run reports every per-layer metric")
    check(all(NAME.match(k) for k in layers) and len(layers) <= 128, "every traced metric name is valid")
    check(
        all(layers[f"oracle.{c}.instances"][0] > 0 for c in tracer.ORACLE_CHECKS),
        "every oracle check is traced with instances > 0",
    )
    check(harness.count_mismatches(traced) == [], "exact counts repeat across traced runs")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
