"""flagpieces benchmark: E6 pieces, D5 poset and B4 verify, timed end to end.

One workload, as BENCHMARK.json's command runs it (prints one JSON result as the
last line of stdout):

    python3 perfbench/run.py --workload e6-pieces --seed 1 --seconds 60 --trace 0

    --trace 0  end-to-end metrics: wall_s, cpu_s, setup_s, peak_rss_mb
    --trace 1  per-layer metrics from one traced child, plus trace.overhead_s

Every workload, interleaved in a seeded order, with summaries per workload:

    python3 perfbench/run.py --suite --repeats 5 --seed 1 [--trace 1]

Run from the root of a flagpieces checkout; the children import its src/.
Exits 2 without a result when the checkout has no src/flagpieces.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys

import harness

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def benchmark_spec() -> dict:
    return json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def print_run(m: harness.Measurement) -> None:
    order = " ".join(f"{r.kind}:{r.wall_s:.3f}s" for r in m.runs)
    print(f"# children, in order, with wall times: {order}")
    for r in m.runs:
        if r.error:
            print(f"# FAILED {r.kind}: {r.error}")


def print_end_to_end(samples: dict[str, list[float]], attempted: int, failed: int) -> None:
    for name, unit in E2E_UNITS.items():
        print(harness.format_summary(name, unit, harness.summarize(samples[name])))
    rate = failed / attempted if attempted else 0.0
    print(f"{'error_rate':<34} {'ratio':<6} n={attempted} value={rate:.6g} ({failed} of {attempted} runs failed)")


def print_layers(layers: dict[str, tuple[float, str]]) -> None:
    for name, (value, unit) in sorted(layers.items()):
        print(f"{name:<34} {unit:<6} {value:.6g}")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def run_one(args, spec: dict) -> int:
    w = harness.WORKLOADS[args.workload]
    golden = harness.load_goldens()[w.name]
    trace = bool(args.trace)
    print(f"# perfbench workload={w.name} seed={args.seed} seconds={args.seconds} trace={int(trace)}")
    print(f"# environment at start: {json.dumps(harness.environment(harness.ROOT))}")
    m = harness.measure(w, args.seconds, random.Random(args.seed), trace, golden)
    print_run(m)
    metrics = {}
    if trace:
        layers = m.per_layer()
        print_layers(layers)
        for entry in spec["per_layer"]:
            value, unit = layers.get(entry["name"], (0.0, entry["unit"]))
            metrics[entry["name"]] = {"value": value, "unit": unit}
    else:
        samples = m.end_to_end()
        print_end_to_end(samples, m.attempted, m.failed)
        for entry in spec["end_to_end"]:
            values = samples[entry["name"]]
            value = statistics.median(values) if values else 0.0
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    print(f"# environment at end: {json.dumps(harness.environment(harness.ROOT))}")
    print(result_line(m.failed == 0, m.attempted, m.failed, metrics))
    return 0


def run_suite(args) -> int:
    """Every workload `repeats` times, in one seeded interleaving."""
    goldens = harness.load_goldens()
    rng = random.Random(args.seed)
    items = [(name, k) for name in harness.WORKLOADS for k in range(args.repeats)]
    rng.shuffle(items)
    trace = bool(args.trace)
    env_start = harness.environment(harness.ROOT)
    print(f"# perfbench suite seed={args.seed} repeats={args.repeats} trace={int(trace)}")
    print(f"# environment at start: {json.dumps(env_start)}")
    print(f"# order: {' '.join(f'{n}#{k}' for n, k in items)}")
    done: dict[str, list[harness.Measurement]] = {name: [] for name in harness.WORKLOADS}
    for name, _ in items:
        w = harness.WORKLOADS[name]
        m = harness.measure(w, args.seconds, rng, trace, goldens[name])
        done[name].append(m)
        for r in m.runs:
            if r.error:
                print(f"# FAILED {name} {r.kind}: {r.error}")
    summary = {}
    failed_total = 0
    for name, ms in done.items():
        attempted = sum(m.attempted for m in ms)
        failed = sum(m.failed for m in ms)
        failed_total += failed
        print(f"## {name}")
        if trace:
            problems = harness.count_mismatches(ms)
            failed_total += len(problems)
            for p in problems:
                print(f"# FAILED {name}: {p}")
            per_run = [m.per_layer() for m in ms]
            keys = sorted({k for lay in per_run for k in lay})
            layers = {}
            for k in keys:
                values = [lay[k][0] for lay in per_run if k in lay]
                unit = next(lay[k][1] for lay in per_run if k in lay)
                s = harness.summarize(values)
                print(harness.format_summary(k, unit, s))
                layers[k] = {"unit": unit, **s}
            summary[name] = {"attempted": attempted, "failed": failed, "per_layer": layers}
        else:
            samples: dict[str, list[float]] = {k: [] for k in E2E_UNITS}
            for m in ms:
                for k, v in m.end_to_end().items():
                    samples[k].extend(v)
            print_end_to_end(samples, attempted, failed)
            summary[name] = {
                "attempted": attempted,
                "failed": failed,
                "error_rate": failed / attempted if attempted else 0.0,
                "end_to_end": {k: {"unit": E2E_UNITS[k], **harness.summarize(v)} for k, v in samples.items()},
            }
    env_end = harness.environment(harness.ROOT)
    print(f"# environment at end: {json.dumps(env_end)}")
    print(
        json.dumps(
            {
                "correct": failed_total == 0,
                "seed": args.seed,
                "repeats": args.repeats,
                "trace": int(trace),
                "environment": {"start": env_start, "end": env_end},
                "workloads": summary,
            }
        )
    )
    return 0 if failed_total == 0 else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(harness.WORKLOADS))
    p.add_argument("--suite", action="store_true", help="run every workload, interleaved")
    p.add_argument("--repeats", type=int, default=3, help="runs per workload in --suite mode")
    p.add_argument("--seed", type=int, default=0, help="orders the children of each run")
    p.add_argument("--seconds", type=float, default=0.0, help="keep starting CLI children while one more fits")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (harness.ROOT / "src" / "flagpieces" / "__init__.py").is_file():
        print(f"error: no src/flagpieces under {harness.ROOT}; run from a flagpieces checkout", file=sys.stderr)
        return 2
    if args.suite:
        return run_suite(args)
    if args.workload is None:
        p.error("give --workload or --suite")
    return run_one(args, benchmark_spec())


if __name__ == "__main__":
    sys.exit(main())
