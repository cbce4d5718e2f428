"""Spawn flagpieces children one at a time, time them from outside, check them.

Load model: a closed loop with one client. Each child is a fresh
`python -m flagpieces` process (or a probe process) started only after the
previous one has exited; the program is single-threaded, so children never
overlap on the machine's cores.

Children run the working tree, not an installed copy: PYTHONPATH is set to the
checkout's src/ and the probes report `flagpieces.__file__`, which must lie
inside it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
from probe import TRACE_PREFIX

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# A single-workload run must end within 180 s; no child is started, and none is
# left running, past this many seconds from the start of the run.
HARD_LIMIT_S = 170.0


@dataclass(frozen=True)
class Workload:
    name: str
    cartan: str
    delta: str
    cli_args: tuple[str, ...]
    setup_reps: int  # fresh processes that time the constructors, per run
    min_cli: int = 1  # CLI children every untraced run makes, however long they take


# Workload inputs are fixed configurations, not drawn from the seed: each
# one's stdout is checked byte for byte against a digest recorded at a
# known-good commit (golden.json), and a generated input would have no golden
# output. The seed orders the children of a run instead.
WORKLOADS = {
    w.name: w
    for w in (
        # |W| = 51,840 and 27 labels: the group table, twisted orbits and the
        # full |W|^2 Bruhat table (built only for 162 support() queries) are
        # nearly all the work. Build-dominated, query-light; sets peak memory.
        # Single ~20 s children spread by up to a quarter between runs on a
        # shared 2-core box, so every run takes the median of at least three.
        Workload(
            "e6-pieces",
            "E6",
            "flip",
            ("--cartan", "E6", "--delta", "flip", "--j", "1,2,3,4,5", "pieces"),
            3,
            min_cli=3,
        ),
        # 1,920 elements, every one a label: ~3.7 M bruhat_leq queries, quadratic
        # Hasse loops and 667 KB of JSON. Query-dominated, build-light: the
        # opposite trade-off to e6-pieces.
        Workload(
            "d5-poset",
            "D5",
            "flip",
            ("--cartan", "D5", "--delta", "flip", "--j", "", "poset", "--format", "json"),
            9,
        ),
        # The only workload that runs the oracle layer and the shift-SCC,
        # strong-component, reduction and sequence code: 16 checks over all 16
        # subsets J, about 70% of it the exponential subword oracle.
        Workload(
            "b4-verify",
            "B4",
            "id",
            ("--cartan", "B4", "--delta", "id", "verify"),
            9,
        ),
    )
}


@dataclass(frozen=True)
class Golden:
    order: int
    exit_code: int
    stdout_sha256: str
    require_lines: tuple[str, ...] = ()


def load_goldens() -> dict[str, Golden]:
    data = json.loads((HERE / "golden.json").read_text())
    return {
        name: Golden(g["order"], g["exit_code"], g["stdout_sha256"], tuple(g["require_lines"]))
        for name, g in data["workloads"].items()
    }


@dataclass
class ChildRun:
    kind: str  # "cli", "setup" or "traced"
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int | None  # None when the child was killed for its timeout
    stdout: bytes
    stderr: bytes
    error: str | None = None  # why the run counts as failed
    setup_s: float | None = None
    layers: dict[str, tuple[float, str]] | None = None


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def spawn(kind: str, argv: list[str], root: Path, timeout_s: float) -> ChildRun:
    """Run one command to completion through launch.py; never raises for the
    command's own failure.

    Wall time runs from the fork of the command to its reaping; CPU time and
    peak RSS come from its rusage. A command still running after `timeout_s`
    is killed, reaped, and reported as failed.
    """
    t0 = time.perf_counter()
    r, w = os.pipe()
    try:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py"), str(w), *argv],
            cwd=root,
            env=child_env(root),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            pass_fds=(w,),
        )
    finally:
        os.close(w)
    killed = False
    try:
        try:
            stdout, stderr = proc.communicate(timeout=max(timeout_s, 0.0))
        except subprocess.TimeoutExpired:
            killed = True
            proc.terminate()  # the launcher kills and reaps the command
            stdout, stderr = proc.communicate()
    except BaseException:  # e.g. KeyboardInterrupt: leave no process behind
        proc.terminate()
        proc.wait()
        raise
    with os.fdopen(r, "rb") as f:
        report = f.read()
    try:
        res = json.loads(report)
    except ValueError:
        return ChildRun(
            kind, time.perf_counter() - t0, 0.0, 0.0, proc.returncode, stdout, stderr,
            error=f"launcher exited {proc.returncode} without a report",
        )
    run = ChildRun(
        kind,
        res["wall_s"],
        res["cpu_s"],
        res["maxrss_kb"] / 1024.0,
        None if killed else res["exit_code"],
        stdout,
        stderr,
    )
    if killed:
        run.error = f"killed after the {timeout_s:.1f} s timeout"
    return run


def output_error(run: ChildRun, golden: Golden) -> str | None:
    """Why a CLI child's output differs from the golden one, or None."""
    if run.error:
        return run.error
    if run.exit_code != golden.exit_code:
        tail = run.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return f"exit code {run.exit_code}, expected {golden.exit_code}: {' '.join(tail)}"
    digest = hashlib.sha256(run.stdout).hexdigest()
    if digest != golden.stdout_sha256:
        return f"stdout sha256 {digest}, expected {golden.stdout_sha256}"
    lines = run.stdout.decode(errors="replace").splitlines()
    for need in golden.require_lines:
        if need not in lines:
            return f"stdout lacks the line {need!r}"
    return None


def _file_error(path: str, root: Path) -> str | None:
    src = (root / "src").resolve()
    if not Path(path).resolve().is_relative_to(src):
        return f"flagpieces imported from {path}, not from {src}"
    return None


def run_cli(w: Workload, golden: Golden, root: Path, timeout_s: float) -> ChildRun:
    run = spawn("cli", [sys.executable, "-m", "flagpieces", *w.cli_args], root, timeout_s)
    run.error = output_error(run, golden)
    return run


def run_setup(w: Workload, golden: Golden, root: Path, timeout_s: float) -> ChildRun:
    argv = [sys.executable, str(HERE / "probe.py"), "setup", w.cartan, w.delta]
    run = spawn("setup", argv, root, timeout_s)
    if run.error:
        return run
    try:
        res = json.loads(run.stdout.decode().splitlines()[-1])
    except (ValueError, IndexError):
        run.error = f"setup probe exited {run.exit_code} without a result"
        return run
    run.setup_s = res["setup_s"]
    if res["order"] != golden.order:
        run.error = f"group order {res['order']}, expected {golden.order}"
    else:
        run.error = _file_error(res["file"], root)
    return run


def run_traced(w: Workload, golden: Golden, root: Path, timeout_s: float) -> ChildRun:
    argv = [sys.executable, str(HERE / "probe.py"), "trace", *w.cli_args]
    run = spawn("traced", argv, root, timeout_s)
    run.error = output_error(run, golden)
    last = run.stderr.decode(errors="replace").rstrip("\n").rpartition("\n")[2]
    if not last.startswith(TRACE_PREFIX):
        run.error = run.error or "traced child wrote no trace"
        return run
    report = json.loads(last[len(TRACE_PREFIX):])
    layers = tracer.layer_metrics(report)
    layers["cli.import_s"] = (report["import_s"], "s")
    layers["cli.output_bytes"] = (len(run.stdout), "bytes")
    run.layers = layers
    self_sum = sum(tracer.self_times(report).values()) + report["import_s"]
    if run.error is None and self_sum > run.wall_s:
        run.error = f"self times sum to {self_sum:.3f} s, more than the traced wall {run.wall_s:.3f} s"
    if run.error is None:
        run.error = _file_error(report["file"], root)
    return run


RUNNERS = {"cli": run_cli, "setup": run_setup, "traced": run_traced}


@dataclass
class Measurement:
    """The children of one run of one workload, in the order they ran."""

    workload: str
    runs: list[ChildRun] = field(default_factory=list)

    def of(self, kind: str, ok_only: bool = True) -> list[ChildRun]:
        runs = [r for r in self.runs if r.kind == kind]
        good = [r for r in runs if r.error is None]
        # timings of failed children are reported only when none succeeded
        return good if (ok_only and good) else runs

    @property
    def attempted(self) -> int:
        return len(self.runs)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.runs if r.error is not None)

    def end_to_end(self) -> dict[str, list[float]]:
        cli = self.of("cli")
        return {
            "wall_s": [r.wall_s for r in cli],
            "cpu_s": [r.cpu_s for r in cli],
            "setup_s": [r.setup_s for r in self.of("setup") if r.setup_s is not None],
            "peak_rss_mb": [r.peak_rss_mb for r in cli],
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        traced = [r for r in self.of("traced") if r.layers is not None]
        if not traced:
            return {}
        layers = dict(traced[0].layers)
        untraced = [r.wall_s for r in self.of("cli")]
        if untraced:
            layers["trace.overhead_s"] = (traced[0].wall_s - statistics.median(untraced), "s")
        return layers


def measure(
    w: Workload,
    seconds: float,
    rng,
    trace: bool,
    golden: Golden,
    root: Path = ROOT,
) -> Measurement:
    """One run: the seeded shuffle of its fixed children (`min_cli` CLI
    children and `setup_reps` probes, or one CLI and one traced child), then
    more CLI children while another one is expected to finish within
    `seconds`."""
    start = time.perf_counter()
    m = Measurement(w.name)
    tasks = ["cli", "traced"] if trace else ["cli"] * w.min_cli + ["setup"] * w.setup_reps

    def left() -> float:
        return start + HARD_LIMIT_S - time.perf_counter()

    rng.shuffle(tasks)
    for kind in tasks:
        if left() < 1.0:
            break
        m.runs.append(RUNNERS[kind](w, golden, root, left()))
    while not trace:
        walls = [r.wall_s for r in m.of("cli", ok_only=False)]
        if not walls:
            break
        est = statistics.median(walls)
        now = time.perf_counter()
        if now + est > start + seconds or est * 1.5 > left():
            break
        m.runs.append(run_cli(w, golden, root, left()))
    return m


def count_mismatches(measurements: list[Measurement]) -> list[str]:
    """Exact counts that differ between traced runs of one workload."""
    layers = [m.per_layer() for m in measurements]
    layers = [lay for lay in layers if lay]
    out = []
    for name, (value, unit) in (layers[0].items() if layers else ()):
        if unit in ("count", "bytes"):
            seen = sorted({lay[name][0] for lay in layers})
            if len(seen) > 1:
                out.append(f"{name} varies across traced runs: {seen}")
    return out


# -- summaries -------------------------------------------------------------------


def high_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest of p99.9 .. p50 with at least ten samples above it (nearest rank)."""
    xs = sorted(values)
    n = len(xs)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        k = math.ceil(p / 100.0 * n)
        if n - k >= 10:
            return p, xs[k - 1]
    return None


def summarize(values: list[float]) -> dict:
    out = {"n": len(values)}
    if not values:
        return out
    out["median"] = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q1, q3
    hp = high_percentile(values)
    if hp is not None:
        out[f"p{hp[0]:g}"] = hp[1]
    return out


def format_summary(name: str, unit: str, s: dict) -> str:
    parts = [f"{name:<34} {unit:<6} n={s['n']}"]
    for key, val in s.items():
        if key != "n":
            parts.append(f"{key}={val:.6g}")
    if not any(k.startswith("p") for k in s):
        parts.append("(no percentile has 10 samples beyond it)")
    return " ".join(parts)


def commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: Path) -> dict:
    return {
        "commit": commit(root),
        "nproc": os.cpu_count(),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "load1": os.getloadavg()[0],
    }
