"""Per-layer spans around flagpieces' public functions, installed at run time.

Nothing under src/ is edited: `Tracer.install` replaces each traced function
with a wrapper in every flagpieces module that holds a reference to it, so a
name imported with `from .twist import support` is wrapped too. The cached
properties of WeylGroup are re-wrapped as cached properties, and the check
tables in `oracle` are rebuilt, because they hold the functions they captured
at import.

Two kinds of wrapper keep what they measure in memory until the run ends:

- a span records (name, start, end, parent span) for each call. It is used for
  functions called a few hundred times at most per run;
- a hot wrapper adds its call count and time into one aggregate per
  (function, calling traced function), because `bruhat_leq` alone is called
  millions of times by the D5 poset.

Every frame on the call stack tracks the time of its wrapped children, so each
function's self time excludes the traced work it called. `WeylElement.__mul__`
is not wrapped: it is the group operation inside every layer.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import time

SPAN = "span"
HOT = "hot"

# (module, attribute, kind, record maxrss growth across each call)
TARGETS = (
    ("rootsys", "build_root_system", SPAN, False),
    ("weyl", "WeylGroup.__init__", SPAN, True),
    ("weyl", "WeylGroup.reflections", SPAN, False),
    ("weyl", "WeylGroup.bruhat_covers_up", SPAN, False),
    ("weyl", "WeylGroup._bruhat_up_reach", SPAN, True),
    ("weyl", "WeylGroup.bruhat_leq", HOT, False),
    ("weyl", "WeylGroup.min_coset_rep", HOT, False),
    ("weyl", "WeylGroup.min_coset_reps", HOT, False),
    ("weyl", "WeylGroup.min_double_coset_reps", HOT, False),
    ("weyl", "WeylGroup.double_coset_rep", HOT, False),
    ("weyl", "WeylGroup.parabolic_elements", HOT, False),
    ("twist", "TwistedConjugation.orbit_partition", HOT, False),
    ("twist", "TwistedConjugation.stabilizer_type", HOT, False),
    ("twist", "support", HOT, False),
    ("twist", "stable_support", HOT, False),
    ("twist", "TwistedConjugation._shift_adjacency", HOT, False),
    ("twist", "TwistedConjugation._scc", HOT, False),
    ("twist", "TwistedConjugation.shift_reachable", HOT, False),
    ("twist", "TwistedConjugation._strong_components", HOT, False),
    ("twist", "TwistedConjugation.reduce_to_distinguished", HOT, False),
    ("pieces", "piece_records", SPAN, False),
    ("pieces", "closure_poset", SPAN, False),
    ("pieces", "piece_closure", SPAN, False),
    ("pieces", "twisted_leq", HOT, False),
    ("pieces", "sequence_for", HOT, False),
    ("pieces", "validate_sequence", HOT, False),
    ("pieces", "sequence_to_label", HOT, False),
    ("pieces", "sequence_root_inclusions", HOT, False),
    ("cli", "cmd_pieces", SPAN, False),
    ("cli", "cmd_poset", SPAN, False),
    ("cli", "cmd_orbits", SPAN, False),
    ("cli", "cmd_sequence", SPAN, False),
    ("cli", "cmd_closure", SPAN, False),
    ("cli", "cmd_verify", SPAN, False),
)

# Names of the oracle checks, as in oracle.GROUP_CHECKS and
# oracle.PER_SUBSET_CHECKS. A check the program adds or renames shows up as a
# mismatch in `Tracer.install`, not as a silently untraced check.
ORACLE_CHECKS = (
    "root-system",
    "group-order",
    "bruhat-subword",
    "coset-minimality",
    "length-additivity",
    "parabolic-restriction",
    "stabilizer-type",
    "class-partition",
    "orbit-minimality",
    "strong-conjugacy",
    "shift-reduction",
    "sequence-bijection",
    "order-axioms",
    "closure-agreement",
    "root-inclusions",
    "irreducibility",
)

# per-layer self-time metric -> the traced functions whose self times it sums
SELF_TIME_METRICS = {
    "rootsys.build_s": ("rootsys.build_root_system",),
    "weyl.group_build_s": ("weyl.WeylGroup.__init__",),
    "weyl.reflections_s": ("weyl.WeylGroup.reflections",),
    "weyl.bruhat_covers_s": ("weyl.WeylGroup.bruhat_covers_up",),
    "weyl.bruhat_reach_s": ("weyl.WeylGroup._bruhat_up_reach",),
    "weyl.bruhat_leq_s": ("weyl.WeylGroup.bruhat_leq",),
    "weyl.coset_s": (
        "weyl.WeylGroup.min_coset_rep",
        "weyl.WeylGroup.min_coset_reps",
        "weyl.WeylGroup.min_double_coset_reps",
        "weyl.WeylGroup.double_coset_rep",
        "weyl.WeylGroup.parabolic_elements",
    ),
    "twist.orbit_partition_s": ("twist.TwistedConjugation.orbit_partition",),
    "twist.stabilizer_type_s": ("twist.TwistedConjugation.stabilizer_type",),
    "twist.support_s": ("twist.support", "twist.stable_support"),
    "twist.shift_scc_s": (
        "twist.TwistedConjugation._shift_adjacency",
        "twist.TwistedConjugation._scc",
        "twist.TwistedConjugation.shift_reachable",
    ),
    "twist.strong_components_s": ("twist.TwistedConjugation._strong_components",),
    "twist.reduce_s": ("twist.TwistedConjugation.reduce_to_distinguished",),
    "pieces.piece_records_s": ("pieces.piece_records",),
    "pieces.closure_poset_s": (
        "pieces.closure_poset",
        "pieces.piece_closure",
        "pieces.twisted_leq",
    ),
    "pieces.sequence_s": (
        "pieces.sequence_for",
        "pieces.validate_sequence",
        "pieces.sequence_to_label",
        "pieces.sequence_root_inclusions",
    ),
    "cli.format_s": tuple(
        f"cli.cmd_{c}" for c in ("pieces", "poset", "orbits", "sequence", "closure", "verify")
    ),
}
for _check in ORACLE_CHECKS:
    SELF_TIME_METRICS[f"oracle.{_check}.self_s"] = (f"oracle.{_check}",)

# call-count metric -> traced function
CALL_METRICS = {
    "weyl.bruhat_leq_calls": "weyl.WeylGroup.bruhat_leq",
    "twist.support_calls": "twist.support",
}

# maxrss-growth metric -> traced function (largest growth over its calls)
RSS_METRICS = {
    "weyl.group_build_rss_mb": "weyl.WeylGroup.__init__",
    "weyl.bruhat_reach_rss_mb": "weyl.WeylGroup._bruhat_up_reach",
}

# counts the tracer derives from results; each must repeat exactly across runs
EXACT_COUNTS = (
    "weyl.elements",
    "weyl.bruhat_cover_edges",
    "twist.orbits",
    "pieces.labels",
    "pieces.hasse_edges",
    *(f"oracle.{c}.instances" for c in ORACLE_CHECKS),
)

_NAME, _CHILD, _SPAN = 0, 1, 2  # fields of a call-stack frame


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Spans and hot-call aggregates for one traced CLI run."""

    def __init__(self):
        self.origin = time.perf_counter()
        # (name, start_s, end_s, parent span index or -1, self_s, maxrss growth kB or None)
        self.spans: list[tuple] = []
        self.hot: dict[tuple[str, str], list] = {}  # (name, parent) -> [calls, total_s, self_s]
        self.counts: dict[str, int] = dict.fromkeys(EXACT_COUNTS, 0)
        self._stack: list[list] = [["<root>", 0.0, -1]]
        self._orbit_results: dict[int, object] = {}

    # -- wrappers ----------------------------------------------------------

    def span(self, name: str, fn, hook=None, rss: bool = False):
        stack, spans, perf = self._stack, self.spans, time.perf_counter
        origin = self.origin

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            idx = len(spans)
            spans.append(None)  # reserve the slot so children get later indices
            frame = [name, 0.0, idx]
            stack.append(frame)
            rss0 = _maxrss_kb() if rss else None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dt = t1 - t0
                parent[_CHILD] += dt
                grew = _maxrss_kb() - rss0 if rss else None
                spans[idx] = (name, t0 - origin, t1 - origin, parent[_SPAN], dt - frame[_CHILD], grew)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def hot_call(self, name: str, fn, hook=None):
        stack, hot, perf = self._stack, self.hot, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, parent[_SPAN]]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                parent[_CHILD] += dt
                key = (name, parent[_NAME])
                agg = hot.get(key)
                if agg is None:
                    agg = hot[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[_CHILD]
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    # -- counts taken from results ------------------------------------------

    def _count(self, key: str, n: int) -> None:
        self.counts[key] += n

    def _hooks(self) -> dict:
        def orbits(args, result):
            # orbit_partition is memoized per J: count each partition once,
            # keeping it alive so its id cannot be reused
            if id(result) not in self._orbit_results:
                self._orbit_results[id(result)] = result
                self._count("twist.orbits", len(result[0]))

        return {
            "weyl.WeylGroup.__init__": lambda a, r: self._count("weyl.elements", a[0].order),
            "weyl.WeylGroup.bruhat_covers_up": lambda a, r: self._count(
                "weyl.bruhat_cover_edges", sum(len(v) for v in r)
            ),
            "twist.TwistedConjugation.orbit_partition": orbits,
            "pieces.piece_records": lambda a, r: self._count("pieces.labels", len(r)),
            "pieces.closure_poset": lambda a, r: self._count("pieces.hasse_edges", len(r.hasse_edges)),
        }

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in the imported flagpieces package."""
        modules = [m for n, m in list(sys.modules.items()) if n == "flagpieces" or n.startswith("flagpieces.")]
        hooks = self._hooks()
        for modname, attr, kind, rss in TARGETS:
            mod = importlib.import_module(f"flagpieces.{modname}")
            name = f"{modname}.{attr}"
            hook = hooks.get(name)
            owner_name, _, leaf = attr.rpartition(".")
            if owner_name:  # a method or cached property, looked up on its class
                owner = getattr(mod, owner_name)
                orig = owner.__dict__[leaf]
                if isinstance(orig, functools.cached_property):
                    prop = functools.cached_property(self.span(name, orig.func, hook, rss))
                    prop.__set_name__(owner, leaf)
                    setattr(owner, leaf, prop)
                else:
                    setattr(owner, leaf, self._wrap(kind, name, orig, hook, rss))
                continue
            orig = getattr(mod, leaf)
            wrapped = self._wrap(kind, name, orig, hook, rss)
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        setattr(m, k, wrapped)
        oracle = importlib.import_module("flagpieces.oracle")
        found = [n for n, _ in oracle.GROUP_CHECKS + oracle.PER_SUBSET_CHECKS]
        if sorted(found) != sorted(ORACLE_CHECKS):
            raise RuntimeError(f"oracle checks changed: {found}; update ORACLE_CHECKS")
        oracle.GROUP_CHECKS = tuple((n, self._check_span(n, f)) for n, f in oracle.GROUP_CHECKS)
        oracle.PER_SUBSET_CHECKS = tuple(
            (n, self._check_span(n, f)) for n, f in oracle.PER_SUBSET_CHECKS
        )

    def _wrap(self, kind: str, name: str, fn, hook, rss: bool):
        return self.span(name, fn, hook, rss) if kind == SPAN else self.hot_call(name, fn, hook)

    def _check_span(self, check: str, fn):
        key = f"oracle.{check}.instances"
        return self.span(f"oracle.{check}", fn, lambda a, r: self._count(key, r.instances_checked))

    def run(self, fn, *args):
        """Call fn(*args) under the root span "main"."""
        return self.span("main", fn)(*args)

    def report(self) -> dict:
        return {
            "spans": self.spans,
            "hot": [[n, p, *agg] for (n, p), agg in self.hot.items()],
            "counts": self.counts,
        }


# -- turning a report into per-layer metrics ---------------------------------------


def self_times(report: dict) -> dict[str, float]:
    """Self time per traced function name, summed over spans and hot calls."""
    out: dict[str, float] = {}
    for name, _start, _end, _parent, self_s, _grew in report["spans"]:
        out[name] = out.get(name, 0.0) + self_s
    for name, _parent, _calls, _total, self_s in report["hot"]:
        out[name] = out.get(name, 0.0) + self_s
    return out


def layer_metrics(report: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric the report supports, as name -> (value, unit)."""
    selfs = self_times(report)
    out: dict[str, tuple[float, str]] = {}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = (sum(selfs.get(n, 0.0) for n in names), "s")
    calls: dict[str, int] = {}
    for name, _parent, n, _total, _self in report["hot"]:
        calls[name] = calls.get(name, 0) + n
    for metric, name in CALL_METRICS.items():
        out[metric] = (calls.get(name, 0), "count")
    for metric, name in RSS_METRICS.items():
        grown = [g for n, *_rest, g in report["spans"] if n == name and g is not None]
        out[metric] = (max(grown, default=0) / 1024.0, "MB")
    for metric in EXACT_COUNTS:
        out[metric] = (report["counts"][metric], "count")
    return out
