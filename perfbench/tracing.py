"""Spans and counts around the calls into catramsey's modules.

The traced run installs wrappers from here, so the program itself carries no
tracing code.  Every public module-level function of each layer gets a span,
plus a few FiniteCategory and ResultCache methods; the hot methods `compose`
and `is_mono` only get counts, because a span per call would swamp them.
Spans are kept in memory and written out when the run ends.  The per-layer
metrics are derived from the spans alone.
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

# The package modules, which are the layers.
LAYERS = (
    "generators", "io", "core", "arrows", "kernel", "degrees",
    "expansions", "essential", "cache", "matrix", "cli",
)
SPAN_METHODS = {
    ("core", "FiniteCategory", "__init__"): "core.category_init",
    ("core", "FiniteCategory", "opposite"): "core.opposite",
    ("core", "FiniteCategory", "all_mono"): "core.all_mono",
    ("core", "FiniteCategory", "automorphisms"): "core.automorphisms",
    ("core", "FiniteCategory", "subobject_classes"): "core.subobject_classes",
    ("cache", "ResultCache", "get"): "cache.get",
    ("cache", "ResultCache", "put"): "cache.put",
    ("cache", "ResultCache", "evict"): "cache.evict",
}
COUNT_METHODS = {
    ("core", "FiniteCategory", "compose"): "core.compose",
    ("core", "FiniteCategory", "is_mono"): "core.is_mono",
}
# Outermost calls into these are the arrow layer's queries.
ARROW_DECIDERS = ("arrows.check_arrow", "arrows.check_arrow_dual", "arrows.check_arrow_native_dual")

# name -> (unit, better, workload, end-to-end metric it should move)
PER_LAYER = {
    "core.opposite_s": ("s", "lower", "matrix", "wall_s"),
    "core.opposite_calls": ("count", "lower", "matrix", "wall_s"),
    "core.category_init_s": ("s", "lower", "matrix", "wall_s; peak_rss_mb and op_p50_ms on cli-stream"),
    "core.category_init_calls": ("count", "lower", "matrix", "wall_s"),
    "core.all_mono_s": ("s", "lower", "matrix", "wall_s; op_p50_ms and op_tail_ms on cli-stream"),
    "core.is_mono_calls": ("count", "lower", "matrix", "wall_s"),
    "core.compose_calls": ("count", "lower", "matrix", "wall_s"),
    "core.automorphisms_s": ("s", "lower", "matrix", "wall_s"),
    "core.subobject_classes_s": ("s", "lower", "matrix", "wall_s"),
    "core.product_s": ("s", "lower", "matrix", "wall_s"),
    "generators.generate_s": ("s", "lower", "matrix", "wall_s"),
    "generators.generate_calls": ("count", "lower", "matrix", "wall_s"),
    "core.validate_s": ("s", "lower", "cli-stream", "op_p50_ms, op_tail_ms"),
    "io.load_category_s": ("s", "lower", "cli-stream", "op_p50_ms, op_tail_ms"),
    "io.load_category_calls": ("count", "lower", "cli-stream", "op_p50_ms, op_tail_ms"),
    "io.dumps_category_s": ("s", "lower", "cli-stream", "op_p50_ms, op_tail_ms"),
    "cli.import_s": ("s", "lower", "cli-stream", "op_p50_ms, op_tail_ms, setup_s"),
    "cli.main_s": ("s", "lower", "cli-stream", "op_p50_ms, op_tail_ms"),
    "cli.process_s": ("s", "lower", "cli-stream", "wall_s, op_p50_ms, op_tail_ms"),
    "cache.hits": ("count", "higher", "cli-stream", "op_p50_ms, op_tail_ms"),
    "cache.misses": ("count", "lower", "cli-stream", "op_p50_ms, op_tail_ms"),
    "cache.evictions": ("count", "lower", "cli-stream", "op_p50_ms, op_tail_ms"),
    "cache.hit_s": ("s", "lower", "cli-stream", "op_p50_ms, op_tail_ms"),
    "cache.miss_s": ("s", "lower", "cli-stream", "op_p50_ms, op_tail_ms"),
    "cache.put_s": ("s", "lower", "cli-stream", "op_p50_ms, op_tail_ms"),
    "arrows.queries": ("count", "lower", "matrix", "wall_s"),
    "arrows.searched_frac": ("ratio", "lower", "matrix", "wall_s"),
    "arrows.self_s": ("s", "lower", "matrix", "wall_s"),
    "kernel.build_problem_s": ("s", "lower", "search", "wall_s; slightly wall_s on matrix"),
    "kernel.solve_s": ("s", "lower", "search", "wall_s; slightly wall_s on matrix"),
    "kernel.solve_calls": ("count", "lower", "search", "wall_s"),
    "kernel.nodes": ("count", "lower", "search", "wall_s; slightly wall_s on matrix"),
    "kernel.branch_calls": ("count", "lower", "search", "wall_s, wall_2t_s"),
    "kernel.nodes_attempted": ("count", "lower", "search", "wall_s, wall_2t_s"),
    "kernel.nodes_per_s": ("1/s", "higher", "search", "wall_s; slightly wall_s on matrix"),
    "kernel.useful_node_ratio": ("ratio", "higher", "search", "wall_2t_s"),
    "kernel.cpu_util": ("ratio", "higher", "search", "wall_2t_s"),
    "degrees.degree_bounds_s": ("s", "lower", "matrix", "wall_s"),
    "degrees.degree_bounds_calls": ("count", "lower", "matrix", "wall_s"),
    "expansions.verify_s": ("s", "lower", "matrix", "wall_s"),
    "essential.crosscheck_s": ("s", "lower", "matrix", "wall_s"),
    "trace.overhead_frac": ("ratio", "lower", "all", "none: the cost of tracing itself"),
}


class Tracer:
    """Records spans (id, name, start, end, parent, op, extra) in memory.

    A thread with no open span of its own, such as a worker of the kernel's
    thread pool, takes the innermost open span of the installing thread as
    its parent.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._next_id = itertools.count(1).__next__
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, before=None, after=None, cpu: bool = False):
        """Wrap fn in a span.  after(args, result, before(args)) adds fields
        to the record when the call returns; cpu=True also records the
        process CPU time spent inside."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (tracer._main_stack[-1] if tracer._main_stack else None)
            sid = tracer._next_id()
            stack.append(sid)
            state = before(args) if before else None
            c0 = time.process_time() if cpu else 0.0
            t0 = time.perf_counter()
            info = {}
            try:
                result = fn(*args, **kwargs)
                if after:
                    info = after(args, result, state)
                return result
            finally:
                t1 = time.perf_counter()
                if cpu:
                    info["cpu"] = time.process_time() - c0
                stack.pop()
                tracer.spans.append((sid, name, t0, t1, parent, tracer.op, info))

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        """Replace the traced callables everywhere the package refers to them."""
        pkg = {name: sys.modules[name] for name in list(sys.modules) if name == "catramsey" or name.startswith("catramsey.")}
        self._local.stack = self._main_stack
        replace: dict[int, object] = {}
        for layer in LAYERS:
            mod = pkg.get(f"catramsey.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                replace[id(obj)] = self.span(f"{layer}.{attr}", obj, **_SPAN_OPTIONS.get(f"{layer}.{attr}", {}))
        for mod in pkg.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    self._patch(mod, attr, replace[id(obj)])
        kernel = pkg["catramsey.kernel"]
        impl = kernel._impl
        self._patch(impl, "search_from_prefix", self.span(
            "kernel.search_from_prefix", impl.search_from_prefix,
            after=lambda args, result, state: {"nodes": result[1]}))
        for (layer, cls_name, meth), name in {**SPAN_METHODS, **COUNT_METHODS}.items():
            if f"catramsey.{layer}" not in pkg:
                continue
            cls = getattr(pkg[f"catramsey.{layer}"], cls_name)
            orig = cls.__dict__[meth]
            if isinstance(orig, property):
                new = property(self.span(name, orig.fget))
            elif name in COUNT_METHODS.values():
                new = self.counted(name, orig)
            else:
                new = self.span(name, orig)
            self._patch(cls, meth, new)

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- output -----------------------------------------------------------------

    def records(self) -> list[dict]:
        keys = ("id", "name", "start", "end", "parent", "op")
        return [{**dict(zip(keys, s[:6])), **s[6]} for s in self.spans]

    def dump(self, path: str, extra: dict | None = None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.records(), "counts": dict(self.counts), **(extra or {})}, fh)


def _cache_state(args):
    cache = args[0]
    return cache.hits, cache.misses, cache.evictions


def _cache_outcome(args, result, state):
    now = _cache_state(args)
    return {"hits": now[0] - state[0], "misses": now[1] - state[1], "evictions": now[2] - state[2]}


_SPAN_OPTIONS = {
    "kernel.solve": {"after": lambda args, result, state: {"nodes": result.nodes}, "cpu": True},
    "cache.cached_check_arrow": {"before": _cache_state, "after": _cache_outcome},
}


# -- deriving the per-layer metrics ---------------------------------------------


def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def layer_metrics(spans: list[dict], counts: Counter, passes: int, extras: dict) -> dict[str, float]:
    """Per-layer metrics per traced pass.

    `spans` come from one or more processes, with ids unique across them.
    Times named `_s` are inclusive: the outermost span of that name, so a
    recursive or re-entrant call is not counted twice.  `extras` carries what
    the harness measured around the program: cli.import_s, cli.process_s and
    trace.overhead_frac.
    """
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[dict]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)

    def has_ancestor(s: dict, names) -> bool:
        p = s["parent"]
        while p is not None:
            ps = by_id.get(p)
            if ps is None:
                return False
            if ps["name"] in names:
                return True
            p = ps["parent"]
        return False

    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for s in spans:
        calls[s["name"]] += 1
        if not has_ancestor(s, (s["name"],)):
            total[s["name"]] += s["end"] - s["start"]

    solve = [s for s in spans if s["name"] == "kernel.solve"]
    branches = [s for s in spans if s["name"] == "kernel.search_from_prefix"]
    nodes = sum(s.get("nodes", 0) for s in solve)
    attempted = sum(s.get("nodes", 0) for s in branches)
    solve_s = total["kernel.solve"]
    solve_cpu = sum(s.get("cpu", 0.0) for s in solve)

    deciders = [s for s in spans if s["name"] in ARROW_DECIDERS and not has_ancestor(s, ARROW_DECIDERS)]
    reached = set()
    for s in solve:
        p = s["parent"]
        while p is not None and p in by_id:
            reached.add(p)
            p = by_id[p]["parent"]
    searched_count = sum(1 for d in deciders if d["id"] in reached)
    arrows_self = sum(
        (s["end"] - s["start"]) - _union([(c["start"], c["end"]) for c in children[s["id"]]])
        for s in spans if s["name"].startswith("arrows.")
    )
    cached = [s for s in spans if s["name"] == "cache.cached_check_arrow"]

    def per_pass(x: float) -> float:
        return x / passes if passes else 0.0

    out = {
        "core.opposite_s": per_pass(total["core.opposite"]),
        "core.opposite_calls": per_pass(calls["core.opposite"]),
        "core.category_init_s": per_pass(total["core.category_init"]),
        "core.category_init_calls": per_pass(calls["core.category_init"]),
        "core.all_mono_s": per_pass(total["core.all_mono"]),
        "core.is_mono_calls": per_pass(counts.get("core.is_mono", 0)),
        "core.compose_calls": per_pass(counts.get("core.compose", 0)),
        "core.automorphisms_s": per_pass(total["core.automorphisms"]),
        "core.subobject_classes_s": per_pass(total["core.subobject_classes"]),
        "core.product_s": per_pass(total["core.product"]),
        "generators.generate_s": per_pass(total["generators.generate"]),
        "generators.generate_calls": per_pass(calls["generators.generate"]),
        "core.validate_s": per_pass(total["core.validate"]),
        "io.load_category_s": per_pass(total["io.load_category"]),
        "io.load_category_calls": per_pass(calls["io.load_category"]),
        "io.dumps_category_s": per_pass(total["io.dumps_category"]),
        "cli.import_s": per_pass(extras.get("cli.import_s", 0.0)),
        "cli.main_s": per_pass(total["cli.main"]),
        "cli.process_s": per_pass(extras.get("cli.process_s", 0.0)),
        "cache.hits": per_pass(sum(s.get("hits", 0) for s in cached)),
        "cache.misses": per_pass(sum(s.get("misses", 0) for s in cached)),
        "cache.evictions": per_pass(sum(s.get("evictions", 0) for s in cached)),
        "cache.hit_s": per_pass(sum(s["end"] - s["start"] for s in cached if s.get("hits"))),
        "cache.miss_s": per_pass(sum(s["end"] - s["start"] for s in cached if s.get("misses"))),
        "cache.put_s": per_pass(total["cache.put"]),
        "arrows.queries": per_pass(len(deciders)),
        "arrows.searched_frac": searched_count / len(deciders) if deciders else 0.0,
        "arrows.self_s": per_pass(arrows_self),
        "kernel.build_problem_s": per_pass(total["kernel.build_problem"]),
        "kernel.solve_s": per_pass(solve_s),
        "kernel.solve_calls": per_pass(len(solve)),
        "kernel.nodes": per_pass(nodes),
        "kernel.branch_calls": per_pass(len(branches)),
        "kernel.nodes_attempted": per_pass(attempted),
        "kernel.nodes_per_s": attempted / solve_s if solve_s else 0.0,
        "kernel.useful_node_ratio": nodes / attempted if attempted else 0.0,
        "kernel.cpu_util": solve_cpu / solve_s if solve_s else 0.0,
        "degrees.degree_bounds_s": per_pass(total["degrees.degree_bounds"]),
        "degrees.degree_bounds_calls": per_pass(calls["degrees.degree_bounds"]),
        "expansions.verify_s": per_pass(total["expansions.verify_additivity"] + total["expansions.verify_ratio_formula"]),
        "essential.crosscheck_s": per_pass(total["essential.crosscheck_essential_arrow"]),
        "trace.overhead_frac": extras.get("trace.overhead_frac", 0.0),
    }
    return out
