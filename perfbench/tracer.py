"""Per-layer tracing from outside the program.

`Tracer.install` wraps the public functions of every permdom module (in
`cli`, only `main`) and the constructor of each public class that validates
its fields (`perm.Permutation`), and rebinds the wrapper under every name
the original is bound to in any permdom module, so calls through
`from .graph import build_graph` are traced too.  `uninstall` puts the
originals back.  Nothing under `src/` changes.

Each traced call is a span with a parent: the span open when it started.
Spans are aggregated as they close, per pass, into call counts, inclusive
time and self time (duration minus the time its child spans cover), plus
parent -> child call counts.  Recursion inside a layer records no span, and
its time stays in the span that entered the layer: a call to a function
that is already open, and a call to a memoized function (the f1/g1 memo
recursion) from a span of its own layer.  Counters for the ratios are taken
at the same boundaries from the values the wrapped functions return.
"""
from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

LAYERS = ("cli", "perm", "graph", "domination", "constructions", "counting",
          "sequences", "oracle", "verify")
ENTRY_ONLY = {"cli": {"main"}}  # the CLI's handlers are part of its request
COUNTED_GENERATORS = {"oracle.iter_permutations": "oracle.perms_visited"}

VERIFY_CHECKS = (
    "check_recursions_vs_oracle", "check_strong_fixed_point_identity",
    "check_closed_forms", "check_polynomial_lifting", "check_pair_counts",
    "check_efficient_counts", "check_singleton_formula",
    "check_disconnected_formula", "check_combs", "check_extension",
    "check_connected_with_gamma", "check_heuristic", "check_invariant_suite",
)

# (span, statistic, unit): calls = count, self_s = self time, wall_s =
# inclusive time, all per pass of the workload's request list.
SPAN_METRICS = (
    [("cli.main", "self_s"),
     ("perm.Permutation", "calls"), ("perm.Permutation", "self_s"),
     ("perm.strong_fixed_points", "self_s"),
     ("graph.build_graph", "calls"), ("graph.build_graph", "self_s"),
     ("graph.is_connected", "self_s"),
     ("domination.domination_number_exact", "calls"),
     ("domination.domination_number_exact", "self_s"),
     ("domination.all_minimum_dominating_sets", "self_s"),
     ("domination.heuristic_dominating_set", "self_s"),
     ("domination.maximal_cliques", "self_s"),
     ("domination.count_singleton_dominators", "self_s"),
     ("constructions.extend_preserving_gamma", "self_s"),
     ("constructions.connected_with_gamma", "self_s"),
     ("constructions.is_comb", "self_s")]
    + [(f"counting.{fn}", "self_s") for fn in (
        "f1", "g1", "pair_count_nonadjacent", "pair_count_adjacent",
        "efficient_dom_count", "disconnected_count")]
    + [("sequences.lift_families", "self_s"), ("sequences.sequence_table", "self_s")]
    + [(f"oracle.{fn}", "self_s") for fn in (
        "full_tally", "singleton_domination_tally",
        "connected_gamma_permutations", "heuristic_quality")]
    + [(f"verify.{check}", "wall_s") for check in VERIFY_CHECKS]
)
COUNTER_METRICS = (
    ("domination.heuristic_optimal_ratio", "ratio"),
    ("domination.heuristic_repair_ratio", "ratio"),
    ("domination.quick_rule_hit_ratio", "ratio"),
    ("counting.memo_hit_ratio", "ratio"),
    ("counting.memo_entries", "count"),
    ("oracle.perms_visited", "count"),
)
OVERHEAD_METRIC = "trace.overhead_ratio"
_UNITS = {"calls": "count", "self_s": "s", "wall_s": "s"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{span}.{stat}": _UNITS[stat] for span, stat in SPAN_METRICS}
    units.update({f"{layer}.layer_self_s": "s" for layer in LAYERS})
    units.update(dict(COUNTER_METRICS))
    units[OVERHEAD_METRIC] = "ratio"
    return units


def _is_function(obj) -> bool:
    """Plain functions and functools-cached functions, not callable
    instances or classes."""
    return not isinstance(obj, type) and inspect.isfunction(inspect.unwrap(obj))


def _ratio(part: int, whole: int) -> float:
    """part / whole; 0.0 when nothing happened (the calls metrics show it)."""
    return part / whole if whole else 0.0


class Tracer:
    def __init__(self, package_modules, memo_caches, clock=time.perf_counter):
        """package_modules: every loaded permdom module; memo_caches: the
        (name, cache) pairs of `harness.Isolation`, read after each request;
        clock: what spans are timed with."""
        self.modules = package_modules
        self.clock = clock
        self.memo_caches = [c for name, c in memo_caches
                            if name.startswith("permdom.counting.")]
        self.edges: Counter = Counter()   # (parent span, span) -> calls
        self.counters: Counter = Counter()
        self._stack: list[list] = []      # open spans: [name, layer, child s]
        self._exact: dict = {}            # graph rows -> exact gamma, per request
        self._heuristic: dict = {}        # graph rows -> heuristic gamma
        self._patches: list = []
        self.targets = self._discover()   # span name -> (owner, attr, original)
        self.stats = {span: [0, 0.0, 0.0]  # span -> [calls, inclusive s, self s]
                      for span in self.targets if span not in COUNTED_GENERATORS}
        self.broken_hooks: set[str] = set()

    # -- discovery and (un)installation --------------------------------

    def _discover(self) -> dict:
        by_name = {m.__name__: m for m in self.modules}
        targets = {}
        for layer in LAYERS:
            mod = by_name.get(f"permdom.{layer}")
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if name not in ENTRY_ONLY.get(layer, {name}):
                    continue
                span = f"{layer}.{name}"
                if isinstance(obj, type):
                    if "__post_init__" in vars(obj):
                        targets[span] = (obj, "__init__", vars(obj)["__init__"])
                elif _is_function(obj):
                    targets[span] = (mod, name, obj)
        return targets

    def install(self) -> None:
        wrappers = {}
        for span, (owner, attr, original) in self.targets.items():
            if span in COUNTED_GENERATORS:
                wrapper = self._counting_wrapper(COUNTED_GENERATORS[span], original)
            else:
                wrapper = self._span_wrapper(span, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._patches.append((owner, attr, original))
            else:
                wrappers[id(original)] = (original, wrapper)
        for mod in self.modules:
            for name, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, name, hit[1])
                    self._patches.append((mod, name, value))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, span: str, fn):
        stack, edges, record = self._stack, self.edges, self.stats[span]
        hook = self._hooks().get(span)
        clock = self.clock
        layer = span.split(".", 1)[0]
        memoized = hasattr(fn, "cache_info")
        active = [False]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if active[0] or (memoized and stack and stack[-1][1] == layer):
                return fn(*args, **kwargs)  # recursion inside the layer
            active[0] = True
            parent = stack[-1] if stack else None
            frame = [span, layer, 0.0]
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - started
                stack.pop()
                active[0] = False
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                    edges[parent[0], span] += 1
            if hook is not None and span not in self.broken_hooks:
                try:
                    hook(args, result)
                except (AttributeError, IndexError, TypeError):
                    # the program's signature or result type changed
                    self.broken_hooks.add(span)
            return result

        return wrapper

    def _counting_wrapper(self, counter: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counters[counter] += 1
                yield item

        return wrapper

    def _hooks(self) -> dict:
        counters, exact, heuristic = self.counters, self._exact, self._heuristic

        def on_exact(args, result):
            exact[args[0].rows] = result.gamma

        def on_heuristic(args, result):
            heuristic[args[0].rows] = result.gamma
            counters["heuristic_calls"] += 1
            counters["heuristic_repaired"] += bool(result.repaired)

        def on_quick_rule(args, result):
            counters["quick_rule_calls"] += 1
            counters["quick_rule_hits"] += result is not None

        return {
            "domination.domination_number_exact": on_exact,
            "domination.heuristic_dominating_set": on_heuristic,
            "domination.quick_rule_value_ends": on_quick_rule,
            "domination.quick_rule_position_ends": on_quick_rule,
        }

    # -- per request and per pass ------------------------------------------

    def end_request(self) -> None:
        """Pair heuristic and exact results on equal graphs, and read the
        counting memos before the next request clears them."""
        for rows, size in self._heuristic.items():
            if rows in self._exact:
                self.counters["heuristic_paired"] += 1
                self.counters["heuristic_optimal"] += size == self._exact[rows]
        self._exact.clear()
        self._heuristic.clear()
        entries = 0
        for cache in self.memo_caches:
            info = cache.cache_info()
            self.counters["memo_hits"] += info.hits
            self.counters["memo_lookups"] += info.hits + info.misses
            entries += info.currsize
        self.counters["memo_entries"] = max(self.counters["memo_entries"], entries)

    def reset_pass(self) -> None:
        for record in self.stats.values():
            record[:] = [0, 0.0, 0.0]
        self.edges.clear()
        self.counters.clear()

    def pass_metrics(self) -> dict[str, float | int | None]:
        """The per-layer metrics of the pass just traced (no overhead ratio).
        A metric whose function or counter no longer exists is None."""
        out: dict[str, float | int | None] = {}
        column = {"calls": 0, "wall_s": 1, "self_s": 2}
        present = {s: r for s, r in self.stats.items() if s in self.targets}
        for span, stat in SPAN_METRICS:
            record = present.get(span)
            out[f"{span}.{stat}"] = None if record is None else record[column[stat]]
        for layer in LAYERS:
            spans = [r for s, r in present.items() if s.startswith(layer + ".")]
            out[f"{layer}.layer_self_s"] = sum(r[2] for r in spans) if spans else None
        c = self.counters
        hooks = self.targets.keys() - self.broken_hooks
        has = lambda *spans: all(s in hooks for s in spans)
        out["domination.heuristic_optimal_ratio"] = (
            _ratio(c["heuristic_optimal"], c["heuristic_paired"])
            if has("domination.heuristic_dominating_set",
                   "domination.domination_number_exact") else None)
        out["domination.heuristic_repair_ratio"] = (
            _ratio(c["heuristic_repaired"], c["heuristic_calls"])
            if has("domination.heuristic_dominating_set") else None)
        out["domination.quick_rule_hit_ratio"] = (
            _ratio(c["quick_rule_hits"], c["quick_rule_calls"])
            if has("domination.quick_rule_value_ends",
                   "domination.quick_rule_position_ends") else None)
        out["counting.memo_hit_ratio"] = (
            _ratio(c["memo_hits"], c["memo_lookups"]) if self.memo_caches else None)
        out["counting.memo_entries"] = c["memo_entries"] if self.memo_caches else None
        for span, counter in COUNTED_GENERATORS.items():
            out[counter] = c[counter] if span in self.targets else None
        return out

    def top_spans(self, limit: int = 12) -> list[tuple]:
        """(span, calls, inclusive s, self s, [(parent span, calls)]), largest
        self time first; spans opened outside any span have parent "-"."""
        rows = []
        for span, (calls, total, own) in self.stats.items():
            if calls:
                callers = [(parent, n) for (parent, child), n in self.edges.items()
                           if child == span]
                outside = calls - sum(n for _, n in callers)
                if outside:
                    callers.append(("-", outside))
                rows.append((span, calls, total, own, callers))
        return sorted(rows, key=lambda row: -row[3])[:limit]
