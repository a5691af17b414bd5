"""Per-layer spans, taken from outside the package.

The package calls into its layers through module-level names that it
looks up at call time, so wrapping those names (and ``Graph.eliminate``)
puts a span around every call without editing the package.  Spans are
aggregated as they close, into calls, inclusive time and self time per
span name; self time is the span's duration minus that of its child
spans.  ``graph.bits`` is deliberately not wrapped: it runs tens of
millions of times per pass and its cost already shows in its callers'
self time.
"""

from __future__ import annotations

import time

import twbb.cli
import twbb.graph
import twbb.heuristics
import twbb.solver

# (span name, owner, attribute): every call the pipeline makes through
# owner.attribute becomes one span.  A span name starts with its layer.
TARGETS = (
    ("cli.main", twbb.cli, "main"),
    ("formats.parse", twbb.cli, "parse_pace_gr"),
    ("solver.solve", twbb.cli, "solve"),
    ("decomposition.build", twbb.cli, "build_decomposition"),
    ("decomposition.validate", twbb.cli, "validate_decomposition"),
    ("formats.write", twbb.cli, "write_pace_td"),
    ("heuristics.best_upper_bound", twbb.solver, "best_upper_bound"),
    ("heuristics.min_fill_order", twbb.heuristics, "min_fill_order"),
    ("bounds.h", twbb.solver, "state_lower_bound"),
    ("reduction.reduce", twbb.solver, "_reduce_masks"),
    ("solver.make_children", twbb.solver, "_make_children"),
    ("solver.prune_mutual", twbb.solver, "prune_mutual_simplicial"),
    ("solver.prune_fill", twbb.solver, "prune_fill_subset"),
    ("graph.eliminate", twbb.graph.Graph, "eliminate"),
)

# The layers of the search proper, for share.search.
SEARCH_LAYERS = ("bounds", "solver", "reduction", "graph")

# Counts that repeat exactly for one seed on a workload without a deadline.
COUNT_METRICS = (
    "solver.nodes",
    "bounds.h_calls",
    "graph.eliminate_calls",
    "heuristics.restarts",
    "reduction.forced",
)


class Tracer:
    """Wraps the TARGETS while entered; one Tracer per traced pass."""

    def __init__(self):
        self.stats: dict[str, list] = {name: [0, 0.0, 0.0] for name, _, _ in TARGETS}
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []
        self.h_capped = self.h_cut = 0
        self.red_fired = self.red_forced = self.red_added = 0
        self.mutual_in = self.mutual_out = self.fill_in = self.fill_out = 0
        self.restarts = self.restart_wins = 0
        self.nodes = 0
        self._ub_best = None

    # -- hooks: counts recorded where the work happens -------------------

    def _after_h(self, args, kwargs, value):
        cap = kwargs.get("cap", args[1] if len(args) > 1 else None)
        if cap is not None:
            self.h_capped += 1
            self.h_cut += value >= cap

    def _after_reduce(self, args, kwargs, result):
        forced, added = result[2], result[3]
        self.red_forced += len(forced)
        self.red_added += len(added)
        self.red_fired += bool(forced or added)

    def _after_mutual(self, args, kwargs, kept):
        self.mutual_in += len(args[0])
        self.mutual_out += len(kept)

    def _after_fill(self, args, kwargs, kept):
        self.fill_in += len(args[0])
        self.fill_out += len(kept)

    def _before_ub(self):
        self._ub_best = None

    def _after_min_fill(self, args, kwargs, order):
        # Run 0 of best_upper_bound is deterministic; later runs restart.
        if self._ub_best is None:
            self._ub_best = order.width
            return
        self.restarts += 1
        if order.width < self._ub_best:
            self.restart_wins += 1
            self._ub_best = order.width

    def _after_solve(self, args, kwargs, report):
        self.nodes += report.nodes_expanded

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            if before is not None:
                before()
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        return span

    def __enter__(self):
        hooks = {
            "bounds.h": (None, self._after_h),
            "reduction.reduce": (None, self._after_reduce),
            "solver.prune_mutual": (None, self._after_mutual),
            "solver.prune_fill": (None, self._after_fill),
            "heuristics.best_upper_bound": (self._before_ub, None),
            "heuristics.min_fill_order": (None, self._after_min_fill),
            "solver.solve": (None, self._after_solve),
        }
        for name, owner, attr in TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, *hooks.get(name, (None, None))))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False

    # -- metrics ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics for the pipeline runs made while entered."""
        calls = {n: s[0] for n, s in self.stats.items()}
        incl = {n: s[1] for n, s in self.stats.items()}
        own = {n: s[2] for n, s in self.stats.items()}
        layer: dict[str, float] = {}
        for name, t in own.items():
            key = name.split(".")[0]
            layer[key] = layer.get(key, 0.0) + t
        total = incl["cli.main"]
        solve = incl["solver.solve"]
        return {
            "graph.eliminate_calls": calls["graph.eliminate"],
            "graph.eliminate_s": own["graph.eliminate"],
            "bounds.h_calls": calls["bounds.h"],
            "bounds.h_s": own["bounds.h"],
            "bounds.h_cut_ratio": _ratio(self.h_cut, self.h_capped),
            "reduction.calls": calls["reduction.reduce"],
            "reduction.s": own["reduction.reduce"],
            "reduction.forced": self.red_forced,
            "reduction.edges_added": self.red_added,
            "reduction.fire_ratio": _ratio(self.red_fired, calls["reduction.reduce"]),
            "heuristics.ub_s": layer["heuristics"],
            "heuristics.restarts": self.restarts,
            "heuristics.restart_win_ratio": _ratio(self.restart_wins, self.restarts),
            "solver.nodes": self.nodes,
            "solver.nodes_per_s": _ratio(self.nodes, solve),
            "solver.expand_self_s": own["solver.make_children"],
            "solver.prune_mutual.removed_ratio": _ratio(self.mutual_in - self.mutual_out, self.mutual_in),
            "solver.prune_fill.removed_ratio": _ratio(self.fill_in - self.fill_out, self.fill_in),
            "solver.prune_s": own["solver.prune_mutual"] + own["solver.prune_fill"],
            "solver.solve_s": solve,
            "solver.span_coverage": 1.0 - _ratio(own["solver.solve"], solve),
            "decomposition.build_s": own["decomposition.build"],
            "decomposition.validate_s": own["decomposition.validate"],
            "formats.parse_s": own["formats.parse"],
            "formats.write_s": own["formats.write"],
            "cli.self_s": own["cli.main"],
            "share.heuristics": _ratio(layer["heuristics"], total),
            "share.search": _ratio(sum(layer[x] for x in SEARCH_LAYERS), total),
        }

    def spans(self) -> dict[str, dict[str, float]]:
        return {n: {"calls": c, "incl_s": i, "self_s": s} for n, (c, i, s) in self.stats.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
