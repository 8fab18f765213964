"""Run-time tracing of the ultragraph layers, installed from outside the package.

``Tracer.install`` replaces every public function and method of the traced
modules by a wrapper that records a span (name, start, end, parent span,
run id). Names that other modules imported (``ultrapower.agreement_set``,
``cli.build_ns_graph``, ...) are re-pointed at the same wrapper, so a call
is traced whichever module makes it. ``uninstall`` puts the originals back.

Spans are kept in memory in flat arrays and written out by ``dump``. While
spans are recorded, the tracer also sums the calls and the self time
(duration minus the child spans) of each span name, and the time of each
layer, a group of span names.

A wrapper costs time of its own, and a layer that makes many traced calls
would read as slower than it is. ``calibrate`` times the wrappers around
an empty function. For every traced or counted call made inside a span,
the tracer then takes that cost out of the span's layer time and self
time. This is a lower bound: it leaves out what the wrappers cost the
program's own code, through the caches, and ``trace.overhead_s`` of
``run.py`` shows the whole. The spans written by ``dump`` keep the raw
clock readings.

Constant-time accessors and factories called once per index, per residue
or per pair of extremities (``LEAVES``) are not wrapped: a wrapper would
cost more than the call, and their time stays inside the span of
whichever layer function called them.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
from array import array
from time import perf_counter

MODULES = (
    "indexsets", "oracle", "sequences", "hyperreal", "graphs",
    "ultrapower", "network", "project", "cli",
)

LEAVES = frozenset({
    "indexsets.IndexSet.contains",
    "indexsets.IndexSet.class_inside",
    "indexsets.IndexSet.is_empty",
    "indexsets.IndexSet.is_naturals",
    "indexsets.IndexSet.finite",
    "indexsets.IndexSet.cofinite",
    "sequences.value_at",
    "sequences.horizon",
    "sequences.structural_window",
    "oracle.AuditEntry.render",
    "graphs.rank_key",
    "graphs.rank_lt",
    "graphs.rank_le",
    "graphs.rank_str",
    "graphs.Extremity.sort_key",
    "graphs.Extremity.describe",
    "graphs.StandardGraph.layer_nodes",
    "graphs.StandardGraph.layer_tips",
    "ultrapower.GraphFamily.graph_at",
    "oracle.Membership.flipped",
    "oracle.FilterOracle.selected_residue",
})

# Non-public methods that are layer boundaries of their own.
EXTRA = frozenset({
    "oracle.FilterOracle.__init__",
    "hyperreal.Hyperreal._arith",
})

# Calls counted without a span, under a count name: each one appends one
# audit entry.
COUNTED = {"oracle.FilterOracle._record": "audit_entries"}


def _shorted_in(result, *args, **kwargs) -> int:
    return 1 if result is True else 0


def _trait_samples(result, seq, upto=None) -> int:
    """Values ``sequences.trait_check`` evaluated for one call.

    The values are computed before any trait is checked, so a call that
    raises ``TraitViolated`` evaluated them too.
    """
    n_max = getattr(seq, "n_max", None)
    if n_max is None:
        return 0
    return (n_max if upto is None else min(upto, n_max)) + 1


# Spans that also add to a count, from their arguments and result (None if
# the call raised).
TALLIES = {
    "ultrapower.ns_shorted": ("shorted_in", _shorted_in),
    "sequences.trait_check": ("trait_samples", _trait_samples),
}


CALIBRATION_LOOPS = 5
CALIBRATION_CALLS = 20000  # per loop


def _empty(*args, **kwargs):
    return None


class Tracer:
    """Wrappers for the traced modules and the spans they record.

    ``groups`` maps span names to a layer; a layer's time counts only its
    outermost spans, so a layer function that calls another of the same
    layer is not counted twice.
    """

    def __init__(self, groups: dict[str, str]):
        self.package = importlib.import_module("ultragraph")
        self.groups = groups
        self.group_total: dict[str, float] = {g: 0.0 for g in set(groups.values())}
        self._group_depth: dict[str, int] = {g: 0 for g in self.group_total}
        self._patches: list[tuple[object, str, object, object]] | None = None
        self.modules = {m: importlib.import_module(f"ultragraph.{m}") for m in MODULES}
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_time: list[float] = []
        self.counts: dict[str, int] = dict.fromkeys([*COUNTED.values(), *(t[0] for t in TALLIES.values())], 0)
        self.run = 0
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_run = array("H")
        # [span index, child time, wrapper cost inside, wrapper cost in self time]
        self._stack: list[list] = []
        # Seconds per call: span wrapper, its part outside its own span, counter.
        self.cost = [0.0, 0.0, 0.0]
        self._probes = None

    # -- installation -------------------------------------------------------------

    def _targets(self):
        """(owner, attribute, qualified name, raw attribute value) to wrap."""
        for short, module in self.modules.items():
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    if not attr.startswith("_") and f"{short}.{attr}" not in LEAVES:
                        yield module, attr, f"{short}.{attr}", obj
                elif (
                    inspect.isclass(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and not issubclass(obj, BaseException)
                ):
                    for mattr, raw in list(vars(obj).items()):
                        name = f"{short}.{obj.__name__}.{mattr}"
                        func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                        if not inspect.isfunction(func):
                            continue
                        if (not mattr.startswith("_") or name in EXTRA or name in COUNTED) and name not in LEAVES:
                            yield obj, mattr, name, raw

    def _build_patches(self) -> list[tuple[object, str, object, object]]:
        patches = []
        replaced: dict[int, object] = {}
        for owner, attr, name, raw in list(self._targets()):
            func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            wrapper = self._counter(COUNTED[name], func) if name in COUNTED else self._wrap(name, func)
            replaced[id(func)] = wrapper
            if isinstance(raw, staticmethod):
                wrapper = staticmethod(wrapper)
            elif isinstance(raw, classmethod):
                wrapper = classmethod(wrapper)
            patches.append((owner, attr, raw, wrapper))
        # Re-point names that other modules imported from the traced ones.
        for module in (self.package, *self.modules.values()):
            for attr, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    patches.append((module, attr, obj, wrapper))
        return patches

    def install(self) -> None:
        if self._patches is None:
            self._patches = self._build_patches()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, raw, _ in reversed(self._patches or ()):
            setattr(owner, attr, raw)

    def _counter(self, key: str, func):
        counts, stack, cost = self.counts, self._stack, self.cost

        def counted(*args, **kwargs):
            counts[key] += 1
            if stack:
                frame = stack[-1]
                frame[2] += cost[2]
                frame[3] += cost[2]
            return func(*args, **kwargs)

        return counted

    def _wrap(self, name: str, func):
        k = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_time.append(0.0)
        group = self.groups.get(name)
        group_total, group_depth = self.group_total, self._group_depth
        stack = self._stack
        calls, self_time = self.calls, self.self_time
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, runs = self.span_parent, self.span_run
        counts, cost = self.counts, self.cost
        key, tally = TALLIES.get(name, (None, None))
        tracer = self

        def traced(*args, **kwargs):
            index = len(starts)
            parents.append(stack[-1][0] if stack else -1)
            names.append(k)
            runs.append(tracer.run)
            frame = [index, 0.0, 0.0, 0.0]
            stack.append(frame)
            if group is not None:
                group_depth[group] += 1
            result = None
            start = perf_counter()
            starts.append(start)
            ends.append(start)
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                ends[index] = end
                stack.pop()
                duration = end - start
                calls[k] += 1
                self_time[k] += duration - frame[1] - frame[3]
                if group is not None:
                    group_depth[group] -= 1
                    if group_depth[group] == 0:
                        group_total[group] += duration - frame[2]
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    parent[2] += frame[2] + cost[0]
                    parent[3] += cost[1]
                if tally is not None:
                    counts[key] += tally(result, *args, **kwargs)

        traced.__wrapped__ = func
        return traced

    def calibrate(self) -> None:
        """Time the wrappers around an empty function, then ``reset``.

        The loops run inside a stand-in parent span, as traced calls do;
        the fastest of ``CALIBRATION_LOOPS`` loops counts.
        """
        if self._probes is None:
            self.counts["calibration"] = 0
            self._probes = (self._wrap("tracer.calibration", _empty), self._counter("calibration", _empty))
        span, counted = self._probes

        def per_call(func) -> float:
            best = float("inf")
            for _ in range(CALIBRATION_LOOPS):
                start = perf_counter()
                for _ in range(CALIBRATION_CALLS):
                    func(None, None)
                best = min(best, perf_counter() - start)
            return best / CALIBRATION_CALLS

        self.cost[:] = [0.0, 0.0, 0.0]
        self._stack.append([-1, 0.0, 0.0, 0.0])
        try:
            bare = per_call(_empty)
            first = len(self.span_start)
            span_cost = max(per_call(span) - bare, 0.0)
            count_cost = max(per_call(counted) - bare, 0.0)
            inside = [end - start for start, end in zip(self.span_start[first:], self.span_end[first:])]
        finally:
            self._stack.pop()
        inner = min(max(sum(inside) / len(inside) - bare, 0.0), span_cost)
        self.cost[:] = [span_cost, span_cost - inner, count_cost]
        self.reset()

    # -- reading ------------------------------------------------------------------

    def reset(self) -> None:
        """Forget aggregates and spans; the next call starts a new run id."""
        for k in range(len(self.names)):
            self.calls[k] = 0
            self.self_time[k] = 0.0
        for group in self.group_total:
            self.group_total[group] = 0.0
        for key in self.counts:
            self.counts[key] = 0
        for column in (self.span_name, self.span_start, self.span_end, self.span_parent, self.span_run):
            del column[:]
        self.run += 1

    def calls_of(self, name: str) -> int:
        return self.calls[self.names.index(name)]

    def self_seconds(self, name: str) -> float:
        """Summed self time of the spans of one name."""
        return self.self_time[self.names.index(name)]

    def dump(self, summary_path, spans_path) -> None:
        """Write per-name aggregates as JSON and every span as gzipped CSV."""
        summary = {
            name: {"calls": self.calls[k], "self_s": self.self_time[k]}
            for k, name in enumerate(self.names)
            if self.calls[k]
        }
        summary["counts"] = dict(self.counts)
        summary["wrapper_cost_s"] = dict(zip(("span", "span_outside", "counter"), self.cost))
        summary["layers_s"] = dict(self.group_total)
        summary_path.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
        with gzip.open(spans_path, "wt", compresslevel=1) as out:
            out.write("name,start,end,parent,run\n")
            for row in zip(self.span_name, self.span_start, self.span_end, self.span_parent, self.span_run):
                out.write(f"{self.names[row[0]]},{row[1]!r},{row[2]!r},{row[3]},{row[4]}\n")

