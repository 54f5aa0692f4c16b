"""Spans around the layer boundaries of tccs, for the traced run only.

The timed run calls the library directly (`direct_layers`).  The traced
run calls the same functions through `Tracer.wrap`, and `rebound`
additionally swaps three public module attributes for wrapped ones, so
that the inner calls show up as child spans:

* `tccs.lts.step`, called by `build_lts` for every state;
* `tccs.equiv.build_lts`, called by the falsifier for every context and
  by `check_ccs_equivalently`;
* `tccs.equiv.analysis` and `tccs.equiv.may_converge`, through which the
  falsifier, the elimination and `explain` reach the analyses layer.

No private name is wrapped.  Spans live in memory until the run ends.
"""

from __future__ import annotations

import gzip
import json
import time
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

# The library entry points a query pipeline calls, by layer name.
LAYER_FUNCTIONS = {
    "parse": "parse",
    "build_lts": "build_lts",
    "analysis": "analysis",
    "check_states": "check_states",
    "largest_bisimulation": "largest_bisimulation",
    "check_ccs": "check_ccs_equivalently",
    "explain": "explain",
    "falsify": "falsify_with_context",
}

# Every layer the benchmark reports, in report order.
LAYERS = (
    "parse",
    "build_lts",
    "step",
    "analysis",
    "check_states",
    "largest_bisimulation",
    "check_ccs",
    "explain",
    "falsify",
)

# Layers that can have child spans, and so report a self time.
PARENT_LAYERS = (
    "build_lts",
    "check_states",
    "largest_bisimulation",
    "check_ccs",
    "explain",
    "falsify",
)


def direct_layers() -> SimpleNamespace:
    """The untraced pipeline entry points: the library functions as they are."""
    import tccs

    return SimpleNamespace(
        **{layer: getattr(tccs, fn) for layer, fn in LAYER_FUNCTIONS.items()}
    )


class Tracer:
    """Records (name, start, end, parent, query) spans in call order.

    `query` is the index of the query being run, shared by all spans of
    that query.  Every `build_lts` span, wherever it is called from,
    also adds the size of the graph it returned to `states` and `edges`.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.query = -1
        self.states = 0
        self.edges = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count_graph = name == "build_lts"

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.query]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count_graph:
                self.states += len(result)
                self.edges += sum(map(len, result.succ))
            return result

        return traced

    def layers(self) -> SimpleNamespace:
        """The pipeline entry points, each wrapped in a top-level span."""
        direct = direct_layers()
        return SimpleNamespace(
            **{name: self.wrap(name, fn) for name, fn in vars(direct).items()}
        )

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per layer: calls, busy seconds, self seconds (busy minus children)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        acc: dict[str, list] = {layer: [0, 0.0, 0.0] for layer in LAYERS}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = acc[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return {name: tuple(row) for name, row in acc.items()}

    def top_level_busy(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def children_of(self, query: int, parent_name: str, child_name: str) -> int:
        """How many `child_name` spans ran directly under a `parent_name`
        span of the given query."""
        parents = {
            i
            for i, (name, _, _, _, q) in enumerate(self.spans)
            if q == query and name == parent_name
        }
        return sum(
            1 for name, _, _, parent, _ in self.spans
            if parent in parents and name == child_name
        )

    def write(self, path: Path) -> None:
        """Write the spans as gzipped JSON lines, times relative to the first."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="ascii") as fh:
            for i, (name, start, end, parent, query) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i,
                    "name": name,
                    "start": round(start - t0, 9),
                    "end": round(end - t0, 9),
                    "parent": parent,
                    "query": query,
                }) + "\n")


@contextmanager
def rebound(tracer: Tracer):
    """Route the library's inner calls through the tracer while active."""
    import tccs.equiv
    import tccs.lts

    saved = [
        (tccs.lts, "step", "step"),
        (tccs.equiv, "build_lts", "build_lts"),
        (tccs.equiv, "analysis", "analysis"),
        (tccs.equiv, "may_converge", "analysis"),
    ]
    originals = [getattr(mod, attr) for mod, attr, _ in saved]
    try:
        for (mod, attr, layer), fn in zip(saved, originals):
            setattr(mod, attr, tracer.wrap(layer, fn))
        yield
    finally:
        for (mod, attr, _), fn in zip(saved, originals):
            setattr(mod, attr, fn)
