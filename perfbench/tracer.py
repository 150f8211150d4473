"""Spans around graphdist's public functions, recorded from outside the program.

While a ``Tracer`` is installed, every module of the ``graphdist`` package
that holds one of the traced functions under some name gets a wrapper in its
place, so a span is recorded where the calling module looks the function up.
Leaving the ``with`` block puts the original functions back.

A span has a name, a start, an end, a parent span and an op id. Spans stay in
flat arrays in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple


def _count_hausdorff(counts, args, kwargs, result):
    counts["diagram_distances.hausdorff_pairs"] += 2 * len(args[0]) * len(args[1])


def _count_bottleneck(counts, args, kwargs, result):
    counts["diagram_distances.bottleneck_points"] += len(args[0]) + len(args[1])


def _count_samples(counts, args, kwargs, result):
    counts["graph_distances.samples"] += len(result.samples)


def _count_diagram_points(counts, args, kwargs, result):
    counts["persistence.diagram_points"] += len(result)


# (module, function) -> (span name, counter of work done per call)
TRACED: Dict[Tuple[str, str], Tuple[str, Optional[Callable]]] = {
    ("harness", "run_verification"): ("harness.run_verification", None),
    ("feasibility", "verify_bouquet_inequality"): ("feasibility.verify_inequality", None),
    ("feasibility", "verify_tree_of_loops_inequality"): ("feasibility.verify_inequality", None),
    ("graph_distances", "persistence_distortion"): ("graph_distances.persistence_distortion", None),
    ("graph_distances", "sample_phi"): ("graph_distances.sample_phi", _count_samples),
    ("persistence", "extended_persistence_1d"): (
        "persistence.extended_persistence_1d",
        _count_diagram_points,
    ),
    ("geodesics", "geodesic_field"): ("geodesics.geodesic_field", None),
    ("geodesics", "dijkstra"): ("geodesics.dijkstra", None),
    ("metric_graph", "subdivide"): ("metric_graph.subdivide", None),
    ("cycles", "shortest_loop_system"): ("cycles.shortest_loop_system", None),
    ("diagram_distances", "hausdorff_bottleneck"): (
        "diagram_distances.hausdorff_bottleneck",
        _count_hausdorff,
    ),
    ("diagram_distances", "bottleneck"): ("diagram_distances.bottleneck", _count_bottleneck),
}

#: Spans the benchmark opens itself, around work outside the timed ops.
OWN_SPANS = ("generators",)

SPAN_NAMES = tuple(dict.fromkeys([name for name, _ in TRACED.values()] + list(OWN_SPANS)))
COUNTERS = (
    "diagram_distances.hausdorff_pairs",
    "diagram_distances.bottleneck_points",
    "graph_distances.samples",
    "persistence.diagram_points",
)


class Tracer:
    """Flat span store plus the work counters of the traced calls."""

    def __init__(self):
        self.names: List[str] = list(SPAN_NAMES)
        self._name_id = {n: k for k, n in enumerate(self.names)}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: List[int] = []
        self._sites: List[Tuple[object, str, object, object]] = []

    def open(self, name_id: int) -> int:
        k = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(k)
        self.start.append(time.perf_counter())
        return k

    def close(self, k: int) -> None:
        self.end[k] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself."""
        k = self.open(self._name_id[name])
        try:
            yield
        finally:
            self.close(k)

    def _wrap(self, fn, span_name: str, count):
        tracer, name_id = self, self._name_id[span_name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            k = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(k)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return traced

    def _find_sites(self) -> None:
        """Every (module, name) in graphdist that holds a traced function."""
        for mod_name, fn_name in TRACED:
            importlib.import_module(f"graphdist.{mod_name}")
        modules = [m for n, m in list(sys.modules.items()) if n == "graphdist" or n.startswith("graphdist.")]
        for (mod_name, fn_name), (span_name, count) in TRACED.items():
            fn = getattr(sys.modules[f"graphdist.{mod_name}"], fn_name)
            wrapper = self._wrap(fn, span_name, count)
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is fn:
                        self._sites.append((mod, attr, fn, wrapper))

    def __enter__(self) -> "Tracer":
        if not self._sites:
            self._find_sites()
        for mod, attr, _, wrapper in self._sites:
            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, fn, _ in self._sites:
            setattr(mod, attr, fn)

    def layer_metrics(self) -> Dict[str, float]:
        """calls, s (outermost spans of a name) and self_s per span name."""
        n = len(self.start)
        dur = [self.end[k] - self.start[k] for k in range(n)]
        child = [0.0] * n
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                child[p] += dur[k]
        calls = Counter()
        total = Counter()
        own = Counter()
        for k in range(n):
            name = self.name[k]
            calls[name] += 1
            own[name] += dur[k] - child[k]
            p = self.parent[k]
            while p >= 0 and self.name[p] != name:
                p = self.parent[p]
            if p < 0:
                total[name] += dur[k]
        out: Dict[str, float] = {}
        for name_id, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[name_id]
            out[f"{name}.s"] = total[name_id]
            out[f"{name}.self_s"] = own[name_id]
        for name in COUNTERS:
            out[name] = self.counts[name]
        return out

    def write(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["span", "name", "start_s", "end_s", "parent", "op"])
            t0 = self.start[0] if len(self.start) else 0.0
            for k in range(len(self.start)):
                w.writerow(
                    [
                        k,
                        self.names[self.name[k]],
                        f"{self.start[k] - t0:.9f}",
                        f"{self.end[k] - t0:.9f}",
                        self.parent[k],
                        self.op[k],
                    ]
                )
