"""Deterministic construction of graph families used by the harness and CLI."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from .errors import GraphFormatError, SpecNotTreeOfLoops
from .metric_graph import MetricGraph, perturb_to_generic


def bouquet(lengths: Sequence[float]) -> MetricGraph:
    """Single vertex 'o' with one self-loop per length."""
    edges = [(f"loop{i}", "o", "o", float(l)) for i, l in enumerate(lengths)]
    return MetricGraph.build(["o"], edges)


@dataclass(frozen=True)
class TreeOfLoopsSpec:
    """Rooted junction tree; node i carries loops_per_node[i], edges carry connector lengths.

    tree_edges are (parent index, child index, length) with node 0 as root.
    """

    loops_per_node: Tuple[Tuple[float, ...], ...]
    tree_edges: Tuple[Tuple[int, int, float], ...] = field(default=())

    def validate(self) -> None:
        """Structure only; MetricGraph.build rejects a non-positive length."""
        n = len(self.loops_per_node)
        if n == 0:
            raise SpecNotTreeOfLoops("no junction nodes")
        if len(self.tree_edges) != n - 1:
            raise SpecNotTreeOfLoops(
                f"{len(self.tree_edges)} connectors for {n} junctions; need n-1"
            )
        seen = {0}
        for a, b, _length in self.tree_edges:
            if not (0 <= a < n and 0 <= b < n):
                raise SpecNotTreeOfLoops(f"connector ({a},{b}) out of range")
            if a not in seen or b in seen:
                raise SpecNotTreeOfLoops("connectors do not form a rooted tree")
            seen.add(b)

    @property
    def loop_lengths(self) -> Tuple[float, ...]:
        return tuple(sorted(l for loops in self.loops_per_node for l in loops))


def tree_of_loops_parts(
    spec: TreeOfLoopsSpec,
) -> Tuple[MetricGraph, Tuple[Tuple[str, str, float], ...]]:
    """Realize the spec; also return (loop edge id, junction vertex, length) per loop."""
    spec.validate()
    vertices = [f"j{i}" for i in range(len(spec.loops_per_node))]
    edges: List[Tuple[str, str, str, float]] = []
    for k, (a, b, length) in enumerate(spec.tree_edges):
        edges.append((f"c{k}", f"j{a}", f"j{b}", float(length)))
    loops: List[Tuple[str, str, float]] = []
    for i, node_loops in enumerate(spec.loops_per_node):
        for k, l in enumerate(node_loops):
            eid = f"n{i}loop{k}"
            edges.append((eid, f"j{i}", f"j{i}", float(l)))
            loops.append((eid, f"j{i}", float(l)))
    return MetricGraph.build(vertices, edges), tuple(loops)


def tree_of_loops(spec: TreeOfLoopsSpec) -> MetricGraph:
    return tree_of_loops_parts(spec)[0]


#: Most edges of a random graph; a larger request fails before anything is
#: allocated instead of running out of memory.
MAX_EDGES = 100_000


def random_metric_graph(
    n_vertices: int,
    n_edges: int,
    length_range: Tuple[float, float],
    seed: int,
    generic_epsilon: float = 0.0,
) -> MetricGraph:
    """Connected random multigraph: random spanning tree plus random extra edges.

    Extra edges may be parallel edges or self-loops. Deterministic per seed;
    when generic_epsilon > 0 the lengths are additionally perturbed to break
    shortest-path ties. At most MAX_EDGES edges, so at most MAX_EDGES + 1
    vertices.
    """
    if n_vertices < 1:
        raise GraphFormatError("need at least one vertex")
    if n_edges < n_vertices - 1:
        raise GraphFormatError("too few edges to connect the graph")
    if n_edges > MAX_EDGES:
        raise GraphFormatError(f"{n_edges} edges is more than the limit of {MAX_EDGES}")
    lo, hi = length_range
    if not (0 < lo <= hi):
        raise GraphFormatError(f"bad length range {length_range!r}")
    rng = random.Random(seed)
    vertices = [f"v{i}" for i in range(n_vertices)]
    edges: List[Tuple[str, str, str, float]] = []
    for i in range(1, n_vertices):
        j = rng.randrange(i)
        edges.append((f"e{len(edges)}", vertices[j], vertices[i], rng.uniform(lo, hi)))
    while len(edges) < n_edges:
        u = rng.randrange(n_vertices)
        v = rng.randrange(n_vertices)
        edges.append((f"e{len(edges)}", vertices[u], vertices[v], rng.uniform(lo, hi)))
    g = MetricGraph.build(vertices, edges)
    if generic_epsilon > 0.0:
        g = perturb_to_generic(g, generic_epsilon, seed ^ 0x5EED)
    return g


def named(name: str) -> MetricGraph:
    """Small named fixtures: 'theta', 'cycle:L', 'path:L', 'dumbbell:L1,c,L2'."""
    if name == "theta":
        return MetricGraph.build(
            ["a", "b"],
            [("e1", "a", "b", 1.0), ("e2", "a", "b", 2.0), ("e3", "a", "b", 3.0)],
        )
    kind, _, args = name.partition(":")
    try:
        if kind == "cycle":
            (length,) = _floats(args, 1)
            return MetricGraph.build(["o"], [("loop", "o", "o", length)])
        if kind == "path":
            (length,) = _floats(args, 1)
            return MetricGraph.build(["a", "b"], [("e", "a", "b", length)])
        if kind == "dumbbell":
            l1, c, l2 = _floats(args, 3)
            return MetricGraph.build(
                ["a", "b"],
                [
                    ("loopA", "a", "a", l1),
                    ("bar", "a", "b", c),
                    ("loopB", "b", "b", l2),
                ],
            )
    except ValueError as exc:
        raise GraphFormatError(f"bad arguments in named graph {name!r}") from exc
    raise GraphFormatError(f"unknown named graph {name!r}")


def _floats(args: str, count: int) -> List[float]:
    parts = [float(x) for x in args.split(",")] if args else []
    if len(parts) != count:
        raise GraphFormatError(f"expected {count} numbers, got {args!r}")
    return parts
