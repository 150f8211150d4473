"""Finite metric graphs: combinatorial multigraphs with positive edge lengths.

The continuous object of interest is the geometric realization, whose points
are the vertices plus the interiors of edges; `GraphPoint` addresses both.
Self-loops and parallel edges are first-class citizens throughout.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Container, Iterable, Mapping, Optional, Sequence, Tuple

from .errors import (
    Disconnected,
    GraphFormatError,
    InvalidPoint,
    NonPositiveLength,
)

if TYPE_CHECKING:
    from .cycles import LoopSystem


@dataclass(frozen=True)
class Edge:
    id: str
    u: str
    v: str
    length: float

    @property
    def is_self_loop(self) -> bool:
        return self.u == self.v

    def other(self, vertex: str) -> str:
        if vertex == self.u:
            return self.v
        if vertex == self.v:
            return self.u
        raise KeyError(f"{vertex!r} is not an endpoint of edge {self.id!r}")


@dataclass(frozen=True)
class MetricGraph:
    """Immutable multigraph with a positive length per edge."""

    vertices: Tuple[str, ...]
    edges: Tuple[Edge, ...]

    @staticmethod
    def build(
        vertices: Iterable[str],
        edges: Iterable[Tuple[str, str, str, float]],
    ) -> "MetricGraph":
        """Construct from plain tuples (edge_id, u, v, length)."""
        vs = tuple(vertices)
        es = tuple(Edge(e[0], e[1], e[2], float(e[3])) for e in edges)
        g = MetricGraph(vs, es)
        g._check_structure()
        return g

    def _check_structure(self) -> None:
        """The one check of a valid graph: at least one vertex, unique ids,
        known endpoints, finite positive lengths and a finite doubled total."""
        if not self.vertices:
            raise GraphFormatError("graph has no vertices")
        seen_v = set()
        for v in self.vertices:
            if v in seen_v:
                raise GraphFormatError(f"duplicate vertex id {v!r}")
            seen_v.add(v)
        seen_e = set()
        for e in self.edges:
            if e.id in seen_e:
                raise GraphFormatError(f"duplicate edge id {e.id!r}")
            seen_e.add(e.id)
            if e.u not in seen_v or e.v not in seen_v:
                raise GraphFormatError(
                    f"edge {e.id!r} references unknown endpoint"
                )
            if not math.isfinite(e.length):
                raise GraphFormatError(
                    f"edge {e.id!r} has non-finite length {e.length!r}"
                )
            if not (e.length > 0.0):
                raise NonPositiveLength(e.id, e.length)
        # geodesic and cut values reach twice the total length (fsum raises)
        if not math.isfinite(2.0 * sum(e.length for e in self.edges)):
            raise GraphFormatError("twice the total edge length overflows a float")

    @cached_property
    def edge_by_id(self) -> Mapping[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def adjacency(self) -> Mapping[str, Tuple[Edge, ...]]:
        """Incident edges per vertex; a self-loop appears once in its vertex's list."""
        adj: dict = {v: [] for v in self.vertices}
        for e in self.edges:
            adj[e.u].append(e)
            if e.v != e.u:
                adj[e.v].append(e)
        return {v: tuple(es) for v, es in adj.items()}

    @cached_property
    def loop_system(self) -> LoopSystem:
        """The shortest system of loops, computed once per graph; raises
        Disconnected on a disconnected graph."""
        # cycles imports this module; looking the function up at call time
        # also lets wrappers patched onto cycles take effect
        from . import cycles

        return cycles.shortest_loop_system(self)

    @cached_property
    def _first_component(self) -> frozenset:
        """The vertices reachable from the first vertex; all when connected."""
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            x = stack.pop()
            for e in self.adjacency[x]:
                y = e.other(x)
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return frozenset(seen)

    @cached_property
    def total_length(self) -> float:
        return math.fsum(e.length for e in self.edges)

    def degree(self, vertex: str) -> int:
        """Topological degree; a self-loop contributes 2."""
        d = 0
        for e in self.adjacency[vertex]:
            d += 2 if e.is_self_loop else 1
        return d


@dataclass(frozen=True)
class GraphPoint:
    """A point of the geometric realization: a vertex or an edge-interior point."""

    vertex: Optional[str] = None
    edge: Optional[str] = None
    offset: Optional[float] = None

    @staticmethod
    def at_vertex(vertex_id: str) -> "GraphPoint":
        return GraphPoint(vertex=vertex_id)

    @staticmethod
    def on_edge(edge_id: str, offset: float) -> "GraphPoint":
        return GraphPoint(edge=edge_id, offset=float(offset))

    @property
    def is_vertex(self) -> bool:
        return self.vertex is not None

    def normalized(self, g: MetricGraph) -> "GraphPoint":
        """Canonicalize: offsets 0 and length collapse to the vertex form."""
        if self.is_vertex:
            if self.vertex not in g.adjacency:
                raise InvalidPoint(f"unknown vertex {self.vertex!r}")
            return self
        if self.edge is None or self.offset is None:
            raise InvalidPoint("point has neither vertex nor (edge, offset)")
        e = g.edge_by_id.get(self.edge)
        if e is None:
            raise InvalidPoint(f"unknown edge {self.edge!r}")
        if not (0.0 <= self.offset <= e.length):
            raise InvalidPoint(
                f"offset {self.offset!r} outside [0, {e.length!r}] on edge {e.id!r}"
            )
        if self.offset == 0.0:
            return GraphPoint(vertex=e.u)
        if self.offset == e.length:
            return GraphPoint(vertex=e.v)
        return self

    def __str__(self) -> str:
        if self.is_vertex:
            return str(self.vertex)
        return f"{self.edge}@{self.offset:.12g}"


def parse_point(text: str) -> GraphPoint:
    """Parse 'vertexId' or 'edgeId@offset'."""
    if "@" in text:
        edge_id, _, off = text.rpartition("@")
        try:
            return GraphPoint.on_edge(edge_id, float(off))
        except ValueError as exc:
            raise InvalidPoint(f"bad offset in {text!r}") from exc
    return GraphPoint.at_vertex(text)


def require_connected(g: MetricGraph) -> None:
    """Raise Disconnected if some vertex is not reachable from the first."""
    if g.vertices and len(g._first_component) != len(g.vertices):
        raise Disconnected(g._first_component)


def _fresh_id(name: str, old: Container[str], new: Container[str]) -> str:
    """`name`, or else `name~k` for the smallest k >= 1, that is in neither
    `old` nor `new`."""
    fresh, k = name, 0
    while fresh in old or fresh in new:
        k += 1
        fresh = f"{name}~{k}"
    return fresh


def subdivide(
    g: MetricGraph, points: Sequence[GraphPoint]
) -> Tuple[MetricGraph, Mapping[GraphPoint, str], Mapping[str, str]]:
    """Insert vertices at interior points, splitting their edges.

    Returns (new graph, point -> new vertex id, new edge id -> original edge id).
    Geodesic distances are preserved exactly. Points already at vertices map to
    themselves; duplicate interior points collapse to one vertex. A cut on
    edge e at offset t becomes vertex 'e@t' and splits e into 'e#0', 'e#1',
    ...; a name that is already taken, in g or earlier in the call, gives way
    to 'e@@t' for a vertex and then to the first free '~k' suffix.
    """
    by_edge: dict = {}
    mapping: dict = {}
    for p in points:
        q = p.normalized(g)
        if q.is_vertex:
            mapping[p] = q.vertex
        else:
            by_edge.setdefault(q.edge, set()).add(q.offset)

    minted: set = set()
    new_vertices = list(g.vertices)
    new_edges = []
    parent: dict = {}
    for e in g.edges:
        cuts = sorted(by_edge.get(e.id, ()))
        if not cuts:
            new_edges.append(e)
            parent[e.id] = e.id
            continue
        cut_ids = []
        for off in cuts:
            vid = f"{e.id}@{off:.12g}"
            if vid in g.adjacency or vid in minted:
                vid = _fresh_id(f"{e.id}@@{off:.12g}", g.adjacency, minted)
            minted.add(vid)
            new_vertices.append(vid)
            cut_ids.append(vid)
            for p in points:
                q = p.normalized(g)
                if not q.is_vertex and q.edge == e.id and q.offset == off:
                    mapping[p] = vid
        stops = [(0.0, e.u)] + list(zip(cuts, cut_ids)) + [(e.length, e.v)]
        for k in range(len(stops) - 1):
            (a_off, a_id), (b_off, b_id) = stops[k], stops[k + 1]
            seg_id = f"{e.id}#{k}"
            # Pieces of two split edges never share an id, so only an edge
            # kept whole can hold this one.
            if seg_id in g.edge_by_id and seg_id not in by_edge:
                seg_id = _fresh_id(seg_id, g.edge_by_id, parent)
            new_edges.append(Edge(seg_id, a_id, b_id, b_off - a_off))
            parent[seg_id] = e.id
    out = MetricGraph(tuple(new_vertices), tuple(new_edges))
    return out, mapping, parent


def perturb_to_generic(g: MetricGraph, epsilon: float, seed: int) -> MetricGraph:
    """Multiply each length by (1 + uniform(0, epsilon)), deterministically.

    Every geodesic distance d becomes some d' with d <= d' <= (1 + epsilon) d,
    so the Gromov-Hausdorff distance to the input is at most
    epsilon * diameter / 2.
    """
    if not (epsilon > 0.0):
        raise ValueError("epsilon must be > 0")
    rng = random.Random(seed)
    edges = [(e.id, e.u, e.v, e.length * (1.0 + rng.uniform(0.0, epsilon))) for e in g.edges]
    return MetricGraph.build(g.vertices, edges)


def to_json_dict(g: MetricGraph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [
            {"id": e.id, "u": e.u, "v": e.v, "length": e.length} for e in g.edges
        ],
    }


def from_json_dict(data: dict) -> MetricGraph:
    try:
        raw_vertices, raw_edges = data["vertices"], data["edges"]
    except (KeyError, TypeError) as exc:
        raise GraphFormatError(f"missing or malformed field: {exc}") from exc
    if not (isinstance(raw_vertices, list) and isinstance(raw_edges, list)):
        raise GraphFormatError("'vertices' and 'edges' must be lists")
    vertices = [str(v) for v in raw_vertices]
    edges = []
    for rec in raw_edges:
        try:
            eid, u, v = str(rec["id"]), str(rec["u"]), str(rec["v"])
            length = float(rec["length"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise GraphFormatError(f"malformed edge record {rec!r}") from exc
        edges.append((eid, u, v, length))
    return MetricGraph.build(vertices, edges)


def save_graph(g: MetricGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(g), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_graph(path: str) -> MetricGraph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        # not UTF-8, or nested deeper than the decoder's recursion limit
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise GraphFormatError(f"{path}: not valid JSON ({exc})") from exc
    return from_json_dict(data)
