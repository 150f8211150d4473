"""Exact geodesic geometry on the realization of a metric graph.

The geodesic distance function from a base point is piecewise linear with
slope +-1 along every edge; each edge carries at most one interior local
maximum, at offset (f(v) - f(u) + L)/2 from u with value (f(u) + f(v) + L)/2.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from .errors import InvalidPoint
from .metric_graph import GraphPoint, MetricGraph, subdivide


def dijkstra(g: MetricGraph, source: str) -> Dict[str, float]:
    """Single-source shortest path lengths on the multigraph.

    Self-loops never shorten a path and are skipped; parallel edges are all
    considered.
    """
    if source not in g.adjacency:
        raise InvalidPoint(f"unknown vertex {source!r}")
    dist: Dict[str, float] = {source: 0.0}
    done = set()
    heap = [(0.0, source)]
    while heap:
        d, x = heapq.heappop(heap)
        if x in done:
            continue
        done.add(x)
        for e in g.adjacency[x]:
            if e.is_self_loop:
                continue
            y = e.other(x)
            nd = d + e.length
            if y not in dist or nd < dist[y]:
                dist[y] = nd
                heapq.heappush(heap, (nd, y))
    return dist


def geodesic_distance(g: MetricGraph, p: GraphPoint, q: GraphPoint) -> float:
    """Length of a shortest path between two realization points.

    Interior points route through either endpoint of their edge; two points
    on the same edge additionally consider the direct within-edge segment
    (both arcs of a self-loop are covered by the endpoint routes).
    """
    p = p.normalized(g)
    q = q.normalized(g)
    if p == q:
        return 0.0

    def exits(pt: GraphPoint) -> Tuple[Tuple[str, float], ...]:
        if pt.is_vertex:
            return ((pt.vertex, 0.0),)
        e = g.edge_by_id[pt.edge]
        return ((e.u, pt.offset), (e.v, e.length - pt.offset))

    best = float("inf")
    if not p.is_vertex and not q.is_vertex and p.edge == q.edge:
        best = abs(p.offset - q.offset)
    q_exits = exits(q)
    dist_from: Dict[str, Dict[str, float]] = {}
    for pv, pd in exits(p):
        if pv not in dist_from:
            dist_from[pv] = dijkstra(g, pv)
        dist = dist_from[pv]
        for qv, qd in q_exits:
            if qv in dist:
                best = min(best, pd + dist[qv] + qd)
    return best


@dataclass(frozen=True)
class GeodesicField:
    """Distance-from-base function, evaluated exactly.

    `graph` is the input graph with the base promoted to a vertex; vertex ids
    of the input survive unchanged and `edge_parent` maps every edge of
    `graph` back to the input edge containing it.
    """

    base: GraphPoint
    graph: MetricGraph
    base_vertex: str
    vertex_values: Mapping[str, float]
    interior_maxima: Mapping[str, Optional[Tuple[float, float]]]
    edge_parent: Mapping[str, str]


def geodesic_field(g: MetricGraph, base: GraphPoint) -> GeodesicField:
    """Evaluate the geodesic distance function from `base`.

    An interior base is promoted to a vertex first.
    """
    p = base.normalized(g)
    if p.is_vertex:
        g2, base_vertex, parent = g, p.vertex, {e.id: e.id for e in g.edges}
    else:
        g2, point_map, parent = subdivide(g, [p])
        base_vertex = point_map[p]
    values = dijkstra(g2, base_vertex)
    maxima: Dict[str, Optional[Tuple[float, float]]] = {}
    for e in g2.edges:
        fu, fv = values[e.u], values[e.v]
        off = (fv - fu + e.length) / 2.0
        if 0.0 < off < e.length:
            maxima[e.id] = (off, (fu + fv + e.length) / 2.0)
        else:
            maxima[e.id] = None
    return GeodesicField(
        base=base,
        graph=g2,
        base_vertex=base_vertex,
        vertex_values=values,
        interior_maxima=maxima,
        edge_parent=parent,
    )
