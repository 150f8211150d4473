"""Extended persistence of geodesic distance functions, dimension 1.

Every edge is subdivided at its interior maximum, so the function is monotone
per edge. Two union-find passes over the edges then give the pairing that
the coned boundary matrix would. The ascending pass, by highest value, marks
each edge that closes a cycle as a birth. The descending pass, by lowest
value, labels each vertex with the births on its path to its root, so an
edge that closes a cycle knows the cycle's homology class; reduced against
the earlier classes by highest bit, it names the birth it kills. Each output
point is normalized to (low, high) and carries the input edge that holds its
local maximum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import GraphError
from .geodesics import dijkstra, geodesic_field
from .metric_graph import GraphPoint, MetricGraph, require_connected, subdivide


@dataclass(frozen=True, order=True)
class DiagramPoint:
    birth: float
    death: float
    edge: Optional[str] = None
    paired_vertex: Optional[str] = None

    def pair(self) -> Tuple[float, float]:
        return (self.birth, self.death)


@dataclass(frozen=True)
class Diagram:
    """Multiset of 1-dimensional persistence points with provenance."""

    points: Tuple[DiagramPoint, ...]

    @staticmethod
    def of(points: Sequence[DiagramPoint]) -> "Diagram":
        return Diagram(
            tuple(
                sorted(
                    points,
                    key=lambda p: (p.birth, p.death, p.edge or "", p.paired_vertex or ""),
                )
            )
        )

    def __len__(self) -> int:
        return len(self.points)

    def pairs(self) -> Tuple[Tuple[float, float], ...]:
        return tuple(p.pair() for p in self.points)


def _find(parent: List[int], pot: List[int], x: int) -> Tuple[int, int]:
    """Root of x and the XOR of the labels on its path; compresses the path."""
    path = []
    while parent[x] != x:
        path.append(x)
        x = parent[x]
    acc = 0
    for y in reversed(path):
        acc ^= pot[y]
        pot[y] = acc
        parent[y] = x
    return x, acc


def extended_persistence_1d(g: MetricGraph, base: GraphPoint) -> Diagram:
    """1-dimensional extended persistence diagram of the distance-from-base map."""
    require_connected(g)
    if len(g.edge_by_id) != len(g.edges):
        raise GraphError("edge ids are not unique")
    field = geodesic_field(g, base)
    cuts = [
        GraphPoint.on_edge(eid, m[0])
        for eid, m in field.interior_maxima.items()
        if m is not None
    ]
    g2, _pmap, parent1 = subdivide(field.graph, cuts)
    f = dijkstra(g2, field.base_vertex)
    # Vertices and edges by index; ties in either pass break by edge id.
    index = {v: i for i, v in enumerate(g2.vertices)}
    edges = g2.edges
    ends = [(index[e.u], index[e.v]) for e in edges]
    top = [max(f[e.u], f[e.v]) for e in edges]
    bottom = [min(f[e.u], f[e.v]) for e in edges]
    n, m = len(index), len(edges)

    # Ascending pass: an edge whose ends are already joined is born, bit k.
    parent, pot = list(range(n)), [0] * n
    births: List[int] = []
    bit = [0] * m
    for i in sorted(range(m), key=lambda i: (top[i], edges[i].id)):
        ru, _ = _find(parent, pot, ends[i][0])
        rv, _ = _find(parent, pot, ends[i][1])
        if ru == rv:
            bit[i] = 1 << len(births)
            births.append(i)
        else:
            parent[ru] = rv

    # Descending pass: each vertex holds the birth bits on its path to its
    # root, so a cycle-closing edge knows its cycle's class; reduced by its
    # highest bit, the class names the birth edge it kills.
    parent, pot = list(range(n)), [0] * n
    pivots: Dict[int, int] = {}
    points: List[DiagramPoint] = []
    for i in sorted(range(m), key=lambda i: (-bottom[i], edges[i].id)):
        ru, pu = _find(parent, pot, ends[i][0])
        rv, pv = _find(parent, pot, ends[i][1])
        z = pu ^ pv ^ bit[i]
        if ru != rv:
            parent[ru] = rv
            pot[ru] = z
            continue
        k = z.bit_length() - 1
        while k in pivots:
            z ^= pivots[k]
            k = z.bit_length() - 1
        e = edges[i]
        if z == 0:
            # a cycle of a consistent filtration always kills a birth
            raise GraphError(f"edge {e.id!r} closes a cycle with no class to kill")
        pivots[k] = z
        born, dies = top[births[k]], bottom[i]
        points.append(
            DiagramPoint(
                birth=min(born, dies),
                death=max(born, dies),
                edge=field.edge_parent[parent1[edges[births[k]].id]],
                paired_vertex=e.u if f[e.u] <= f[e.v] else e.v,
            )
        )
    return Diagram.of(points)
