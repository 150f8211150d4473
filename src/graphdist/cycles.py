"""Shortest system of loops: a minimum-weight homology basis of the graph.

Candidates are Horton cycles (fundamental cycles of every vertex's shortest
path tree, which automatically includes every self-loop); a greedy pass over
the two-element field keeps the independent ones, yielding the
lexicographically smallest length-sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from .errors import NotAClosedWalk
from .geodesics import dijkstra
from .metric_graph import MetricGraph, require_connected

Loop = Tuple[Tuple[str, int], ...]  # (edge id, +1 for u->v, -1 for v->u)


@dataclass(frozen=True)
class LoopSystem:
    """Ordered loops with nondecreasing lengths 2s_1 <= ... <= 2s_n."""

    loops: Tuple[Loop, ...]
    lengths: Tuple[float, ...]

    def __len__(self) -> int:
        return len(self.loops)

    @property
    def half_lengths(self) -> Tuple[float, ...]:
        return tuple(l / 2.0 for l in self.lengths)

    def edge_sets(self) -> Tuple[FrozenSet[str], ...]:
        return tuple(frozenset(eid for eid, _ in loop) for loop in self.loops)

    def to_json_list(self) -> list:
        return [
            {
                "edges": [{"id": eid, "dir": d} for eid, d in loop],
                "length": length,
            }
            for loop, length in zip(self.loops, self.lengths)
        ]


def first_betti(g: MetricGraph) -> int:
    """Rank of the first homology of a connected graph: |E| - |V| + 1."""
    return len(g.edges) - len(g.vertices) + 1


def _walk_of_cycle(g: MetricGraph, edge_ids: FrozenSet[str]) -> Loop:
    """Orient a simple cycle (given as an edge set) into a closed walk.

    Starts at the lexicographically smallest edge id for determinism.
    """
    start = g.edge_by_id[min(edge_ids)]
    walk = [(start.id, 1)]
    first, current = start.u, start.v
    unused = set(edge_ids) - {start.id}
    while current != first:
        nxt = None
        for e in g.adjacency[current]:
            if e.id in unused:
                nxt = e
                break
        if nxt is None:
            raise NotAClosedWalk(f"edge set {sorted(edge_ids)} is not a simple cycle")
        unused.discard(nxt.id)
        walk.append((nxt.id, 1 if nxt.u == current else -1))
        current = nxt.other(current)
    if unused:
        raise NotAClosedWalk(f"edge set {sorted(edge_ids)} is not a simple cycle")
    return tuple(walk)


def _parent_edges(g: MetricGraph, root: str) -> Dict[str, str]:
    """Shortest path tree from vertex `root`, as each other vertex's parent edge.

    Among the edges that realize a vertex's distance exactly, the lowest edge
    id becomes the parent, so ties break the same way from every root.
    """
    dist = dijkstra(g, root)
    parent: Dict[str, str] = {}
    for w in g.vertices:
        if w == root:
            continue
        dw, best = dist[w], None
        for e in g.adjacency[w]:
            # a self-loop (e.u == e.v) never realizes a distance
            if e.u != e.v and dist[e.other(w)] + e.length == dw:
                if best is None or e.id < best:
                    best = e.id
        parent[w] = best
    return parent


def shortest_loop_system(g: MetricGraph) -> LoopSystem:
    """Compute the minimum-weight cycle basis; trees give the empty system.
    A disconnected graph raises Disconnected. Every edge set is an int whose
    bit i stands for g.edges[i]. `g.loop_system` caches this per graph."""
    require_connected(g)
    n = first_betti(g)
    if n <= 0:
        return LoopSystem((), ())

    bit = {e.id: 1 << i for i, e in enumerate(g.edges)}
    candidates = set()
    for root in g.vertices:
        parent_edge = _parent_edges(g, root)
        path = {root: 0}

        def path_of(x: str) -> int:
            chain = []
            while x not in path:
                chain.append(x)
                x = g.edge_by_id[parent_edge[x]].other(x)
            acc = path[x]
            for z in reversed(chain):
                acc ^= bit[parent_edge[z]]
                path[z] = acc
            return acc

        for e in g.edges:
            candidates.add(path_of(e.u) ^ path_of(e.v) ^ bit[e.id])
    candidates.discard(0)

    def key(mask: int) -> Tuple[float, Tuple[str, ...]]:
        es = []
        while mask:
            low = mask & -mask
            es.append(g.edges[low.bit_length() - 1])
            mask ^= low
        return math.fsum(e.length for e in es), tuple(sorted(e.id for e in es))

    pivots: Dict[int, int] = {}
    loops: List[Loop] = []
    lengths: List[float] = []
    for (length, ids), mask in sorted((key(c), c) for c in candidates):
        while mask:
            b = mask.bit_length() - 1
            if b not in pivots:
                break
            mask ^= pivots[b]
        if mask == 0:
            continue
        pivots[b] = mask
        loops.append(_walk_of_cycle(g, frozenset(ids)))
        lengths.append(length)
        if len(loops) == n:
            break
    return LoopSystem(tuple(loops), tuple(lengths))
