"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the production code paths: the bottleneck oracle is
a bitmask DP over the full matching space (cross-checked below by literal
enumeration), and the cycle-basis oracle enumerates every independent subset
of all loops of the graph. `kuhn_bottleneck_value` keeps the earlier
recursive-matching bottleneck as a differential oracle for the iterative one,
`pruned_hausdorff` the earlier Hausdorff that ran a full bottleneck for every
pair it did not prune, `_upper_bound_matrix` the upper bound it once kept
for every pair, whose row and column minima the Hausdorff must reproduce,
`_bound_matrix` the lower bound that the Hausdorff once computed for every
pair (the only home left of the diagonal-profile bound),
`_point_bound_matrix` its per-point term, which every row the Hausdorff scans
must reproduce, `smooth_degree_two` the earlier smoothing loop
that decided `is_bouquet`, and `matrix_extended_persistence_1d` the earlier
extended persistence by coned boundary-matrix reduction, and
`string_keyed_extended_persistence_1d` the earlier union-find passes over
dicts keyed by vertex and edge ids, which the integer-indexed passes must
reproduce.
`frozenset_loop_system` keeps the earlier shortest system of loops, whose
edge sets were frozensets of ids, and `pairwise_is_tree_of_loops` the earlier
recognizer that compared every pair of its loops.
`networkx_loop_lengths` takes the shortest loop lengths from networkx's
minimum cycle basis.

The rest are checkers of the paper's lemmas and fixtures that only tests use:
the feasible-region matching of a computed diagram to the ideal diagram
{(0, s_i)} with its Hall witness, `cycle_metrics` (length and height of the
distance function on a loop), the closed-form `tree_of_loops_diagram`, the
tie-aware `shortest_path_tree` whose parents `cycles._parent_edges` must
reproduce, and the seeded `random_generic_instance`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import networkx as nx
import numpy as np

from graphdist import (
    Diagram,
    DiagramPoint,
    Edge,
    GraphError,
    GraphPoint,
    Matching,
    MetricGraph,
    NotAClosedWalk,
    bottleneck_value,
    geodesic_distance,
    tree_of_loops_parts,
)
from graphdist.cycles import LoopSystem, _parent_edges, _walk_of_cycle, first_betti
from graphdist.diagram_distances import Ground, L1Ground, LinfGround, max_matching, resolve_ground
from graphdist.geodesics import GeodesicField, dijkstra, geodesic_field
from graphdist.harness import _instance_seed, random_arbitrary_graph
from graphdist.metric_graph import subdivide

Point = Tuple[float, float]


def brute_bottleneck(pts1: Sequence[Point], pts2: Sequence[Point], ground="l1") -> float:
    """Exact bottleneck by DP over all partial matchings (diagonal allowed)."""
    gr: Ground = resolve_ground(ground)
    n2 = len(pts2)
    dp = {0: 0.0}
    for x in pts1:
        ndp: dict = {}
        dx = gr.to_diagonal(x)
        for mask, cur in dp.items():
            v = max(cur, dx)
            if v < ndp.get(mask, math.inf):
                ndp[mask] = v
            for j in range(n2):
                bit = 1 << j
                if not mask & bit:
                    v = max(cur, gr.dist(x, pts2[j]))
                    if v < ndp.get(mask | bit, math.inf):
                        ndp[mask | bit] = v
        dp = ndp
    best = math.inf
    for mask, cur in dp.items():
        v = cur
        for j in range(n2):
            if not mask & (1 << j):
                v = max(v, gr.to_diagonal(pts2[j]))
        best = min(best, v)
    return best


def brute_bottleneck_enum(
    pts1: Sequence[Point], pts2: Sequence[Point], ground="l1"
) -> float:
    """Literal enumeration of every matching; only viable for tiny diagrams."""
    gr: Ground = resolve_ground(ground)
    n1, n2 = len(pts1), len(pts2)
    best = math.inf
    for k in range(0, min(n1, n2) + 1):
        for sources in combinations(range(n1), k):
            for targets in permutations(range(n2), k):
                cost = 0.0
                for i, j in zip(sources, targets):
                    cost = max(cost, gr.dist(pts1[i], pts2[j]))
                for i in range(n1):
                    if i not in sources:
                        cost = max(cost, gr.to_diagonal(pts1[i]))
                for j in range(n2):
                    if j not in targets:
                        cost = max(cost, gr.to_diagonal(pts2[j]))
                best = min(best, cost)
    return best


def _kuhn_matching(n_left: int, n_right: int, adj: List[List[int]]) -> int:
    """Size of a maximum bipartite matching by recursive augmenting paths."""
    match_r = [-1] * n_right

    def augment(u: int, seen: List[bool]) -> bool:
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                if match_r[w] == -1 or augment(match_r[w], seen):
                    match_r[w] = u
                    return True
        return False

    return sum(augment(u, [False] * n_right) for u in range(n_left))


def _feasible(pts1: Sequence[Point], pts2: Sequence[Point], gr: Ground, lam: float) -> bool:
    """Perfect matching test at threshold lam on the doubled bipartite graph."""
    n1, n2 = len(pts1), len(pts2)
    total = n1 + n2
    adj: List[List[int]] = [[] for _ in range(total)]
    for i, x in enumerate(pts1):
        row = adj[i]
        for j, y in enumerate(pts2):
            if gr.dist(x, y) <= lam:
                row.append(j)
        if gr.to_diagonal(x) <= lam:
            row.append(n2 + i)
    for j, y in enumerate(pts2):
        row = adj[n1 + j]
        if gr.to_diagonal(y) <= lam:
            row.append(j)
        row.extend(range(n2, n2 + n1))
    return _kuhn_matching(total, total, adj) == total


def kuhn_bottleneck_value(pts1: Sequence[Point], pts2: Sequence[Point], ground="l1") -> float:
    """Exact bottleneck by binary search over candidate thresholds, rebuilding
    the graph and rerunning a recursive matcher at every probe."""
    gr: Ground = resolve_ground(ground)
    candidates = {0.0}
    for x in pts1:
        candidates.add(gr.to_diagonal(x))
        for y in pts2:
            candidates.add(gr.dist(x, y))
    for y in pts2:
        candidates.add(gr.to_diagonal(y))
    ordered = sorted(candidates)
    lo, hi = 0, len(ordered) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _feasible(pts1, pts2, gr, ordered[mid]):
            hi = mid
        else:
            lo = mid + 1
    return ordered[lo]


def _pruned_directed_hausdorff(from_diags, to_diags, gr: Ground) -> float:
    if not isinstance(gr, (L1Ground, LinfGround)):
        return max(min(bottleneck_value(da, db, gr) for db in to_diags) for da in from_diags)
    width = max(1, *(len(d) for d in from_diags), *(len(d) for d in to_diags))

    def profile(d):
        prof = sorted((gr.to_diagonal(p) for p in d), reverse=True)
        return prof + [0.0] * (width - len(prof))

    pa = np.array([profile(d) for d in from_diags])
    pb = np.array([profile(d) for d in to_diags])
    # the profile bound holds in exact arithmetic, but in floats it can sit an
    # ulp above a computed bottleneck, so it gives up a few ulps of the
    # largest diagonal cost
    slack = 16 * np.finfo(float).eps * max(pa.max(), pb.max())
    lb = np.abs(pa[:, None, :] - pb[None, :, :]).max(axis=2) - slack
    answer = 0.0
    for i in np.argsort(-lb.min(axis=1), kind="stable"):
        best = math.inf
        for j in np.argsort(lb[i]):
            if best <= answer or lb[i, j] >= best:
                break
            best = min(best, bottleneck_value(from_diags[i], to_diags[j], gr))
        if math.isfinite(best) and best > answer:
            answer = best
    return answer


def pruned_hausdorff(s1: Sequence, s2: Sequence, ground="l1") -> float:
    """Hausdorff-of-bottlenecks that skips a pair only by the diagonal-profile
    bound (plane metrics only) and otherwise runs the full bottleneck."""
    gr: Ground = resolve_ground(ground)
    a = [[tuple(p) for p in d] for d in s1]
    b = [[tuple(p) for p in d] for d in s2]
    return max(_pruned_directed_hausdorff(a, b, gr), _pruned_directed_hausdorff(b, a, gr))


def _stacks(a: List[List[Point]], b: List[List[Point]], gr: Ground):
    """Both sides stacked into points (N, width, 2) and diagonal costs
    (N, width), short diagrams padded with the diagonal point (0, 0): by the
    triangle inequality no point is closer to it than to the diagonal, so the
    padding moves no bound."""
    width = max(1, *map(len, a), *map(len, b))

    def stack(diags):
        pts = np.zeros((len(diags), width, 2))
        diag = np.zeros((len(diags), width))
        for k, d in enumerate(diags):
            if d:
                pts[k, : len(d)] = d
                diag[k, : len(d)] = [gr.to_diagonal(p) for p in d]
        return pts, diag

    return stack(a), stack(b)


def _point_bound_matrix(a: List[List[Point]], b: List[List[Point]], gr: Ground) -> np.ndarray:
    """The per-point bound of _bottleneck_value for every pair (a[i], b[j]),
    for the plane metrics, in one broadcast: each point's cheapest option, a
    partner or the diagonal."""
    (pa, da), (pb, db) = _stacks(a, b, gr)
    cost = gr.cost_matrix(pa[:, None], pb[None, :])
    return np.maximum(
        np.minimum(cost.min(axis=3), da[:, None, :]).max(axis=2),
        np.minimum(cost.min(axis=2), db[None, :, :]).max(axis=2),
    )


def _bound_matrix(a: List[List[Point]], b: List[List[Point]], gr: Ground) -> np.ndarray:
    """A lower bound on the bottleneck of every pair (a[i], b[j]), for the
    plane metrics: the earlier bound matrix of the Hausdorff, computed for
    every pair in one broadcast.

    Each entry is the larger of two bounds: _point_bound_matrix, and the
    aligned diagonal-cost profiles, which bound every bottleneck from below
    (the y-axis closed form applied to the 1-Lipschitz diagonal-cost
    functional), less a slack of a few ulps of the largest diagonal cost for
    rounding.
    """
    (_, da), (_, db) = _stacks(a, b, gr)
    fa, fb = -np.sort(-da, axis=1), -np.sort(-db, axis=1)
    slack = 16 * np.finfo(float).eps * max(da.max(), db.max())
    profile = np.abs(fa[:, None, :] - fb[None, :, :]).max(axis=2) - slack
    return np.maximum(_point_bound_matrix(a, b, gr), profile)


def _upper_bound_matrix(a: List[List[Point]], b: List[List[Point]], gr: Ground) -> np.ndarray:
    """The upper bound that the Hausdorff once kept for every pair (a[i], b[j])
    as a full matrix, for the plane metrics, in one broadcast: the cost of the
    valid matching that sorts both diagrams by one key (persistence
    descending, birth, death, birth + death; padding last) and pairs the k-th
    points, each pair matched or both retired, whichever costs less, the best
    of the keys. Under the plane metrics a padded partner never beats
    retiring, so the padding moves no entry."""
    (pa, da), (pb, db) = _stacks(a, b, gr)

    def by_key(pts, diag, diags, key):
        real = np.arange(pts.shape[1]) < np.array([len(d) for d in diags])[:, None]
        keys = np.where(real, key(pts[..., 0], pts[..., 1]), np.inf)
        order = np.argsort(keys, axis=1, kind="stable")
        return np.take_along_axis(pts, order[..., None], 1), np.take_along_axis(diag, order, 1)

    upper = np.full((len(a), len(b)), np.inf)
    for key in (lambda x, y: x - y, lambda x, y: x, lambda x, y: y, lambda x, y: x + y):
        (sa, sda), (sb, sdb) = by_key(pa, da, a, key), by_key(pb, db, b, key)
        cost = gr.cost_matrix(sa[:, None, :, None], sb[None, :, :, None])[..., 0, 0]
        retire = np.maximum(sda[:, None, :], sdb[None, :, :])
        upper = np.minimum(upper, np.minimum(cost, retire).max(axis=2))
    return upper


@dataclass(frozen=True)
class FilteredComplex:
    """Ascending + coned descending filtration of a promoted, subdivided graph.

    Simplices are ('v', vertex_id) / ('e', edge_id) in the ascending block and
    ('cone_v', ''), ('cone_e', vertex_id), ('cone_t', edge_id) in the
    descending block. Both blocks are totally ordered with faces first and
    ties broken by id.
    """

    graph: MetricGraph
    base_vertex: str
    values: Dict[str, float]
    edge_parent: Dict[str, str]
    ascending: Tuple[Tuple[str, str], ...]
    descending: Tuple[Tuple[str, str], ...]

    def simplex_value(self, simplex: Tuple[str, str]) -> float:
        kind, ref = simplex
        if kind == "v" or kind == "cone_e":
            return self.values[ref]
        if kind == "e":
            e = self.graph.edge_by_id[ref]
            return max(self.values[e.u], self.values[e.v])
        if kind == "cone_t":
            e = self.graph.edge_by_id[ref]
            return min(self.values[e.u], self.values[e.v])
        return 0.0  # cone vertex


def build_filtration(g: MetricGraph, base: GraphPoint) -> FilteredComplex:
    """Promote the base, subdivide at interior maxima, order the simplices."""
    field = geodesic_field(g, base)
    gp = field.graph
    cuts = [
        GraphPoint.on_edge(eid, m[0])
        for eid, m in field.interior_maxima.items()
        if m is not None
    ]
    g2, _pmap, parent1 = subdivide(gp, cuts)
    edge_parent = {eid: field.edge_parent[parent1[eid]] for eid in parent1}
    values = dijkstra(g2, field.base_vertex)

    ascending: List[Tuple[str, str]] = [("v", v) for v in g2.vertices]
    ascending += [("e", e.id) for e in g2.edges]
    asc_key = lambda s: (
        (values[s[1]], 0, s[1])
        if s[0] == "v"
        else (
            max(values[g2.edge_by_id[s[1]].u], values[g2.edge_by_id[s[1]].v]),
            1,
            s[1],
        )
    )
    ascending.sort(key=asc_key)

    descending: List[Tuple[str, str]] = [("cone_e", v) for v in g2.vertices]
    descending += [("cone_t", e.id) for e in g2.edges]
    desc_key = lambda s: (
        (-values[s[1]], 1, s[1])
        if s[0] == "cone_e"
        else (
            -min(values[g2.edge_by_id[s[1]].u], values[g2.edge_by_id[s[1]].v]),
            2,
            s[1],
        )
    )
    descending.sort(key=desc_key)

    return FilteredComplex(
        graph=g2,
        base_vertex=field.base_vertex,
        values=values,
        edge_parent=edge_parent,
        ascending=tuple(ascending),
        descending=tuple(descending),
    )


def _reduce_columns(columns: List[int]) -> Dict[int, int]:
    """Left-to-right column reduction over GF(2); returns {birth: death}."""
    lows: Dict[int, int] = {}
    pairs: Dict[int, int] = {}
    for j in range(len(columns)):
        col = columns[j]
        while col:
            low = col.bit_length() - 1
            k = lows.get(low)
            if k is None:
                break
            col ^= columns[k]
        columns[j] = col
        if col:
            low = col.bit_length() - 1
            lows[low] = j
            pairs[low] = j
    return pairs


def matrix_extended_persistence_1d(g: MetricGraph, base: GraphPoint) -> Diagram:
    """The diagram by full GF(2) reduction of the coned boundary matrix.

    The 1-dimensional extended pairs are the ones born at an ascending edge
    and killed by a cone triangle.
    """
    fc = build_filtration(g, base)
    g2 = fc.graph
    order: List[Tuple[str, str]] = list(fc.ascending)
    order.append(("cone_v", ""))
    order.extend(fc.descending)
    index = {s: i for i, s in enumerate(order)}

    columns: List[int] = []
    for s in order:
        kind, ref = s
        if kind in ("v", "cone_v"):
            columns.append(0)
        elif kind == "e":
            e = g2.edge_by_id[ref]
            columns.append((1 << index[("v", e.u)]) | (1 << index[("v", e.v)]))
        elif kind == "cone_e":
            columns.append((1 << index[("cone_v", "")]) | (1 << index[("v", ref)]))
        else:  # cone triangle over an edge
            e = g2.edge_by_id[ref]
            columns.append(
                (1 << index[("e", ref)])
                | (1 << index[("cone_e", e.u)])
                | (1 << index[("cone_e", e.v)])
            )

    pairs = _reduce_columns(columns)

    points: List[DiagramPoint] = []
    for i, j in pairs.items():
        birth_s, death_s = order[i], order[j]
        if birth_s[0] != "e" or death_s[0] != "cone_t":
            continue
        asc_value = fc.simplex_value(birth_s)
        desc_value = fc.simplex_value(death_s)
        lo, hi = min(asc_value, desc_value), max(asc_value, desc_value)
        e_death = g2.edge_by_id[death_s[1]]
        if fc.values[e_death.u] <= fc.values[e_death.v]:
            paired = e_death.u
        else:
            paired = e_death.v
        points.append(
            DiagramPoint(
                birth=lo,
                death=hi,
                edge=fc.edge_parent[birth_s[1]],
                paired_vertex=paired,
            )
        )
    return Diagram.of(points)


def _string_find(parent: Dict[str, str], pot: Dict[str, int], x: str) -> Tuple[str, int]:
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


def string_keyed_extended_persistence_1d(g: MetricGraph, base: GraphPoint) -> Diagram:
    """The two union-find passes over dicts keyed by vertex and edge ids."""
    field = geodesic_field(g, base)
    cuts = [
        GraphPoint.on_edge(eid, m[0])
        for eid, m in field.interior_maxima.items()
        if m is not None
    ]
    g2, _pmap, parent1 = subdivide(field.graph, cuts)
    f = dijkstra(g2, field.base_vertex)
    top = {e.id: max(f[e.u], f[e.v]) for e in g2.edges}
    bottom = {e.id: min(f[e.u], f[e.v]) for e in g2.edges}

    parent = {v: v for v in g2.vertices}
    pot = dict.fromkeys(g2.vertices, 0)
    births: List[str] = []
    bit: Dict[str, int] = {}
    for e in sorted(g2.edges, key=lambda e: (top[e.id], e.id)):
        ru, _ = _string_find(parent, pot, e.u)
        rv, _ = _string_find(parent, pot, e.v)
        if ru == rv:
            bit[e.id] = 1 << len(births)
            births.append(e.id)
        else:
            parent[ru] = rv

    parent = {v: v for v in g2.vertices}
    pot = dict.fromkeys(g2.vertices, 0)
    pivots: Dict[int, int] = {}
    points: List[DiagramPoint] = []
    for e in sorted(g2.edges, key=lambda e: (-bottom[e.id], e.id)):
        ru, pu = _string_find(parent, pot, e.u)
        rv, pv = _string_find(parent, pot, e.v)
        z = pu ^ pv ^ bit.get(e.id, 0)
        if ru != rv:
            parent[ru] = rv
            pot[ru] = z
            continue
        k = z.bit_length() - 1
        while k in pivots:
            z ^= pivots[k]
            k = z.bit_length() - 1
        if z == 0:
            raise GraphError(f"edge {e.id!r} closes a cycle with no class to kill")
        pivots[k] = z
        born, dies = top[births[k]], bottom[e.id]
        points.append(
            DiagramPoint(
                birth=min(born, dies),
                death=max(born, dies),
                edge=field.edge_parent[parent1[births[k]]],
                paired_vertex=e.u if f[e.u] <= f[e.v] else e.v,
            )
        )
    return Diagram.of(points)


def smooth_degree_two(g: MetricGraph) -> MetricGraph:
    """Merge the two edges at every loop-free degree-2 vertex (a geometric no-op)."""
    vertices = list(g.vertices)
    edges = {e.id: e for e in g.edges}
    changed = True
    while changed and len(vertices) > 1:
        changed = False
        for x in list(vertices):
            incident = [
                e
                for e in edges.values()
                if x in (e.u, e.v)
            ]
            if any(e.is_self_loop and x in (e.u, e.v) for e in incident):
                continue
            if len(incident) != 2:
                continue
            e1, e2 = sorted(incident, key=lambda e: e.id)
            if e1.id == e2.id:
                continue
            a, b = e1.other(x), e2.other(x)
            merged = Edge(f"{e1.id}+{e2.id}", a, b, e1.length + e2.length)
            del edges[e1.id]
            del edges[e2.id]
            edges[merged.id] = merged
            vertices.remove(x)
            changed = True
            break
    return MetricGraph(tuple(vertices), tuple(edges.values()))


def ideal_replacement_no_worse(z: Point, s: float, t: float) -> bool:
    """For z in the region of (0, s): replacing z by (0, s) cannot increase the
    l1 distance to any axis point (0, t). Always true; exercised as a property.
    """
    scale = max(1.0, abs(s), abs(t), abs(z[0]), abs(z[1]))
    lhs = abs(s - t)
    rhs = abs(z[0]) + abs(z[1] - t)
    return lhs <= rhs + 1e-12 * scale


def all_closed_walk_edge_sets(g: MetricGraph) -> List[Tuple[frozenset, float]]:
    """Every nonempty connected even-degree edge subset, with its length."""
    edges = list(g.edges)
    m = len(edges)
    out = []
    for mask in range(1, 1 << m):
        chosen = [edges[i] for i in range(m) if mask & (1 << i)]
        degree: dict = {}
        for e in chosen:
            if e.is_self_loop:
                degree[e.u] = degree.get(e.u, 0) + 2
            else:
                degree[e.u] = degree.get(e.u, 0) + 1
                degree[e.v] = degree.get(e.v, 0) + 1
        if any(d % 2 for d in degree.values()):
            continue
        verts = set(degree)
        seen = {next(iter(verts))}
        stack = list(seen)
        chosen_ids = {e.id for e in chosen}
        while stack:
            x = stack.pop()
            for e in g.adjacency[x]:
                if e.id in chosen_ids:
                    y = e.other(x)
                    if y in verts and y not in seen:
                        seen.add(y)
                        stack.append(y)
        if seen != verts:
            continue
        out.append(
            (
                frozenset(e.id for e in chosen),
                math.fsum(e.length for e in chosen),
            )
        )
    return out


def networkx_loop_lengths(g: MetricGraph) -> List[float]:
    """Sorted lengths of a minimum cycle basis, from networkx.

    Every edge is cut into three equal pieces first, which makes self-loops
    and parallel edges simple cycles and changes no cycle's length.
    """
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    for e in g.edges:
        a, b = ("cut", e.id, 1), ("cut", e.id, 2)
        nx.add_path(h, [e.u, a, b, e.v], weight=e.length / 3.0)
    lengths = []
    for cycle in nx.minimum_cycle_basis(h, weight="weight"):
        steps = zip(cycle, cycle[1:] + cycle[:1])
        lengths.append(sum(h[x][y]["weight"] for x, y in steps))
    return sorted(lengths)


def _rank(masks: Iterable[int]) -> int:
    pivots: dict = {}
    rank = 0
    for m in masks:
        r = m
        while r:
            b = r.bit_length() - 1
            if b in pivots:
                r ^= pivots[b]
            else:
                pivots[b] = r
                rank += 1
                break
    return rank


def brute_lex_min_length_sequence(g: MetricGraph) -> Tuple[float, ...]:
    """Lexicographically smallest sorted length-sequence over all bases.

    Exhaustive over independent n-subsets of all loops; keep inputs tiny.
    """
    n = len(g.edges) - len(g.vertices) + 1
    if n <= 0:
        return ()
    loops = all_closed_walk_edge_sets(g)
    edge_index = {e.id: i for i, e in enumerate(g.edges)}

    def msk(ids: frozenset) -> int:
        out = 0
        for eid in ids:
            out |= 1 << edge_index[eid]
        return out

    best = None
    for subset in combinations(loops, n):
        if _rank([msk(ids) for ids, _ in subset]) != n:
            continue
        seq = tuple(sorted(length for _, length in subset))
        if best is None or seq < best:
            best = seq
    assert best is not None, "graph has no basis?"
    return best


def frozenset_loop_system(g: MetricGraph) -> LoopSystem:
    """The earlier shortest system of loops, every edge set a frozenset of
    ids, rebuilt as an int mask only for the independence test."""
    n = first_betti(g)
    if n <= 0:
        return LoopSystem((), ())

    candidates: Dict[frozenset, float] = {}
    for root in g.vertices:
        parent_edge = _parent_edges(g, root)
        path_edges: Dict[str, frozenset] = {root: frozenset()}

        def path_of(x: str) -> frozenset:
            if x in path_edges:
                return path_edges[x]
            chain = []
            y = x
            while y not in path_edges:
                chain.append(y)
                eid = parent_edge[y]
                y = g.edge_by_id[eid].other(y)
            acc = set(path_edges[y])
            for z in reversed(chain):
                eid = parent_edge[z]
                acc.symmetric_difference_update((eid,))
                path_edges[z] = frozenset(acc)
            return path_edges[x]

        for e in g.edges:
            cyc = path_of(e.u) ^ path_of(e.v) ^ {e.id}
            if not cyc:
                continue
            if cyc not in candidates:
                candidates[cyc] = math.fsum(g.edge_by_id[i].length for i in cyc)

    edge_index = {e.id: i for i, e in enumerate(g.edges)}
    ordered = sorted(
        candidates.items(), key=lambda kv: (kv[1], tuple(sorted(kv[0])))
    )
    pivots: Dict[int, int] = {}
    loops = []
    lengths = []
    for cyc, length in ordered:
        mask = 0
        for eid in cyc:
            mask |= 1 << edge_index[eid]
        r = mask
        while r:
            b = r.bit_length() - 1
            if b in pivots:
                r ^= pivots[b]
            else:
                break
        if r == 0:
            continue
        pivots[r.bit_length() - 1] = r
        loops.append(_walk_of_cycle(g, cyc))
        lengths.append(length)
        if len(loops) == n:
            break
    return LoopSystem(tuple(loops), tuple(lengths))


def pairwise_is_tree_of_loops(g: MetricGraph) -> bool:
    """The earlier recognizer: no two shortest-system loops share an edge,
    checked pair by pair."""
    sets = frozenset_loop_system(g).edge_sets()
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if sets[i] & sets[j]:
                return False
    return True


def hall_condition_holds(adjacency: List[List[int]]) -> bool:
    """Exhaustive Hall check: every left subset has at least as many neighbors."""
    n = len(adjacency)
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if mask & (1 << i)]
        neighbors = set()
        for i in members:
            neighbors.update(adjacency[i])
        if len(neighbors) < len(members):
            return False
    return True


class SizeMismatch(GraphError):
    """Left and right sides of a feasibility graph have different cardinality."""


def in_feasible_region(z: Point, s: float, tol: float = 0.0) -> bool:
    """Exact membership in {0 <= z1 <= z2, s <= z2 <= z1 + s}, boundaries closed."""
    z1, z2 = z
    return (
        z1 >= -tol
        and z2 >= z1 - tol
        and z2 >= s - tol
        and z2 <= z1 + s + tol
    )


@dataclass(frozen=True)
class FeasibilityGraph:
    """Bipartite graph: left = ideal points (0, s_i), right = diagram points."""

    s_values: Tuple[float, ...]
    points: Tuple[Point, ...]
    edges: Tuple[Tuple[int, int], ...]

    def adjacency(self) -> List[List[int]]:
        adj: List[List[int]] = [[] for _ in self.s_values]
        for i, j in self.edges:
            adj[i].append(j)
        return adj


@dataclass(frozen=True)
class HallWitness:
    """A left subset with strictly fewer neighbors than members."""

    left_indices: Tuple[int, ...]
    s_values: Tuple[float, ...]
    neighbor_indices: Tuple[int, ...]


def build_feasibility_graph(
    system: LoopSystem, diagram: Diagram, tol: Optional[float] = None
) -> FeasibilityGraph:
    """Edges by feasible-region membership; sizes must agree."""
    s_values = system.half_lengths
    points = diagram.pairs()
    if len(s_values) != len(points):
        raise SizeMismatch(
            f"ideal diagram has {len(s_values)} points, computed has {len(points)}"
        )
    if tol is None:
        scale = max([1.0, *s_values, *(p[1] for p in points)])
        tol = 1e-9 * scale
    edges = tuple(
        (i, j)
        for i, s in enumerate(s_values)
        for j, z in enumerate(points)
        if in_feasible_region(z, s, tol)
    )
    return FeasibilityGraph(s_values=s_values, points=points, edges=edges)


def perfect_matching(fg: FeasibilityGraph) -> Union[Matching, HallWitness]:
    """Maximum matching by augmenting paths; Hall witness when not perfect.

    The witness is read off the final alternating-reachability sets from an
    unmatched left vertex.
    """
    n = len(fg.s_values)
    adj = fg.adjacency()
    _, match_l, match_r = max_matching(adj, len(fg.points))

    free = [u for u in range(n) if match_l[u] == -1]
    if free:
        u0 = free[0]
        reach_l = {u0}
        reach_r: set = set()
        frontier = [u0]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in reach_r:
                        reach_r.add(w)
                        mu = match_r[w]
                        if mu != -1 and mu not in reach_l:
                            reach_l.add(mu)
                            nxt.append(mu)
            frontier = nxt
        left = tuple(sorted(reach_l))
        return HallWitness(
            left_indices=left,
            s_values=tuple(fg.s_values[i] for i in left),
            neighbor_indices=tuple(sorted(reach_r)),
        )

    ground = L1Ground()
    pairs = tuple(
        ((0.0, fg.s_values[u]), fg.points[match_l[u]]) for u in range(n)
    )
    cost = max(
        (ground.dist(a, b) for a, b in pairs), default=0.0
    )
    return Matching(pairs=pairs, cost=cost)


def _edge_max(field: GeodesicField, edge_id: str) -> float:
    """Largest value of the function on the (closed) edge."""
    e = field.graph.edge_by_id[edge_id]
    m = field.interior_maxima[edge_id]
    hi = max(field.vertex_values[e.u], field.vertex_values[e.v])
    return max(hi, m[1]) if m is not None else hi


def _edge_min(field: GeodesicField, edge_id: str) -> float:
    """Smallest value on the edge; the function has no interior minima."""
    e = field.graph.edge_by_id[edge_id]
    return min(field.vertex_values[e.u], field.vertex_values[e.v])


def _cycle_edge_ids(cycle) -> List[str]:
    ids = []
    for item in cycle:
        if isinstance(item, str):
            ids.append(item)
        else:
            ids.append(item[0])
    return ids


def cycle_metrics(
    g: MetricGraph, cycle: Sequence, field: GeodesicField
) -> Tuple[float, float, float, float]:
    """(length, highest value, lowest value, height) of `field` on a closed walk.

    `cycle` is a sequence of edge ids of `g` (orientations optional); the
    field may live on a promoted/subdivided copy of `g`, mapped back through
    its `edge_parent` table. Interior maxima count toward the highest value.
    """
    ids = _cycle_edge_ids(cycle)
    _check_closed_walk(g, ids)
    id_set = set(ids)
    children = [
        e.id for e in field.graph.edges if field.edge_parent[e.id] in id_set
    ]
    length = math.fsum(g.edge_by_id[i].length for i in ids)
    highest = max(_edge_max(field, c) for c in children)
    lowest = min(_edge_min(field, c) for c in children)
    return length, highest, lowest, highest - lowest


def _check_closed_walk(g: MetricGraph, edge_ids: Sequence[str]) -> None:
    if not edge_ids:
        raise NotAClosedWalk("empty edge sequence")
    degree: Dict[str, int] = {}
    for eid in edge_ids:
        e = g.edge_by_id.get(eid)
        if e is None:
            raise NotAClosedWalk(f"unknown edge {eid!r}")
        if e.is_self_loop:
            degree[e.u] = degree.get(e.u, 0) + 2
        else:
            degree[e.u] = degree.get(e.u, 0) + 1
            degree[e.v] = degree.get(e.v, 0) + 1
    if any(d % 2 for d in degree.values()):
        raise NotAClosedWalk("odd vertex degree; not a closed walk")
    # connectivity of the traversed subgraph
    used = set(edge_ids)
    start = next(iter(degree))
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for e in g.adjacency[x]:
            if e.id in used:
                y = e.other(x)
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    if seen != set(degree):
        raise NotAClosedWalk("edge set is not connected; not a closed walk")


def tree_of_loops_diagram(spec, base: GraphPoint) -> Diagram:
    """Closed-form diagram for a tree of loops: one point (p_i, p_i + t_i) per loop.

    p_i is the geodesic distance from the base to the loop (zero on the loop
    itself), t_i half the loop length. Oracle counterpart of
    extended_persistence_1d on this family.
    """
    g, loops = tree_of_loops_parts(spec)
    b = base.normalized(g)
    points = []
    for edge_id, junction, length in loops:
        t = length / 2.0
        if not b.is_vertex and b.edge == edge_id:
            p = 0.0
        else:
            p = geodesic_distance(g, b, GraphPoint.at_vertex(junction))
        points.append(DiagramPoint(birth=p, death=p + t, edge=edge_id))
    return Diagram.of(points)


#: Relative tolerance used when two path lengths count as tied.
TIE_RTOL = 1e-9


@dataclass(frozen=True)
class ShortestPathTree:
    root: GraphPoint
    graph: MetricGraph
    root_vertex: str
    tree_edges: frozenset
    parent_edge: Mapping[str, str]
    distances: Mapping[str, float]
    generic: bool


def shortest_path_tree(g: MetricGraph, base: GraphPoint) -> ShortestPathTree:
    """Shortest path tree from the (promoted) base with deterministic ties.

    Among edges realizing a vertex's distance exactly, the lowest edge id
    becomes the parent. The `generic` flag is False when some vertex is
    reached by two shortest paths agreeing within TIE_RTOL of the graph's
    total length.
    """
    field = geodesic_field(g, base)
    g2, root, dist = field.graph, field.base_vertex, field.vertex_values
    tol = TIE_RTOL * g2.total_length
    parent_edge: Dict[str, str] = {}
    generic = True
    for w in g2.vertices:
        if w == root:
            continue
        achieving = []
        near = 0
        for e in g2.adjacency[w]:
            if e.is_self_loop:
                continue
            u = e.other(w)
            through = dist[u] + e.length
            if through == dist[w]:
                achieving.append(e.id)
            if abs(through - dist[w]) <= tol:
                near += 1
        if near >= 2:
            generic = False
        parent_edge[w] = min(achieving)
    return ShortestPathTree(
        root=base,
        graph=g2,
        root_vertex=root,
        tree_edges=frozenset(parent_edge.values()),
        parent_edge=parent_edge,
        distances=dist,
        generic=generic,
    )


def random_base_point(rng: random.Random, g: MetricGraph) -> GraphPoint:
    choices = len(g.vertices) + len(g.edges)
    pick = rng.randrange(choices)
    if pick < len(g.vertices):
        return GraphPoint.at_vertex(g.vertices[pick])
    e = g.edges[pick - len(g.vertices)]
    return GraphPoint.on_edge(e.id, rng.uniform(0.05, 0.95) * e.length)


def random_generic_instance(
    seed: int, min_extra: int = 1, max_extra: int = 3
) -> Tuple[MetricGraph, GraphPoint]:
    """A connected generic (graph, base) pair; reseeds until ties disappear."""
    for attempt in range(64):
        rng = random.Random(_instance_seed(seed, attempt * 7919))
        g = random_arbitrary_graph(rng, min_extra, max_extra)
        base = random_base_point(rng, g)
        if shortest_path_tree(g, base).generic:
            return g, base
    raise GraphError(f"no generic instance found for seed {seed}")
