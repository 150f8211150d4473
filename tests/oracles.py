"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the production code paths: the bottleneck oracle is
a bitmask DP over the full matching space (cross-checked below by literal
enumeration), and the cycle-basis oracle enumerates every independent subset
of all loops of the graph. `kuhn_bottleneck_value` keeps the earlier
recursive-matching bottleneck as a differential oracle for the iterative one,
`pruned_hausdorff` the earlier Hausdorff that ran a full bottleneck for every
pair it did not prune, and `smooth_degree_two` the earlier smoothing loop that
decided `is_bouquet`.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from graphdist import Edge, MetricGraph, bottleneck_value
from graphdist.diagram_distances import Ground, L1Ground, LinfGround, resolve_ground

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
    lb = np.abs(pa[:, None, :] - pb[None, :, :]).max(axis=2)
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
