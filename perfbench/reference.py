"""Reference computations for the benchmark's checks.

Everything here is built apart from graphdist, on scipy and networkx, and is
only ever called after the timed ops. Nothing in this module is timed.

- Bottleneck distances use a threshold search whose feasibility test is
  ``scipy.sparse.csgraph.maximum_bipartite_matching`` (Hopcroft-Karp), with no
  pruning, in place of the program's recursive Kuhn matcher.
- The Hausdorff-of-bottlenecks evaluates every diagram pair.
- Loop lengths come from ``networkx.minimum_cycle_basis``.
- The maximum of a geodesic distance function comes from scipy's Dijkstra and
  the per-edge interior-maximum formula ``(f(a) + f(b) + L) / 2``.

Diagrams are float arrays of shape ``(n, 2)`` holding (birth, death) rows.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra
from scipy.sparse.csgraph import maximum_bipartite_matching

# (edge id, u, v, length), the raw form the benchmark keeps graphs in
RawEdge = Tuple[str, str, str, float]

# upper limit on the cross costs held at once by the batched matchers
_CHUNK_ENTRIES = 1_000_000


def _costs(a: np.ndarray, b: np.ndarray, ground: str):
    """Cross costs (P, n1, n2) and diagonal costs (P, n1), (P, n2).

    The arithmetic is the textbook one for each ground, so an exact matcher
    reproduces a correct program's value to the last bit.
    """
    dx = np.abs(a[:, :, None, 0] - b[:, None, :, 0])
    dy = np.abs(a[:, :, None, 1] - b[:, None, :, 1])
    if ground == "l1":
        return dx + dy, a[:, :, 1] - a[:, :, 0], b[:, :, 1] - b[:, :, 0]
    if ground == "linf":
        return (
            np.maximum(dx, dy),
            (a[:, :, 1] - a[:, :, 0]) / 2.0,
            (b[:, :, 1] - b[:, :, 0]) / 2.0,
        )
    raise ValueError(f"unknown ground {ground!r}")


def feasible(a: np.ndarray, b: np.ndarray, lam: np.ndarray, ground: str = "l1"):
    """Whether each pair (a[p], b[p]) has a matching of cost at most lam[p].

    ``a`` is (P, n1, 2), ``b`` is (P, n2, 2), ``lam`` is (P,). Each pair gets
    the usual doubled bipartite graph: rows are the points of a[p] and a
    diagonal copy of each point of b[p]; columns are the points of b[p] and a
    diagonal copy of each point of a[p]. A point may retire to its own copy.
    Copies pair with each other only along mirrors of point edges, which
    keeps every perfect matching of the complete copy block: the copies left
    over are exactly those of matched points, paired as their points are.
    All pairs go into one block-diagonal graph and one matching call.
    """
    P, n1, n2 = a.shape[0], a.shape[1], b.shape[1]
    n = n1 + n2
    lam = np.asarray(lam, dtype=float)
    if n == 0 or P == 0:
        return np.ones(P, dtype=bool)
    step = max(1, _CHUNK_ENTRIES // max(1, n1 * n2))
    if P > step:
        return np.concatenate(
            [feasible(a[s : s + step], b[s : s + step], lam[s : s + step], ground) for s in range(0, P, step)]
        )
    cross, da, db = _costs(a, b, ground)
    p, i, j = np.nonzero(cross <= lam[:, None, None])
    pa, ia = np.nonzero(da <= lam[:, None])
    pb, jb = np.nonzero(db <= lam[:, None])
    rows = np.concatenate([p * n + i, p * n + n1 + j, pa * n + ia, pb * n + n1 + jb])
    cols = np.concatenate([p * n + j, p * n + n2 + i, pa * n + n2 + ia, pb * n + jb])
    graph = csr_matrix(
        (np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(P * n, P * n)
    )
    match = maximum_bipartite_matching(graph, perm_type="column")
    return (match >= 0).reshape(P, n).all(axis=1)


def bottleneck_many(a: np.ndarray, b: np.ndarray, ground: str = "l1") -> np.ndarray:
    """Exact bottleneck value of every pair (a[p], b[p]).

    A binary search per pair over its sorted candidate costs (every cross
    cost, every diagonal cost and 0), all pairs probing in lockstep.
    """
    P, n1, n2 = a.shape[0], a.shape[1], b.shape[1]
    if n1 + n2 == 0:
        return np.zeros(P)
    cross, da, db = _costs(a, b, ground)
    cand = np.sort(
        np.concatenate([cross.reshape(P, -1), da, db, np.zeros((P, 1))], axis=1),
        axis=1,
    )
    lo = np.zeros(P, dtype=np.int64)
    hi = np.full(P, cand.shape[1] - 1, dtype=np.int64)
    while True:
        act = np.nonzero(lo < hi)[0]
        if act.size == 0:
            break
        mid = (lo[act] + hi[act]) // 2
        ok = feasible(a[act], b[act], cand[act, mid], ground)
        hi[act[ok]] = mid[ok]
        lo[act[~ok]] = mid[~ok] + 1
    return cand[np.arange(P), lo]


def bottleneck(a: np.ndarray, b: np.ndarray, ground: str = "l1") -> float:
    """Exact bottleneck distance between two diagrams."""
    return float(bottleneck_many(a[None], b[None], ground)[0])


def _pair_chunks(na: int, nb: int, per_pair: int):
    rows = max(1, _CHUNK_ENTRIES // max(1, nb * per_pair))
    for start in range(0, na, rows):
        yield start, min(na, start + rows)


def bottleneck_matrix(sa: np.ndarray, sb: np.ndarray, ground: str = "l1") -> np.ndarray:
    """Exact bottleneck between every diagram of sa (NA, n1, 2) and of sb."""
    na, nb = sa.shape[0], sb.shape[0]
    out = np.empty((na, nb))
    for lo, hi in _pair_chunks(na, nb, sa.shape[1] * sb.shape[1] + 1):
        k = hi - lo
        a = np.repeat(sa[lo:hi], nb, axis=0)
        b = np.tile(sb, (k, 1, 1))
        out[lo:hi] = bottleneck_many(a, b, ground).reshape(k, nb)
    return out


def hausdorff(sa: np.ndarray, sb: np.ndarray, ground: str = "l1") -> float:
    """Unpruned Hausdorff distance between two diagram sets under bottleneck."""
    m = bottleneck_matrix(sa, sb, ground)
    return float(max(m.min(axis=1).max(), m.min(axis=0).max()))


def _split_for_simple_graph(vertices: Sequence[str], edges: Sequence[RawEdge]) -> nx.Graph:
    """A simple weighted graph with the same cycles and lengths.

    Self-loops become triangles and every edge that has a parallel twin is cut
    in two, so networkx, which needs a simple graph, sees every loop.
    """
    twins: Dict[frozenset, int] = {}
    for _, u, v, _ in edges:
        if u != v:
            key = frozenset((u, v))
            twins[key] = twins.get(key, 0) + 1
    g = nx.Graph()
    g.add_nodes_from(vertices)
    for eid, u, v, length in edges:
        if u == v:
            a, b = ("loop-a", eid), ("loop-b", eid)
            g.add_edge(u, a, weight=length / 3.0)
            g.add_edge(a, b, weight=length / 3.0)
            g.add_edge(b, u, weight=length / 3.0)
        elif twins[frozenset((u, v))] > 1:
            m = ("mid", eid)
            g.add_edge(u, m, weight=length / 2.0)
            g.add_edge(m, v, weight=length / 2.0)
        else:
            g.add_edge(u, v, weight=length)
    return g


def loop_lengths(vertices: Sequence[str], edges: Sequence[RawEdge]) -> List[float]:
    """Sorted lengths of a minimum cycle basis, from networkx."""
    g = _split_for_simple_graph(vertices, edges)
    lengths = []
    for cycle in nx.minimum_cycle_basis(g, weight="weight"):
        total = 0.0
        for k, x in enumerate(cycle):
            total += g[x][cycle[(k + 1) % len(cycle)]]["weight"]
        lengths.append(total)
    return sorted(lengths)


def intrinsic_cech(lengths1: Sequence[float], lengths2: Sequence[float]) -> float:
    """max |s_i - t_i| / 2 over sorted half lengths, zero-padded at the bottom."""
    s = sorted(x / 2.0 for x in lengths1)
    t = sorted(x / 2.0 for x in lengths2)
    n = max(len(s), len(t))
    s = [0.0] * (n - len(s)) + s
    t = [0.0] * (n - len(t)) + t
    return max((abs(x - y) / 2.0 for x, y in zip(s, t)), default=0.0)


class GeodesicMax:
    """Maximum of the distance-from-base function of one graph, any base."""

    def __init__(self, vertices: Sequence[str], edges: Sequence[RawEdge]):
        self.index = {v: k for k, v in enumerate(vertices)}
        self.edges = {e[0]: e for e in edges}
        n = len(vertices)
        best: Dict[Tuple[int, int], float] = {}
        for _, u, v, length in edges:
            if u == v:
                continue
            key = (self.index[u], self.index[v])
            if key not in best or length < best[key]:
                best[key] = length
        rows = [k[0] for k in best]
        cols = [k[1] for k in best]
        adj = csr_matrix((list(best.values()), (rows, cols)), shape=(n, n))
        self.dist = _csgraph_dijkstra(adj, directed=False)
        self.ends = np.array([[self.index[u], self.index[v]] for _, u, v, _ in edges], dtype=int)
        self.lengths = np.array([e[3] for e in edges])
        self.ids = [e[0] for e in edges]

    def __call__(self, base) -> float:
        """``base`` is ("v", vertex) or ("e", edge id, offset)."""
        if base[0] == "v":
            f = self.dist[self.index[base[1]]]
        else:
            _, u, v, length = self.edges[base[1]]
            t = base[2]
            f = np.minimum(t + self.dist[self.index[u]], length - t + self.dist[self.index[v]])
        fa, fb = f[self.ends[:, 0]], f[self.ends[:, 1]]
        peaks = (fa + fb + self.lengths) / 2.0
        if base[0] == "e":
            # the base splits its own edge into two segments that start at 0
            k = self.ids.index(base[1])
            t, length = base[2], self.lengths[k]
            peaks[k] = max((fa[k] + t) / 2.0, (fb[k] + length - t) / 2.0)
        return float(peaks.max())
