"""Exact bottleneck distances between persistence diagrams.

The ground metric is the l1 plane distance by default (matching the distance
definitions used throughout this library); the sup metric is available for
stability checks. The optimum is found by searching the finite set of
candidate thresholds (all point-to-point and point-to-diagonal costs) with a
bipartite-matching feasibility test, so values are exact, never approximated.
The search starts at a per-point bound: every point takes a partner or the
diagonal, so no threshold below its cheapest option can be feasible. Raising
the threshold only adds edges, so each probe grows the matching of the last
infeasible probe instead of starting empty.

A pair with few point-to-point costs (fewer than _ARRAY_MIN_COSTS) is searched
in Python lists, where numpy's per-call set-up would cost more than it saves.
A larger pair keeps its costs, bound and candidate window in numpy arrays
(Ground.cost_matrix; the plane grounds broadcast it with the IEEE operations
of their dist, so every value is the same) and builds each probe's edges row
by row.

Inside the Hausdorff-of-bottlenecks, a pair matters only when its bottleneck
lies strictly between the answer so far and its row's best, so each pair is
asked about that window alone. The per-point bound or one matching settles
most pairs (the value is at least the row's best, or at most the answer);
only values inside the window are searched exactly (decision, then search,
as in Efrat, Itai and Katz, 2001). Under any ground both bounds that prune
come from the costs the search reads, so no rounding can put one on the wrong
side of a computed bottleneck. Each pair is bounded from above by the cost of
a valid matching that pairs points in sorted order, the best of a few sort
keys, in row blocks over both sets stacked as arrays; only the least bound of
each row and of each column is kept, so memory is linear in the set sizes and
time is O(N1 N2 width). Rows are scanned in descending order of their least
upper bound, which is also each row's first best, and the scan stops at the
first row whose bound is at most the answer (the early break of exact
Hausdorff algorithms, Taha and Hanbury, 2015); on sampled diagram sets this
settles most rows without a matching. Only a scanned row computes its lower
bounds, the per-point bounds of its pairs, which order the row's scan and end
it early.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import EmptySet, NegativeValue

Point = Tuple[float, float]


class _Diagonal:
    def __repr__(self) -> str:
        return "DIAGONAL"


#: Sentinel marking the diagonal side of a matched pair.
DIAGONAL = _Diagonal()


class Ground:
    """Point-to-point cost plus the cost of retiring a point to the diagonal."""

    def dist(self, x: Point, y: Point) -> float:
        raise NotImplementedError

    def to_diagonal(self, x: Point) -> float:
        raise NotImplementedError

    def cost_matrix(self, pts1, pts2) -> np.ndarray:
        """Every cost dist(x, y) for x in pts1 and y in pts2, shape (n1, n2);
        stacks (..., n1, 2) and (..., n2, 2) broadcast to (..., n1, n2)."""
        p, q = _plane_points(pts1)[..., None, :], _plane_points(pts2)[..., None, :, :]
        dist = np.frompyfunc(lambda b1, d1, b2, d2: self.dist((b1, d1), (b2, d2)), 4, 1)
        return dist(p[..., 0], p[..., 1], q[..., 0], q[..., 1]).astype(float)


def _abs_gaps(p: np.ndarray, q: np.ndarray, k: int) -> np.ndarray:
    """|x[k] - y[k]| for every x in p and y in q, broadcast over leading axes."""
    gap = p[..., :, None, k] - q[..., None, :, k]
    return np.abs(gap, out=gap)


def _plane_points(pts) -> np.ndarray:
    a = np.asarray(pts, dtype=float)
    return a if a.ndim > 1 else a.reshape(-1, 2)


class L1Ground(Ground):
    def dist(self, x: Point, y: Point) -> float:
        return abs(x[0] - y[0]) + abs(x[1] - y[1])

    def to_diagonal(self, x: Point) -> float:
        return x[1] - x[0]

    def cost_matrix(self, pts1, pts2) -> np.ndarray:
        """The costs of dist by the same IEEE operations, as a numpy broadcast.

        Stacks broadcast too: shapes (..., n1, 2) and (..., n2, 2) give
        (..., n1, n2).
        """
        p, q = _plane_points(pts1), _plane_points(pts2)
        cost = _abs_gaps(p, q, 0)
        cost += _abs_gaps(p, q, 1)
        return cost


class LinfGround(Ground):
    def dist(self, x: Point, y: Point) -> float:
        return max(abs(x[0] - y[0]), abs(x[1] - y[1]))

    def to_diagonal(self, x: Point) -> float:
        return (x[1] - x[0]) / 2.0

    def cost_matrix(self, pts1, pts2) -> np.ndarray:
        """As L1Ground.cost_matrix, for the sup metric."""
        p, q = _plane_points(pts1), _plane_points(pts2)
        cost = _abs_gaps(p, q, 0)
        return np.maximum(cost, _abs_gaps(p, q, 1), out=cost)


_GROUNDS = {"l1": L1Ground(), "linf": LinfGround()}


def resolve_ground(ground: Union[str, Ground]) -> Ground:
    if isinstance(ground, Ground):
        return ground
    if isinstance(ground, str) and ground.lower() in _GROUNDS:
        return _GROUNDS[ground.lower()]
    raise ValueError(f"unknown ground metric {ground!r}")


@dataclass(frozen=True)
class Matching:
    """Optimal bottleneck matching; diagonal-to-diagonal pairs are omitted."""

    pairs: Tuple[Tuple[object, object], ...]
    cost: float


def _as_pairs(*diagrams) -> List[List[Point]]:
    """The (birth, death) points of each diagram; each must be finite with
    birth <= death, or ValueError names the first that is not. ValueError
    also unless twice the spread and twice the largest magnitude of all
    coordinates are finite, so that no cost or sort key overflows; graph
    diagrams lie in [0, total length], whose double MetricGraph.build keeps
    finite."""
    out = []
    for diagram in diagrams:
        if hasattr(diagram, "pairs"):
            pts = [tuple(p) for p in diagram.pairs()]
        else:
            pts = [(float(b), float(d)) for b, d in diagram]
        bad = next((p for p in pts if not -math.inf < p[0] <= p[1] < math.inf), None)
        if bad is not None:
            raise ValueError(f"diagram point {bad!r} is not finite with birth <= death")
        out.append(pts)
    lo = min((p[0] for pts in out for p in pts), default=0.0)
    hi = max((p[1] for pts in out for p in pts), default=0.0)
    if not (math.isfinite(2.0 * (hi - lo)) and math.isfinite(2.0 * max(hi, -lo))):
        raise ValueError(f"diagram coordinates from {lo!r} to {hi!r} overflow the costs")
    return out


def max_matching(
    adj: List[List[int]], n_right: int, start: Optional[List[int]] = None
) -> Tuple[int, List[int], List[int]]:
    """Maximum bipartite matching by augmenting paths, without recursion.

    Left vertex u has the right neighbours adj[u]. Each phase runs a
    depth-first search on explicit stacks from every free left vertex; a right
    vertex visited in a phase stays visited until the phase ends, so one phase
    costs O(V + E). Phases repeat until one finds no augmenting path.
    start, a matching of left to right vertices (-1 for unmatched) that uses
    only edges of adj, is grown instead of the empty matching; it is not
    modified. Returns (size, match_of_left, match_of_right) with -1 for
    unmatched.
    """
    match_l = [-1] * len(adj) if start is None else list(start)
    match_r = [-1] * n_right
    for u, w in enumerate(match_l):
        if w != -1:
            match_r[w] = u
    size, before = len(match_l) - match_l.count(-1), -1
    while size != before:
        before = size
        seen = [False] * n_right
        for root in range(len(adj)):
            if match_l[root] != -1:
                continue
            # its[k] scans the neighbours of path[k]; via[k] is the right
            # vertex path[k] takes on augmenting, now matched to path[k + 1]
            path, via, its = [root], [], [iter(adj[root])]
            while its:
                for w in its[-1]:
                    if not seen[w]:
                        seen[w] = True
                        break
                else:
                    path.pop()
                    its.pop()
                    if via:
                        via.pop()
                    continue
                via.append(w)
                u = match_r[w]
                if u == -1:
                    for u, w in zip(path, via):
                        match_l[u] = w
                        match_r[w] = u
                    size += 1
                    break
                path.append(u)
                its.append(iter(adj[u]))
    return size, match_l, match_r


#: A pair with fewer point-to-point costs than this stays in Python lists:
#: numpy's per-call set-up costs more than it saves on such small matrices.
_ARRAY_MIN_COSTS = 256


def _list_window(pts1, pts2, gr, diag1, diag2, ub):
    """Per-point bound, sorted candidates in [lb, ub] and edges at a threshold,
    in Python lists."""
    cost = [[gr.dist(x, y) for y in pts2] for x in pts1]
    row_min = [min(row, default=math.inf) for row in cost]
    col_min = [min(col) for col in zip(*cost)] if pts1 else [math.inf] * len(pts2)
    lb = max(map(min, diag1 + diag2, row_min + col_min), default=0.0)
    # distinct candidates by sorting, not by a set: a set of the n1*n2 costs
    # takes more memory than the cost matrix itself
    everything = itertools.chain([0.0], diag1, diag2, *cost)
    ordered = [
        c for c, _ in itertools.groupby(sorted(c for c in everything if lb <= c <= ub))
    ]

    def edges(lam: float) -> List[List[int]]:
        return [[j for j, c in enumerate(row) if c <= lam] for row in cost]

    return lb, ordered, edges


def _array_window(pts1, pts2, gr, diag1, diag2, ub):
    """As _list_window, with the costs, the bound and the candidates kept in
    numpy arrays; the edges are built row by row over one shared list of ints,
    so no probe turns every edge into a new int object."""
    cost = gr.cost_matrix(pts1, pts2)
    d1, d2 = np.array(diag1), np.array(diag2)
    lb = float(max(
        np.minimum(cost.min(axis=1), d1).max(), np.minimum(cost.min(axis=0), d2).max()
    ))
    extra = [c for c in itertools.chain([0.0], diag1, diag2) if lb <= c <= ub]
    ordered = np.unique(np.concatenate((cost[(lb <= cost) & (cost <= ub)], extra)))
    ints = list(range(len(pts2)))

    def edges(lam: float) -> List[List[int]]:
        return [list(itertools.compress(ints, row.tolist())) for row in cost <= lam]

    return lb, ordered, edges


def _bottleneck_value(
    pts1: List[Point],
    pts2: List[Point],
    gr: Ground,
    floor: float = -math.inf,
    ceil: float = math.inf,
) -> Tuple[float, List[int]]:
    """Bottleneck value and the left side of a matching of that cost, in a window.

    A value strictly inside (floor, ceil) is exact. A value at most floor
    comes back as some candidate at most floor that is feasible, and a value
    at least ceil as inf with an empty matching. The default window gives the
    exact value. Needs floor < ceil.

    Every point takes a partner or retires to the diagonal, so the value is at
    least each point's cheapest option (the bound lb, for any ground) and at
    most the largest diagonal cost. Only the candidate thresholds between
    these bounds are sorted. Each probe is a perfect matching test on the
    doubled bipartite graph. Left side: pts1 then a diagonal copy per point of
    pts2; right side: pts2 then a diagonal copy per point of pts1. A point may
    retire to its own diagonal copy when its diagonal cost is within the
    threshold; diagonal copies pair with each other for free. Raising the
    threshold only adds edges, so each probe grows the matching of the last
    infeasible probe, which always lies below it.
    """
    n1, n2 = len(pts1), len(pts2)
    diag1 = [gr.to_diagonal(x) for x in pts1]
    diag2 = [gr.to_diagonal(y) for y in pts2]
    ub = max(diag1 + diag2, default=0.0)
    window = _list_window if n1 * n2 < _ARRAY_MIN_COSTS else _array_window
    lb, ordered, edges = window(pts1, pts2, gr, diag1, diag2, ub)
    if lb >= ceil:
        return math.inf, []
    # shared by every diagonal-copy row; max_matching only reads adj
    diag_copies = list(range(n2, n2 + n1))
    warm: Optional[List[int]] = None

    def probe(lam: float) -> Optional[List[int]]:
        nonlocal warm
        lam = float(lam)
        adj = edges(lam)
        for i, d in enumerate(diag1):
            if d <= lam:
                adj[i].append(n2 + i)
        for j, d in enumerate(diag2):
            adj.append([j, *diag_copies] if d <= lam else diag_copies)
        size, match_l, _ = max_matching(adj, n1 + n2, warm)
        if size == n1 + n2:
            return match_l
        warm = match_l
        return None

    # the largest candidate below ceil; ub is feasible, every point retiring
    lo, hi = 0, bisect.bisect_left(ordered, ceil) - 1
    if ub < ceil:
        match_l = [*diag_copies, *range(n2)]
    else:
        match_l = probe(ordered[hi])
        if match_l is None:
            return math.inf, []
    # the largest candidate at most floor decides whether the value is there
    below = bisect.bisect_right(ordered, floor) - 1
    if below == hi:
        return float(ordered[hi]), match_l
    if below >= 0:
        probe_l = probe(ordered[below])
        if probe_l is not None:
            return float(ordered[below]), probe_l
        lo = below + 1
    while lo < hi:
        mid = (lo + hi) // 2
        probe_l = probe(ordered[mid])
        if probe_l is not None:
            hi, match_l = mid, probe_l
        else:
            lo = mid + 1
    return float(ordered[lo]), match_l


def bottleneck(
    d1, d2, ground: Union[str, Ground] = "l1"
) -> Tuple[float, Matching]:
    """Exact bottleneck distance and an optimal matching between two diagrams."""
    gr = resolve_ground(ground)
    pts1, pts2 = _as_pairs(d1, d2)
    value, match_l = _bottleneck_value(pts1, pts2, gr)
    n1, n2 = len(pts1), len(pts2)
    pairs: List[Tuple[object, object]] = []
    for i, x in enumerate(pts1):
        w = match_l[i]
        pairs.append((x, pts2[w]) if w < n2 else (x, DIAGONAL))
    for j, y in enumerate(pts2):
        if match_l[n1 + j] < n2:
            pairs.append((DIAGONAL, y))
    return value, Matching(tuple(pairs), value)


def bottleneck_value(d1, d2, ground: Union[str, Ground] = "l1") -> float:
    gr = resolve_ground(ground)
    value, _ = _bottleneck_value(*_as_pairs(d1, d2), gr)
    return value


def yaxis_bottleneck(a: Sequence[float], b: Sequence[float]) -> float:
    """Closed-form bottleneck between y-axis diagrams {(0, a_i)} and {(0, b_i)}.

    The shorter multiset is padded with zeros, both are sorted, and the answer
    is the largest aligned gap. Values must be finite (ValueError) and
    nonnegative (NegativeValue).
    """
    av, bv = [float(x) for x in a], [float(x) for x in b]
    for v in av + bv:
        if not math.isfinite(v):
            raise ValueError(f"non-finite value {v!r}")
        if v < 0.0:
            raise NegativeValue(f"negative value {v!r}")
    n = max(len(av), len(bv))
    av += [0.0] * (n - len(av))
    bv += [0.0] * (n - len(bv))
    av.sort()
    bv.sort()
    return max((abs(x - y) for x, y in zip(av, bv)), default=0.0)


#: The pair bounds are computed in blocks of about this many costs, so their
#: transient arrays stay small next to the process.
_BLOCK_COSTS = 20_000


def _stack(
    diags: List[List[Point]], width: int, gr: Ground
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Points (N, width, 2), diagonal costs (N, width) and a mask of the real
    points, short diagrams padded with (0, 0) at diagonal cost 0. A padded
    partner can only lower a per-point bound, and under the plane metrics (by
    the triangle inequality) it lowers none."""
    pts = np.zeros((len(diags), width, 2))
    diag = np.zeros((len(diags), width))
    for k, d in enumerate(diags):
        if d:
            pts[k, : len(d)] = d
            diag[k, : len(d)] = [gr.to_diagonal(p) for p in d]
    real = np.arange(width) < np.array([len(d) for d in diags])[:, None]
    return pts, diag, real


def _sorted_stacks(
    pts: np.ndarray, diag: np.ndarray, real: np.ndarray
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Each stacked diagram sorted by persistence (descending), by birth, by
    death and by birth + death, padding last. Per key, the points come shaped
    (N, width, 1, 2), so that cost_matrix pairs the k-th points of two stacks
    in place, with their diagonal costs."""
    birth, death = pts[..., 0], pts[..., 1]
    out = []
    for key in (birth - death, birth, death, birth + death):
        order = np.argsort(np.where(real, key, np.inf), axis=1, kind="stable")
        out.append((
            np.take_along_axis(pts, order[..., None], 1)[:, :, None, :],
            np.take_along_axis(diag, order, 1),
        ))
    return out


def _pair_bounds(a: List[List[Point]], b: List[List[Point]], gr: Ground):
    """The least upper bound on the bottlenecks of each row (a[i], b[.]) and
    of each column (a[.], b[j]), reduced block by block, and the stacks that
    the per-point bound reads.

    A pair's bound is the cost of a valid matching under any ground: sort
    both diagrams by one key (padding last, so the masks of real points still
    hold) and pair the k-th points, each pair matched to each other or both
    retired to the diagonal, whichever costs less, and always retired if a
    slot is padded; the best of several keys is kept. Its entries are costs
    of gr.cost_matrix and gr.to_diagonal, so each is a candidate of the
    search, bit for bit.
    """
    width = max(1, *map(len, a), *map(len, b))
    (pa, da, ra), (pb, db, rb) = _stack(a, width, gr), _stack(b, width, gr)
    keys = list(zip(_sorted_stacks(pa, da, ra), _sorted_stacks(pb, db, rb)))
    rows = max(1, _BLOCK_COSTS // (len(b) * width))
    row_upper, col_upper = np.empty(len(a)), np.full(len(b), np.inf)
    for r in range(0, len(a), rows):
        R = slice(r, r + rows)
        padded = ~(ra[R, None, :] & rb[None, :, :])
        upper = np.inf
        for (sa, sda), (sb, sdb) in keys:
            cost = gr.cost_matrix(sa[R, None], sb[None])[..., 0, 0]
            cost[padded] = np.inf
            retire = np.maximum(sda[R, None, :], sdb[None, :, :])
            upper = np.minimum(upper, np.minimum(cost, retire, out=cost).max(axis=2))
        row_upper[R] = upper.min(axis=1)
        np.minimum(col_upper, upper.min(axis=0), out=col_upper)
    return row_upper, col_upper, (pa, da), (pb, db)


def _point_bound(
    p: np.ndarray, d: np.ndarray, qs: np.ndarray, dq: np.ndarray, gr: Ground
) -> np.ndarray:
    """The per-point bound of _bottleneck_value between one stacked diagram
    (points p, diagonal costs d) and every diagram of the stack (qs, dq):
    each point's cheapest option, a partner or the diagonal. Computed in
    chunks of columns."""
    width = len(d)
    cols = max(1, _BLOCK_COSTS // (width * width))
    out = np.empty(len(qs))
    for c in range(0, len(qs), cols):
        C = slice(c, c + cols)
        cost = gr.cost_matrix(p[None], qs[C])
        out[C] = np.maximum(
            np.minimum(cost.min(axis=2), d[None, :]).max(axis=1),
            np.minimum(cost.min(axis=1), dq[C]).max(axis=1),
        )
    return out


def _directed_hausdorff(
    from_diags: List[List[Point]],
    to_diags: List[List[Point]],
    gr: Ground,
    row_upper: np.ndarray,
    lower_row: Callable[[int], np.ndarray],
) -> float:
    """sup over from_diags of inf over to_diags of the bottleneck distance.

    row_upper[i] is at least the bottleneck of some pair of row i, and a
    candidate cost. Rows go in descending order of it; once that is at most
    the answer, no row left can raise it. A scanned row starts its best at
    that bound, and only then computes its lower bounds lower_row(i), at most
    each pair's bottleneck, which order its scan and end it early. A column
    can change the answer only if its bottleneck lies strictly between the
    current answer and its row's best so far, so each pair is evaluated in
    that window: one matching proves it too large (the per-point bound often
    proves it with none), one proves the row cannot raise the answer, and
    only values inside the window are searched exactly. Every value kept is
    an exact candidate cost, so the result equals the unpruned one.
    """
    answer = 0.0
    for i in np.argsort(-row_upper, kind="stable").tolist():
        best = float(row_upper[i])
        if best <= answer:
            break
        da = from_diags[i]
        row = lower_row(i)
        order, row = np.argsort(row).tolist(), row.tolist()
        for j in order:
            if best <= answer or row[j] >= best:
                break
            value, _ = _bottleneck_value(da, to_diags[j], gr, answer, best)
            if value < best:
                best = value
        answer = max(answer, best)
    return answer


def hausdorff_bottleneck(
    s1: Sequence, s2: Sequence, ground: Union[str, Ground] = "l1"
) -> float:
    """Hausdorff distance between two finite sets of diagrams under bottleneck."""
    if not s1 or not s2:
        raise EmptySet("hausdorff_bottleneck needs nonempty diagram sets")
    gr = resolve_ground(ground)
    pts = _as_pairs(*s1, *s2)
    a, b = pts[: len(s1)], pts[len(s1) :]
    row_upper, col_upper, (pa, da), (pb, db) = _pair_bounds(a, b, gr)
    return max(
        _directed_hausdorff(a, b, gr, row_upper, lambda i: _point_bound(pa[i], da[i], pb, db, gr)),
        _directed_hausdorff(b, a, gr, col_upper, lambda j: _point_bound(pb[j], db[j], pa, da, gr)),
    )
