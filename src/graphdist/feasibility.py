"""Feasible regions, the ideal-vs-computed diagram matching, and the
inequality verification reports.

The ideal diagram D* = {(0, s_1), ..., (0, s_n)} built from half loop lengths
is compared against a computed diagram through the bipartite feasibility
graph; a perfect matching certifies the instance, a Hall witness disproves it
(and, because a perfect matching always exists for valid inputs, signals a
bug).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import List, Optional, Tuple, Union

from .cycles import LoopSystem, shortest_loop_system
from .diagram_distances import L1Ground, Matching, max_matching
from .errors import NotABouquet, NotTreeOfLoops, SizeMismatch
from .graph_distances import intrinsic_cech_distance, persistence_distortion
from .metric_graph import MetricGraph, _component_of, validate
from .persistence import Diagram

Point = Tuple[float, float]


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


def is_bouquet(g: MetricGraph) -> bool:
    """One vertex after smoothing degree-2 chains, every edge a self-loop.

    Smoothing removes only degree-2 vertices and leaves every other degree
    unchanged, so this holds exactly when g is connected and at most one
    vertex has degree other than 2.
    """
    if not g.vertices or len(_component_of(g, g.vertices[0])) != len(g.vertices):
        return False
    return sum(g.degree(v) != 2 for v in g.vertices) <= 1


def is_tree_of_loops(g: MetricGraph) -> bool:
    """Wedge-sum composition of cycles and edges == pairwise edge-disjoint
    shortest-system loops (every block is a bridge or a cycle)."""
    sets = shortest_loop_system(g).edge_sets()
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if sets[i] & sets[j]:
                return False
    return True


@dataclass(frozen=True)
class Report:
    """Outcome of one inequality check instance."""

    family: str
    seed: int
    dic: float
    dpd_estimate: float
    dpd_error_bound: float
    ratio: float
    verdict: str

    def to_json_dict(self) -> dict:
        return asdict(self)


def _make_report(
    dic: float,
    estimate: float,
    bound: float,
    gated: bool,
    family: str = "",
    seed: int = -1,
) -> Report:
    threshold = 0.5 * (estimate + bound)
    if threshold > 0.0:
        ratio = dic / threshold
    else:
        ratio = 0.0 if dic == 0.0 else math.inf
    if gated:
        verdict = "PASS" if dic <= threshold else "VIOLATION"
    else:
        verdict = "INFO"
    return Report(
        family=family,
        seed=seed,
        dic=dic,
        dpd_estimate=estimate,
        dpd_error_bound=bound,
        ratio=ratio,
        verdict=verdict,
    )


def _distances_report(
    g1: MetricGraph, g2: MetricGraph, delta: float, gated: bool
) -> Report:
    dic = intrinsic_cech_distance(g1, g2)
    estimate, bound = persistence_distortion(g1, g2, delta)
    return _make_report(dic, estimate, bound, gated)


def verify_bouquet_inequality(
    g1: MetricGraph, g2: MetricGraph, delta: float
) -> Report:
    """Check d_IC <= (d_PD estimate + bound)/2 for a bouquet vs an arbitrary graph."""
    validate(g1)
    validate(g2)
    if not is_bouquet(g1):
        raise NotABouquet("first graph is not a bouquet")
    return _distances_report(g1, g2, delta, gated=True)


def verify_tree_of_loops_inequality(
    g1: MetricGraph, g2: MetricGraph, delta: float
) -> Report:
    """Same check when both graphs are trees of loops."""
    validate(g1)
    validate(g2)
    if not (is_tree_of_loops(g1) and is_tree_of_loops(g2)):
        raise NotTreeOfLoops("both graphs must be trees of loops")
    return _distances_report(g1, g2, delta, gated=True)


def compare_arbitrary(g1: MetricGraph, g2: MetricGraph, delta: float) -> Report:
    """Exploratory: record the ratio for an arbitrary pair, never gated."""
    validate(g1)
    validate(g2)
    return _distances_report(g1, g2, delta, gated=False)


def corrupted(report: Report, dic_offset: float) -> Report:
    """Rebuild a report with a corrupted d_IC (forced-violation test fixture)."""
    return _make_report(
        report.dic + dic_offset,
        report.dpd_estimate,
        report.dpd_error_bound,
        report.verdict != "INFO",
        report.family,
        report.seed,
    )
