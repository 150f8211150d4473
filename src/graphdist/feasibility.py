"""Family recognizers and the inequality verification reports.

`verify_bouquet_inequality` and `verify_tree_of_loops_inequality` check that
their inputs belong to the family, compute d_IC in closed form and the
sampled d_PD estimate with its error bound 2*delta, and report whether
d_IC <= (estimate + bound) / 2. The paper proves d_IC <= d_PD / 2 on these
families, so a violation signals a bug. `compare_arbitrary` records the
ratio for any pair and is never gated. Each report leaves `family` and
`seed` at "" and -1 for the harness to fill in.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import NotABouquet, NotTreeOfLoops
from .graph_distances import intrinsic_cech_distance, persistence_distortion
from .metric_graph import MetricGraph


def is_bouquet(g: MetricGraph) -> bool:
    """One vertex after smoothing degree-2 chains, every edge a self-loop.

    Smoothing removes only degree-2 vertices and leaves every other degree
    unchanged, so this holds exactly when g is connected and at most one
    vertex has degree other than 2.
    """
    if not g.vertices or len(g._first_component) != len(g.vertices):
        return False
    return sum(g.degree(v) != 2 for v in g.vertices) <= 1


def is_tree_of_loops(g: MetricGraph) -> bool:
    """Wedge-sum composition of cycles and edges == pairwise edge-disjoint
    shortest-system loops (every block is a bridge or a cycle): disjoint
    exactly when their union is as large as their sizes summed."""
    sets = g.loop_system.edge_sets()
    return len(frozenset().union(*sets)) == sum(map(len, sets))


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


def _distances_report(
    g1: MetricGraph, g2: MetricGraph, delta: float, gated: bool
) -> Report:
    dic = intrinsic_cech_distance(g1, g2)
    estimate, bound = persistence_distortion(g1, g2, delta)
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
        family="",
        seed=-1,
        dic=dic,
        dpd_estimate=estimate,
        dpd_error_bound=bound,
        ratio=ratio,
        verdict=verdict,
    )


def verify_bouquet_inequality(
    g1: MetricGraph, g2: MetricGraph, delta: float
) -> Report:
    """Check d_IC <= (d_PD estimate + bound)/2 for a bouquet vs an arbitrary graph."""
    if not is_bouquet(g1):
        raise NotABouquet("first graph is not a bouquet")
    return _distances_report(g1, g2, delta, gated=True)


def verify_tree_of_loops_inequality(
    g1: MetricGraph, g2: MetricGraph, delta: float
) -> Report:
    """Same check when both graphs are trees of loops."""
    if not (is_tree_of_loops(g1) and is_tree_of_loops(g2)):
        raise NotTreeOfLoops("both graphs must be trees of loops")
    return _distances_report(g1, g2, delta, gated=True)


def compare_arbitrary(g1: MetricGraph, g2: MetricGraph, delta: float) -> Report:
    """Exploratory: record the ratio for an arbitrary pair, never gated."""
    return _distances_report(g1, g2, delta, gated=False)
