"""Seeded instance generation and the inequality verification loop."""

from __future__ import annotations

import random
from dataclasses import replace
from typing import List, Optional, Tuple

from .errors import GraphError
from .feasibility import (
    compare_arbitrary,
    verify_bouquet_inequality,
    verify_tree_of_loops_inequality,
    Report,
)
from .generators import TreeOfLoopsSpec, bouquet, random_metric_graph, tree_of_loops
from .metric_graph import MetricGraph


def _instance_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def random_bouquet(rng: random.Random) -> MetricGraph:
    k = rng.randint(1, 3)
    return bouquet([rng.uniform(1.5, 3.5) for _ in range(k)])


def random_tree_of_loops_spec(rng: random.Random) -> TreeOfLoopsSpec:
    n_nodes = rng.randint(1, 3)
    tree_edges = tuple(
        (rng.randrange(i), i, rng.uniform(0.8, 1.5)) for i in range(1, n_nodes)
    )
    loops = [
        tuple(rng.uniform(1.5, 3.5) for _ in range(rng.randint(0, 2)))
        for _ in range(n_nodes)
    ]
    if not any(loops):
        loops[0] = (rng.uniform(1.5, 3.5),)
    return TreeOfLoopsSpec(loops_per_node=tuple(loops), tree_edges=tree_edges)


def random_arbitrary_graph(
    rng: random.Random, min_extra: int = 1, max_extra: int = 2
) -> MetricGraph:
    n = rng.randint(3, 5)
    extra = rng.randint(min_extra, max_extra)
    return random_metric_graph(
        n, n - 1 + extra, (1.0, 2.0), seed=rng.randrange(2**32), generic_epsilon=1e-3
    )


DELTA_FRACTION = 0.05


def pick_delta(graphs: Tuple[MetricGraph, ...]) -> float:
    """DELTA_FRACTION times the smallest half loop length, over every graph with loops."""
    half_lengths = [h for g in graphs for h in g.loop_system.half_lengths]
    if half_lengths:
        return DELTA_FRACTION * min(half_lengths)
    return DELTA_FRACTION * min(e.length for g in graphs for e in g.edges)


def _draw_bouquet(rng: random.Random) -> Tuple[MetricGraph, MetricGraph]:
    return random_bouquet(rng), random_arbitrary_graph(rng)


def _draw_tree_of_loops(rng: random.Random) -> Tuple[MetricGraph, MetricGraph]:
    g1 = tree_of_loops(random_tree_of_loops_spec(rng))
    return g1, tree_of_loops(random_tree_of_loops_spec(rng))


def _draw_trees(rng: random.Random) -> Tuple[MetricGraph, MetricGraph]:
    # metric trees are trees of loops without loops; their Cech distance is
    # always 0
    n1, n2 = rng.randint(3, 6), rng.randint(3, 6)
    g1 = random_metric_graph(n1, n1 - 1, (0.5, 2.0), seed=rng.randrange(2**32))
    g2 = random_metric_graph(n2, n2 - 1, (0.5, 2.0), seed=rng.randrange(2**32))
    return g1, g2


def _draw_arbitrary(rng: random.Random) -> Tuple[MetricGraph, MetricGraph]:
    g1 = random_arbitrary_graph(rng, min_extra=0)
    return g1, random_arbitrary_graph(rng, min_extra=0)


# family -> (draw the instance's two graphs, check them at delta). The checks
# look the verifiers up when called, so wrappers patched onto this module's
# names take effect.
_FAMILY_TABLE = {
    "bouquet": (
        _draw_bouquet,
        lambda g1, g2, d: verify_bouquet_inequality(g1, g2, d),
    ),
    "tree-of-loops": (
        _draw_tree_of_loops,
        lambda g1, g2, d: verify_tree_of_loops_inequality(g1, g2, d),
    ),
    "trees": (
        _draw_trees,
        lambda g1, g2, d: verify_tree_of_loops_inequality(g1, g2, d),
    ),
    "arbitrary": (_draw_arbitrary, lambda g1, g2, d: compare_arbitrary(g1, g2, d)),
}
FAMILIES = tuple(_FAMILY_TABLE)


def run_verification(
    family: str,
    n_instances: int,
    seed: int,
    delta: Optional[float] = None,
) -> List[Report]:
    """Run seeded instances; reports come back ordered by instance."""
    if family == "bouquet-vs-arbitrary":
        family = "bouquet"
    if family not in _FAMILY_TABLE:
        raise GraphError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if n_instances < 1:
        raise GraphError(f"need at least one instance, got {n_instances!r}")
    draw, check = _FAMILY_TABLE[family]
    reports = []
    for index in range(n_instances):
        iseed = _instance_seed(seed, index)
        g1, g2 = draw(random.Random(iseed))
        d = delta if delta is not None else pick_delta((g1, g2))
        reports.append(replace(check(g1, g2, d), family=family, seed=iseed))
    return reports
