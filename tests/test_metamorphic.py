"""Exact metamorphic identities of the d_PD estimate and of d_IC.

They need no true d_PD. On random small pairs, under both plane grounds:
the estimate is symmetric bit for bit (a slip between the rows and columns of
the Hausdorff, or a single directed pass, breaks it); scaling both graphs and
delta by 4 scales the estimate by exactly 4, since a power-of-two scale
commutes with the +, -, min, max and halving of the pipeline; and renaming
every id and shuffling both lists changes neither the estimate nor d_IC, so
no value hangs on how ties between ids break.

Two bounds need no true d_PD either. Across graphs: a perturbation that
stretches every length by at most a factor 1 + eps changes each distance
function by at most eps times its largest value, so by stability of extended
persistence (Cohen-Steiner, Edelsbrunner and Harer, 2009) the sup-metric
bottleneck from a shared vertex is at most that much. Reversing an edge gives
the same metric graph with other samples, so the estimate moves by at most
the sum of both error bounds.
"""

import random

import pytest

from graphdist import (
    GraphPoint,
    MetricGraph,
    bottleneck_value,
    extended_persistence_1d,
    geodesic_field,
    intrinsic_cech_distance,
    perturb_to_generic,
    random_metric_graph,
    sample_phi,
)
from graphdist.graph_distances import persistence_distortion_from_samples

DELTA = 0.3


def scaled(g: MetricGraph, c: float) -> MetricGraph:
    return MetricGraph.build(g.vertices, [(e.id, e.u, e.v, c * e.length) for e in g.edges])


def renamed(g: MetricGraph, rng: random.Random) -> MetricGraph:
    """Fresh vertex and edge ids in a random order, both lists shuffled;
    every edge keeps its orientation."""
    vertices = {v: f"q{k}" for k, v in enumerate(rng.sample(g.vertices, len(g.vertices)))}
    edge_ids = {e.id: f"r{k}" for k, e in enumerate(rng.sample(g.edges, len(g.edges)))}
    edges = [(edge_ids[e.id], vertices[e.u], vertices[e.v], e.length) for e in g.edges]
    return MetricGraph.build(
        rng.sample(list(vertices.values()), len(vertices)), rng.sample(edges, len(edges))
    )


def reversed_edge(g: MetricGraph, rng: random.Random) -> MetricGraph:
    """g with one random edge's ends swapped, so its samples count from the
    other end; a self-loop's samples mirror along the loop."""
    k = rng.randrange(len(g.edges))
    edges = [(e.id, e.v, e.u, e.length) if i == k else (e.id, e.u, e.v, e.length)
             for i, e in enumerate(g.edges)]
    return MetricGraph.build(g.vertices, edges)


def _pairs():
    rng = random.Random(1105)
    for k in range(30):
        n = rng.randint(5, 6)
        m = rng.randint(max(5, n - 1), 9)
        yield tuple(random_metric_graph(n, m, (1.0, 2.0), seed=100 * k + s) for s in (1, 2))


@pytest.fixture(scope="module")
def cases():
    """Per pair: the sample sets of G and H, of 4G and 4H at 4 delta, of both
    renamed and of G with one edge reversed, and d_IC of G, H and of the
    renamed pair."""
    rng, flip = random.Random(2211), random.Random(3307)
    out = []
    for g, h in _pairs():
        g2, h2 = renamed(g, rng), renamed(h, rng)
        out.append({
            "phi": (sample_phi(g, DELTA), sample_phi(h, DELTA)),
            "phi4": (sample_phi(scaled(g, 4.0), 4 * DELTA), sample_phi(scaled(h, 4.0), 4 * DELTA)),
            "renamed": (sample_phi(g2, DELTA), sample_phi(h2, DELTA)),
            "reversed": sample_phi(reversed_edge(g, flip), DELTA),
            "dic": (intrinsic_cech_distance(g, h), intrinsic_cech_distance(g2, h2)),
        })
    return out


def _est(phi1, phi2, ground):
    return persistence_distortion_from_samples(phi1, phi2, ground)[0]


@pytest.mark.parametrize("ground", ["l1", "linf"])
def test_estimate_is_symmetric_bit_for_bit(cases, ground):
    for case in cases:
        p, q = case["phi"]
        assert _est(p, q, ground) == _est(q, p, ground)


@pytest.mark.parametrize("ground", ["l1", "linf"])
def test_estimate_scales_exactly_by_a_power_of_two(cases, ground):
    for case in cases:
        assert _est(*case["phi4"], ground) == 4 * _est(*case["phi"], ground)


@pytest.mark.parametrize("ground", ["l1", "linf"])
def test_renaming_and_shuffling_change_no_value(cases, ground):
    for case in cases:
        assert _est(*case["renamed"], ground) == _est(*case["phi"], ground)
        dic, dic_renamed = case["dic"]
        assert dic_renamed == dic


@pytest.mark.parametrize("ground", ["l1", "linf"])
def test_reversing_an_edge_moves_the_estimate_within_both_bounds(cases, ground):
    for case in cases:
        p, q = case["phi"]
        estimate, bound = persistence_distortion_from_samples(p, q, ground)
        moved, moved_bound = persistence_distortion_from_samples(case["reversed"], q, ground)
        assert abs(moved - estimate) <= bound + moved_bound


def _largest_value(g: MetricGraph, base: GraphPoint) -> float:
    field = geodesic_field(g, base)
    maxima = [m[1] for m in field.interior_maxima.values() if m is not None]
    return max([*field.vertex_values.values(), *maxima])


def test_perturbed_graph_diagrams_are_within_eps_times_the_largest_value():
    eps, worst, checked = 0.05, 0.0, 0
    rng = random.Random(411)
    for k in range(40):
        n = rng.randint(3, 6)
        g = random_metric_graph(n, rng.randint(n, n + 4), (1.0, 2.0), seed=500 + k)
        h = perturb_to_generic(g, eps, seed=k)
        for v in g.vertices:
            base = GraphPoint.at_vertex(v)
            value = bottleneck_value(
                extended_persistence_1d(g, base), extended_persistence_1d(h, base), "linf"
            )
            ratio = value / (eps * _largest_value(h, base))
            assert ratio <= 1.0, (k, v)
            worst, checked = max(worst, ratio), checked + 1
    # the bound is nearly reached, so the check is not vacuous
    assert checked >= 150 and worst > 0.5
