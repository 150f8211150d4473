"""Tie-heavy and boundary inputs: results stay well-defined, flags surface."""

import json

import pytest

from graphdist import (
    GraphPoint,
    InvalidPoint,
    MetricGraph,
    bouquet,
    extended_persistence_1d,
    first_betti,
    geodesic_distance,
    geodesic_field,
    named,
    perturb_to_generic,
    random_metric_graph,
    shortest_loop_system,
    to_json_dict,
)

from oracles import shortest_path_tree


def test_parallel_equal_edges_diagram_still_correct():
    # two parallel unit edges form a circle of circumference 2; shortest paths
    # tie but the reduction is order-insensitive in value
    g = MetricGraph.build(
        ["a", "b"], [("e1", "a", "b", 1.0), ("e2", "a", "b", 1.0)]
    )
    assert not shortest_path_tree(g, GraphPoint.at_vertex("a")).generic
    d = extended_persistence_1d(g, GraphPoint.at_vertex("a"))
    assert d.pairs() == ((0.0, 1.0),)
    # base at an interior point: same circle, same diagram
    d = extended_persistence_1d(g, GraphPoint.on_edge("e1", 0.5))
    assert d.pairs() == ((0.0, 1.0),)


def test_equal_length_bouquet_loops():
    g = bouquet([2.0, 2.0, 2.0])
    d = extended_persistence_1d(g, GraphPoint.at_vertex("o"))
    assert d.pairs() == ((0.0, 1.0),) * 3
    assert shortest_loop_system(g).lengths == (2.0, 2.0, 2.0)


def test_base_extremely_close_to_vertex():
    g = named("dumbbell:2,1,4")
    d_vertex = extended_persistence_1d(g, GraphPoint.at_vertex("a"))
    d_near = extended_persistence_1d(g, GraphPoint.on_edge("bar", 1e-12))
    for p, q in zip(d_vertex.pairs(), d_near.pairs()):
        assert p == pytest.approx(q, abs=1e-9)


def test_invalid_points_raise():
    g = named("theta")
    with pytest.raises(InvalidPoint):
        geodesic_distance(g, GraphPoint.at_vertex("zzz"), GraphPoint.at_vertex("a"))
    with pytest.raises(InvalidPoint):
        geodesic_field(g, GraphPoint.on_edge("nope", 0.5))
    with pytest.raises(InvalidPoint):
        extended_persistence_1d(g, GraphPoint.on_edge("e1", 7.0))


def test_perturbation_epsilon_limit():
    g = named("theta")
    tiny = perturb_to_generic(g, 1e-15, seed=0)
    for e0, e1 in zip(g.edges, tiny.edges):
        assert e1.length == pytest.approx(e0.length, rel=1e-12)
    with pytest.raises(ValueError):
        perturb_to_generic(g, 0.0, seed=0)


def test_random_graph_json_is_byte_identical_per_seed():
    a = random_metric_graph(5, 8, (0.5, 2.0), seed=99)
    b = random_metric_graph(5, 8, (0.5, 2.0), seed=99)
    assert json.dumps(to_json_dict(a), sort_keys=True) == json.dumps(
        to_json_dict(b), sort_keys=True
    )


def test_single_vertex_graph_everywhere():
    g = bouquet([])
    assert first_betti(g) == 0
    assert len(shortest_loop_system(g)) == 0
    assert extended_persistence_1d(g, GraphPoint.at_vertex("o")).pairs() == ()
    assert geodesic_distance(
        g, GraphPoint.at_vertex("o"), GraphPoint.at_vertex("o")
    ) == 0.0
