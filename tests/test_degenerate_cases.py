"""Tie-heavy and boundary inputs: results stay well-defined, flags surface."""

import json

import pytest

from graphdist import (
    Disconnected,
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
    persistence_distortion,
    random_metric_graph,
    sample_phi,
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


#: a triangle with isolated vertices, and a forest of two paths
_TRIANGLE = [("e1", "x", "y", 1.0), ("e2", "y", "z", 1.0), ("e3", "z", "x", 1.5)]
_TRIANGLE_AND_TWO_POINTS = MetricGraph.build(["x", "y", "z", "a", "b"], _TRIANGLE)
_TRIANGLE_AND_ONE_POINT = MetricGraph.build(["x", "y", "z", "a"], _TRIANGLE)
_FOREST = MetricGraph.build(
    ["a", "b", "x", "y"], [("e1", "a", "b", 1.0), ("e2", "x", "y", 1.0)]
)


@pytest.mark.parametrize("g", [_TRIANGLE_AND_TWO_POINTS, _FOREST], ids=["triangle+2", "forest"])
@pytest.mark.parametrize("base", ["x", "a"])
def test_diagram_of_a_disconnected_graph_raises(g, base):
    with pytest.raises(Disconnected):
        extended_persistence_1d(g, GraphPoint.at_vertex(base))


# _TRIANGLE_AND_ONE_POINT has |E| = |V| - 1, as a tree does
each_disconnected_graph = pytest.mark.parametrize(
    "g",
    [_TRIANGLE_AND_TWO_POINTS, _TRIANGLE_AND_ONE_POINT, _FOREST],
    ids=["triangle+2", "triangle+1", "forest"],
)


@each_disconnected_graph
def test_sampling_a_disconnected_graph_raises(g):
    with pytest.raises(Disconnected):
        sample_phi(g, 0.5)


@each_disconnected_graph
def test_distortion_with_a_disconnected_graph_raises(g):
    with pytest.raises(Disconnected):
        persistence_distortion(bouquet([2.0]), g, 0.5)
    with pytest.raises(Disconnected):
        persistence_distortion(g, named("path:2"), 0.5)
