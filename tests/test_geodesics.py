import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdist import (
    GraphPoint,
    MetricGraph,
    bouquet,
    geodesic_distance,
    geodesic_field,
    named,
    perturb_to_generic,
    random_metric_graph,
)

from oracles import random_base_point, shortest_path_tree


def V(x):
    return GraphPoint.at_vertex(x)


def E(e, off):
    return GraphPoint.on_edge(e, off)


def test_distance_identity():
    g = named("theta")
    assert geodesic_distance(g, V("a"), V("a")) == 0.0
    assert geodesic_distance(g, E("e2", 0.7), E("e2", 0.7)) == 0.0


def test_circle_antipodal():
    g = named("cycle:2")  # circumference 2s with s = 1
    assert geodesic_distance(g, V("o"), E("loop", 1.0)) == pytest.approx(1.0)
    # two interior points, both arcs considered
    assert geodesic_distance(g, E("loop", 0.25), E("loop", 1.75)) == pytest.approx(0.5)


def test_theta_vertex_distance_is_shortest_parallel_edge():
    g = named("theta")
    assert geodesic_distance(g, V("a"), V("b")) == pytest.approx(1.0)


def test_self_loop_interior_to_vertex():
    g = bouquet([6.0])
    assert geodesic_distance(g, E("loop0", 2.0), V("o")) == pytest.approx(2.0)
    assert geodesic_distance(g, E("loop0", 5.0), V("o")) == pytest.approx(1.0)


def test_field_single_loop_at_wedge():
    g = bouquet([2.0])
    f = geodesic_field(g, V("o"))
    assert f.vertex_values["o"] == 0.0
    (m,) = [m for m in f.interior_maxima.values() if m is not None]
    assert m == pytest.approx((1.0, 1.0))


def test_field_path_has_no_interior_maxima():
    g = named("path:3")
    f = geodesic_field(g, V("a"))
    assert all(m is None for m in f.interior_maxima.values())
    assert f.vertex_values["b"] == pytest.approx(3.0)


def test_field_circle_with_tail():
    g = MetricGraph.build(
        ["tip", "j"], [("tail", "tip", "j", 1.5), ("loop", "j", "j", 4.0)]
    )
    f = geodesic_field(g, V("tip"))
    assert f.interior_maxima["tail"] is None
    off, value = f.interior_maxima["loop"]
    assert off == pytest.approx(2.0)
    assert value == pytest.approx(1.5 + 2.0)  # L + s


def test_field_interior_base_promoted():
    g = named("path:2")
    f = geodesic_field(g, E("e", 0.5))
    assert f.base_vertex in f.graph.adjacency
    assert f.vertex_values[f.base_vertex] == 0.0
    assert f.vertex_values["a"] == pytest.approx(0.5)
    assert f.vertex_values["b"] == pytest.approx(1.5)


def test_spt_tree_input_uses_all_edges():
    g = random_metric_graph(6, 5, (0.5, 2.0), seed=3)
    spt = shortest_path_tree(g, V("v0"))
    assert spt.tree_edges == {e.id for e in g.edges}


def test_spt_bouquet_has_no_tree_edges():
    g = bouquet([2.0, 3.0, 4.0])
    spt = shortest_path_tree(g, V("o"))
    assert spt.tree_edges == frozenset()


def test_spt_theta_picks_shortest_edge():
    g = named("theta")
    spt = shortest_path_tree(g, V("a"))
    assert spt.tree_edges == {"e1"}
    assert spt.generic


def test_spt_detects_ties():
    g = MetricGraph.build(
        ["a", "b"], [("e1", "a", "b", 1.0), ("e2", "a", "b", 1.0)]
    )
    spt = shortest_path_tree(g, V("a"))
    assert not spt.generic
    assert spt.tree_edges == {"e1"}  # lowest edge id wins


def test_perturbation_restores_genericity_over_100_seeds():
    tied = MetricGraph.build(
        ["a", "b"], [("e1", "a", "b", 1.0), ("e2", "a", "b", 1.0)]
    )
    for seed in range(100):
        g = perturb_to_generic(tied, 0.01, seed)
        assert shortest_path_tree(g, V("a")).generic


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_geodesic_distance_is_a_metric(seed):
    rng = random.Random(seed)
    g = random_metric_graph(4, 6, (0.5, 2.0), seed=seed)
    pts = [random_base_point(rng, g) for _ in range(3)]
    d01 = geodesic_distance(g, pts[0], pts[1])
    d10 = geodesic_distance(g, pts[1], pts[0])
    d02 = geodesic_distance(g, pts[0], pts[2])
    d12 = geodesic_distance(g, pts[1], pts[2])
    assert d01 >= 0.0
    assert d01 == pytest.approx(d10, abs=1e-12)
    assert d02 <= d01 + d12 + 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_field_is_one_lipschitz_along_edges(seed):
    rng = random.Random(seed)
    g = random_metric_graph(5, 8, (0.5, 2.0), seed=seed)
    base = random_base_point(rng, g)
    f = geodesic_field(g, base)
    for e in f.graph.edges:
        fu, fv = f.vertex_values[e.u], f.vertex_values[e.v]
        assert abs(fu - fv) <= e.length + 1e-9
        m = f.interior_maxima[e.id]
        if m is not None:
            off, value = m
            assert 0.0 < off < e.length
            assert value == pytest.approx((fu + fv + e.length) / 2.0, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_interior_point_distance_matches_field(seed):
    # distance computed pointwise agrees with the field evaluated on the edge
    rng = random.Random(seed)
    g = random_metric_graph(4, 6, (0.5, 2.0), seed=seed)
    base = random_base_point(rng, g)
    f = geodesic_field(g, base)
    e = f.graph.edges[rng.randrange(len(f.graph.edges))]
    t = rng.uniform(0.0, e.length)
    fu, fv = f.vertex_values[e.u], f.vertex_values[e.v]
    expected = min(fu + t, fv + e.length - t)
    got = geodesic_distance(f.graph, base.normalized(g) if base.is_vertex else GraphPoint.at_vertex(f.base_vertex), E(e.id, t).normalized(f.graph))
    assert got == pytest.approx(expected, abs=1e-9)
