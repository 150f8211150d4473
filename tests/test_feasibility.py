import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdist import (
    GraphPoint,
    Matching,
    MetricGraph,
    NotABouquet,
    NotTreeOfLoops,
    TreeOfLoopsSpec,
    bottleneck_value,
    bouquet,
    extended_persistence_1d,
    intrinsic_cech_distance,
    is_bouquet,
    is_tree_of_loops,
    named,
    shortest_loop_system,
    subdivide,
    to_json_dict,
    tree_of_loops,
    verify_bouquet_inequality,
    verify_tree_of_loops_inequality,
    yaxis_bottleneck,
)
from graphdist.harness import random_tree_of_loops_spec
from graphdist.metric_graph import _component_of

from oracles import (
    FeasibilityGraph,
    HallWitness,
    SizeMismatch,
    build_feasibility_graph,
    hall_condition_holds,
    ideal_replacement_no_worse,
    in_feasible_region,
    perfect_matching,
    random_generic_instance,
    smooth_degree_two,
)


# -------------------------------------------------------------------- regions


def test_region_corner_and_boundaries():
    assert in_feasible_region((0.0, 1.0), 1.0)  # corner (0, s)
    for z1 in (0.0, 0.5, 3.0):
        assert in_feasible_region((z1, z1 + 1.0), 1.0)  # upper boundary
    assert in_feasible_region((2.0, 2.0), 1.0)  # diagonal part
    assert not in_feasible_region((0.0, 1.1), 1.0)  # above z1 + s
    assert not in_feasible_region((0.0, 0.9), 1.0)  # below s
    assert not in_feasible_region((-0.1, 1.0), 1.0)
    assert not in_feasible_region((2.0, 1.5), 1.0)  # z2 < z1


def test_ideal_replacement_worked_cases():
    # z on the corner: equality
    assert ideal_replacement_no_worse((0.0, 1.0), 1.0, 1.0)
    # s=1, t=3, z=(2,3): |1-3| = 2 <= ||(2,3)-(0,3)||_1 = 2
    assert in_feasible_region((2.0, 3.0), 1.0)
    assert ideal_replacement_no_worse((2.0, 3.0), 1.0, 3.0)
    # s=1, t=5, z=(1,2): 4 <= 1 + 3
    assert in_feasible_region((1.0, 2.0), 1.0)
    assert ideal_replacement_no_worse((1.0, 2.0), 1.0, 5.0)


@settings(max_examples=200, deadline=None)
@given(
    s=st.floats(0.0, 10.0),
    t=st.floats(0.0, 10.0),
    z1=st.floats(0.0, 10.0),
    u=st.floats(0.0, 1.0),
)
def test_ideal_replacement_random_triples(s, t, z1, u):
    # sample z uniformly inside the region: z2 between max(s, z1) and z1 + s
    lo = max(s, z1)
    hi = z1 + s
    if lo > hi:
        z1 = s  # degenerate slice; move onto a valid one
        lo, hi = s, 2 * s
    z2 = lo + u * (hi - lo)
    assert in_feasible_region((z1, z2), s, tol=1e-12)
    assert ideal_replacement_no_worse((z1, z2), s, t)


# ----------------------------------------------------------- feasibility graph


def test_bouquet_at_wedge_has_full_diagonal():
    g = bouquet([2.0, 4.0, 6.0])
    system = shortest_loop_system(g)
    diagram = extended_persistence_1d(g, GraphPoint.at_vertex("o"))
    fg = build_feasibility_graph(system, diagram)
    n = len(system)
    assert all((i, i) in set(fg.edges) for i in range(n))


def test_single_circle_any_base():
    g = named("cycle:3")
    system = shortest_loop_system(g)
    for base in (GraphPoint.at_vertex("o"), GraphPoint.on_edge("loop", 1.1)):
        diagram = extended_persistence_1d(g, base)
        fg = build_feasibility_graph(system, diagram)
        assert fg.edges == ((0, 0),)


def test_size_mismatch_detected():
    g = bouquet([2.0, 4.0])
    system = shortest_loop_system(g)
    smaller = extended_persistence_1d(named("cycle:2"), GraphPoint.at_vertex("o"))
    with pytest.raises(SizeMismatch):
        build_feasibility_graph(system, smaller)


def test_every_left_node_has_a_neighbor_on_random_instances():
    for seed in range(25):
        g, base = random_generic_instance(seed)
        system = shortest_loop_system(g)
        diagram = extended_persistence_1d(g, base)
        fg = build_feasibility_graph(system, diagram)
        adj = fg.adjacency()
        assert all(adj[i] for i in range(len(system)))


# ------------------------------------------------------------------- matching


def test_full_bipartite_graph_has_perfect_matching():
    fg = FeasibilityGraph(
        s_values=(1.0, 2.0),
        points=((0.0, 1.0), (0.0, 2.0)),
        edges=tuple((i, j) for i in range(2) for j in range(2)),
    )
    result = perfect_matching(fg)
    assert isinstance(result, Matching)
    assert len(result.pairs) == 2


def test_hall_witness_when_both_lefts_share_one_neighbor():
    fg = FeasibilityGraph(
        s_values=(1.0, 2.0),
        points=((0.0, 1.5), (9.0, 9.5)),
        edges=((0, 0), (1, 0)),
    )
    result = perfect_matching(fg)
    assert isinstance(result, HallWitness)
    assert result.left_indices == (0, 1)
    assert result.neighbor_indices == (0,)


def test_perfect_matching_on_long_alternating_chain():
    # every augmenting search first walks back along the whole chain, which
    # once overflowed the recursive matcher
    n = 3000
    edges = [(0, 0)]
    for u in range(1, n):
        edges += [(u, u - 1), (u, u)]
    fg = FeasibilityGraph(
        s_values=tuple(float(u + 1) for u in range(n)),
        points=tuple((0.0, float(u + 1)) for u in range(n)),
        edges=tuple(edges),
    )
    result = perfect_matching(fg)
    assert isinstance(result, Matching)
    assert result.pairs == tuple(((0.0, float(u + 1)),) * 2 for u in range(n))
    assert result.cost == 0.0


def test_perfect_matching_exists_on_random_instances():
    for seed in range(60):
        g, base = random_generic_instance(seed)
        system = shortest_loop_system(g)
        diagram = extended_persistence_1d(g, base)
        fg = build_feasibility_graph(system, diagram)
        result = perfect_matching(fg)
        assert isinstance(result, Matching), f"Hall witness at seed {seed}: {result}"
        if len(system) <= 4:
            assert hall_condition_holds(fg.adjacency())


def test_chained_bound_bottleneck_at_least_twice_dic():
    # d_B(D_1, D_2) >= 2 d_IC for a bouquet diagram D_1 and any D_2 of g2
    rng = random.Random(3)
    for seed in range(15):
        g1 = bouquet([rng.uniform(1.0, 4.0) for _ in range(rng.randint(1, 3))])
        g2, base = random_generic_instance(seed)
        d1 = extended_persistence_1d(g1, GraphPoint.at_vertex("o"))
        d2 = extended_persistence_1d(g2, base)
        dic = intrinsic_cech_distance(g1, g2)
        t = [l / 2 for l in shortest_loop_system(g1).lengths]
        s = [l / 2 for l in shortest_loop_system(g2).lengths]
        assert yaxis_bottleneck(t, s) == pytest.approx(2.0 * dic, abs=1e-12)
        assert bottleneck_value(d1, d2, "l1") >= 2.0 * dic - 1e-9


# ---------------------------------------------------------------- recognizers


def test_smoothing_collapses_subdivided_bouquet():
    g = bouquet([2.0, 4.0])
    g2, _, _ = subdivide(
        g, [GraphPoint.on_edge("loop0", 0.5), GraphPoint.on_edge("loop1", 1.0)]
    )
    assert is_bouquet(g2)
    smooth = smooth_degree_two(g2)
    assert len(smooth.vertices) == 1
    assert sorted(e.length for e in smooth.edges) == [2.0, 4.0]


def test_bouquet_recognizer_rejects_non_bouquets():
    assert is_bouquet(bouquet([]))
    assert is_bouquet(named("cycle:2"))
    assert not is_bouquet(named("theta"))
    assert not is_bouquet(named("dumbbell:2,1,4"))
    assert not is_bouquet(named("path:1"))


def _random_multigraph(rng: random.Random) -> MetricGraph:
    n = rng.randint(1, 5)
    vertices = [f"v{i}" for i in range(n)]
    edges = [
        (f"e{k}", rng.choice(vertices), rng.choice(vertices), rng.uniform(0.5, 2.0))
        for k in range(rng.randint(0, 6))
    ]
    return MetricGraph.build(vertices, edges)


def _random_subdivided_bouquet(rng: random.Random) -> MetricGraph:
    g = bouquet([rng.uniform(1.0, 3.0) for _ in range(rng.randint(0, 3))])
    cuts = [
        GraphPoint.on_edge(e.id, rng.uniform(0.1, 0.9) * e.length)
        for e in g.edges
        for _ in range(rng.randint(0, 2))
    ]
    return subdivide(g, cuts)[0]


def test_bouquet_recognizer_matches_smoothing_oracle():
    rng = random.Random(20261018)
    kinds = {"disconnected": 0, "bouquet": 0, "other": 0}
    for k in range(2000):
        subdivided = k % 4 == 3
        g = _random_subdivided_bouquet(rng) if subdivided else _random_multigraph(rng)
        smooth = smooth_degree_two(g)
        expected = len(smooth.vertices) == 1 and all(
            e.is_self_loop for e in smooth.edges
        )
        assert is_bouquet(g) == expected, to_json_dict(g)
        assert expected or not subdivided
        if len(_component_of(g, g.vertices[0])) < len(g.vertices):
            kinds["disconnected"] += 1
        kinds["bouquet" if expected else "other"] += 1
    assert all(count >= 100 for count in kinds.values()), kinds


def test_tree_of_loops_recognizer():
    assert is_tree_of_loops(named("dumbbell:2,1,4"))
    assert is_tree_of_loops(bouquet([1.0, 2.0]))
    assert is_tree_of_loops(named("path:1"))
    assert is_tree_of_loops(named("cycle:2"))
    assert not is_tree_of_loops(named("theta"))
    rng = random.Random(4)
    for _ in range(10):
        assert is_tree_of_loops(tree_of_loops(random_tree_of_loops_spec(rng)))
    # subdivided cycles still qualify
    g, _, _ = subdivide(named("cycle:2"), [GraphPoint.on_edge("loop", 0.5)])
    assert is_tree_of_loops(g)


# ------------------------------------------------------------------ verifiers


def test_verify_bouquet_same_graph_passes():
    g = bouquet([2.0, 4.0])
    report = verify_bouquet_inequality(g, g, 0.1)
    assert report.verdict == "PASS"
    assert report.dic == 0.0


def test_verify_bouquet_example_pair():
    report = verify_bouquet_inequality(bouquet([2.0, 4.0]), bouquet([2.0, 6.0]), 0.05)
    assert report.dic == pytest.approx(0.5)
    assert report.verdict == "PASS"
    assert report.ratio <= 1.0


def test_verify_bouquet_requires_bouquet():
    with pytest.raises(NotABouquet):
        verify_bouquet_inequality(named("theta"), named("theta"), 0.1)


def test_verify_trees_requires_trees_of_loops():
    with pytest.raises(NotTreeOfLoops):
        verify_tree_of_loops_inequality(named("theta"), named("cycle:2"), 0.1)


def test_verify_trees_identical_passes():
    g = tree_of_loops(
        TreeOfLoopsSpec(loops_per_node=((2.0,), (4.0,)), tree_edges=((0, 1, 1.0),))
    )
    report = verify_tree_of_loops_inequality(g, g, 0.1)
    assert report.verdict == "PASS"


def test_verify_trees_single_loop_with_tails():
    g1 = tree_of_loops(
        TreeOfLoopsSpec(loops_per_node=((), (2.0,)), tree_edges=((0, 1, 1.0),))
    )
    g2 = tree_of_loops(
        TreeOfLoopsSpec(loops_per_node=((), (4.0,)), tree_edges=((0, 1, 1.0),))
    )
    report = verify_tree_of_loops_inequality(g1, g2, 0.02)
    assert report.dic == pytest.approx(0.5)
    assert report.verdict == "PASS"
    # the bound is tight on this pair: d_PD = 1 = 2 d_IC
    assert report.dpd_estimate == pytest.approx(1.0, abs=1e-9)
