import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdist import (
    Edge,
    GraphError,
    GraphFormatError,
    MetricGraph,
    TreeOfLoopsSpec,
    bottleneck_value,
    bouquet,
    intrinsic_cech_diagram,
    intrinsic_cech_distance,
    is_tree_of_loops,
    named,
    persistence_distortion,
    persistence_distortion_from_samples,
    random_metric_graph,
    sample_base_points,
    sample_phi,
    shortest_loop_system,
    tree_of_loops,
    yaxis_bottleneck,
)
from graphdist import graph_distances
from graphdist.graph_distances import MAX_SAMPLES
from graphdist.diagram_distances import hausdorff_bottleneck
from graphdist.harness import random_bouquet, random_tree_of_loops_spec

from oracles import pruned_hausdorff, string_keyed_extended_persistence_1d
from test_diagram_distances import DeathGapGround


def scaled(g: MetricGraph, c: float) -> MetricGraph:
    return MetricGraph(
        g.vertices, tuple(Edge(e.id, e.u, e.v, e.length * c) for e in g.edges)
    )


# ------------------------------------------------------------- intrinsic Cech


def test_cech_diagram_examples():
    assert intrinsic_cech_diagram(named("path:2")).pairs() == ()
    assert intrinsic_cech_diagram(named("cycle:2")).pairs() == ((0.0, 0.5),)
    assert intrinsic_cech_diagram(bouquet([2, 4])).pairs() == ((0.0, 0.5), (0.0, 1.0))


def test_cech_distance_examples():
    t1 = random_metric_graph(5, 4, (0.5, 2.0), seed=1)
    t2 = random_metric_graph(7, 6, (0.5, 2.0), seed=2)
    assert intrinsic_cech_distance(t1, t2) == 0.0
    g = named("theta")
    assert intrinsic_cech_distance(g, g) == 0.0
    assert intrinsic_cech_distance(bouquet([2, 4]), bouquet([2, 6])) == pytest.approx(0.5)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_cech_distance_equals_diagram_bottleneck(seed):
    rng = random.Random(seed)
    n1, n2 = rng.randint(2, 5), rng.randint(2, 5)
    g1 = random_metric_graph(n1, n1 - 1 + rng.randint(0, 3), (0.5, 2.0), seed=seed)
    g2 = random_metric_graph(n2, n2 - 1 + rng.randint(0, 3), (0.5, 2.0), seed=seed + 1)
    closed_form = intrinsic_cech_distance(g1, g2)
    via_bottleneck = bottleneck_value(
        intrinsic_cech_diagram(g1), intrinsic_cech_diagram(g2), "l1"
    )
    assert closed_form == pytest.approx(via_bottleneck, abs=1e-12)
    deaths1 = [d for _, d in intrinsic_cech_diagram(g1).pairs()]
    deaths2 = [d for _, d in intrinsic_cech_diagram(g2).pairs()]
    assert closed_form == yaxis_bottleneck(deaths1, deaths2)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_cech_distance_pseudometric(seed):
    gs = [
        random_metric_graph(3, 3 + (seed + k) % 3, (0.5, 2.0), seed=seed + k)
        for k in range(3)
    ]
    d01 = intrinsic_cech_distance(gs[0], gs[1])
    d10 = intrinsic_cech_distance(gs[1], gs[0])
    d02 = intrinsic_cech_distance(gs[0], gs[2])
    d12 = intrinsic_cech_distance(gs[1], gs[2])
    assert intrinsic_cech_distance(gs[0], gs[0]) == 0.0
    assert d01 == pytest.approx(d10, abs=1e-12)
    assert d02 <= d01 + d12 + 1e-9


# ------------------------------------------------------------------- sampling


def test_sample_counts():
    g = named("path:1")
    phi = sample_phi(g, 0.25)
    assert len(phi.samples) == 5
    phi = sample_phi(g, 2.0)  # delta >= max edge length: vertices only
    assert len(phi.samples) == 2


def test_sample_gaps_at_most_delta():
    g = named("dumbbell:2,1,4")
    delta = 0.3
    phi = sample_phi(g, delta)
    per_edge = {}
    for p, _ in phi.samples:
        if not p.is_vertex:
            per_edge.setdefault(p.edge, []).append(p.offset)
    for e in g.edges:
        offs = sorted(per_edge.get(e.id, []))
        stops = [0.0] + offs + [e.length]
        gaps = [b - a for a, b in zip(stops, stops[1:])]
        assert max(gaps) <= delta * (1 + 1e-9)


def test_sample_rejects_bad_delta():
    with pytest.raises(GraphFormatError):
        sample_phi(named("path:1"), 0.0)


def test_sample_limit_counts_the_vertices():
    def path(n):
        return MetricGraph.build(
            [f"v{i}" for i in range(n)], [(f"e{i}", f"v{i}", f"v{i + 1}", 1.0) for i in range(n - 1)]
        )

    # at delta 2 every sample is a vertex
    assert len(sample_base_points(path(MAX_SAMPLES), 2.0)) == MAX_SAMPLES
    with pytest.raises(GraphError, match=str(MAX_SAMPLES)):
        sample_base_points(path(MAX_SAMPLES + 1), 2.0)


# -------------------------------------------------------- distortion distance


def test_distortion_zero_for_identical_graph():
    g = named("dumbbell:2,1,4")
    estimate, bound = persistence_distortion(g, g, 0.2)
    assert estimate == 0.0
    assert bound == pytest.approx(0.4)


def test_distortion_two_circles_pinned_value():
    # circles of circumference 2 and 4: every diagram is {(0,1)} resp {(0,2)},
    # so the distance is exactly the single bottleneck value 1.0
    for delta in (0.5, 0.1, 0.013):
        estimate, _ = persistence_distortion(bouquet([2.0]), bouquet([4.0]), delta)
        assert estimate == pytest.approx(1.0, abs=1e-12)


def test_distortion_refinement_changes_estimate_by_at_most_3delta():
    pairs = [
        (
            tree_of_loops(
                TreeOfLoopsSpec(
                    loops_per_node=((2.0,), (3.0,)), tree_edges=((0, 1, 1.0),)
                )
            ),
            named("dumbbell:2,1,4"),
        ),
        (bouquet([2.0, 3.5]), random_metric_graph(4, 6, (1.0, 2.0), seed=21)),
    ]
    delta = 0.4
    for g1, g2 in pairs:
        e1, _ = persistence_distortion(g1, g2, delta)
        e2, _ = persistence_distortion(g1, g2, delta / 2)
        e3, _ = persistence_distortion(g1, g2, delta / 4)
        assert abs(e1 - e2) <= 3 * delta + 1e-9
        assert abs(e2 - e3) <= 3 * (delta / 2) + 1e-9


def test_distortion_against_a_tree_is_the_largest_half_length():
    # A tree's diagrams are all empty, so each bottleneck is the largest
    # diagonal cost of G's diagram, and the largest of those over G's points
    # is half the longest shortest-system loop, max half_length(G).
    rng = random.Random(5)
    not_trees_of_loops = 0
    for k in range(30):
        n = rng.randint(3, 6)
        g = random_metric_graph(n, rng.randint(n, n + 3), (1.0, 2.0), seed=900 + k)
        nt = rng.randint(1, 5)
        tree = random_metric_graph(nt, nt - 1, (1.0, 2.0), seed=700 + k)
        target = max(shortest_loop_system(g).half_lengths)
        runs = {}
        for delta in (0.3, 0.15, 0.07):
            estimate, bound = persistence_distortion(g, tree, delta)
            assert abs(estimate - target) <= bound, (k, delta)
            runs[delta] = estimate, bound
        (coarse, coarse_bound), (fine, fine_bound) = runs[0.3], runs[0.15]
        assert abs(coarse - fine) <= coarse_bound + fine_bound
        not_trees_of_loops += not is_tree_of_loops(g)
    assert not_trees_of_loops >= 10


def test_scale_equivariance():
    g1 = named("dumbbell:2,1,4")
    g2 = bouquet([2.0, 3.0])
    c = 2.0
    assert intrinsic_cech_distance(scaled(g1, c), scaled(g2, c)) == pytest.approx(
        c * intrinsic_cech_distance(g1, g2), rel=1e-12
    )
    base, _ = persistence_distortion(g1, g2, 0.25)
    scaled_est, _ = persistence_distortion(scaled(g1, c), scaled(g2, c), c * 0.25)
    assert scaled_est == pytest.approx(c * base, rel=1e-9)


def test_two_trees_have_zero_distortion_under_dim1_convention():
    # 1-dimensional diagrams of trees are empty, so the sampled estimate is 0
    # (and d_IC is 0 as well); see the discriminativity test below for the
    # tree-of-loops contrast.
    t1 = random_metric_graph(5, 4, (0.5, 2.0), seed=10)
    t2 = random_metric_graph(6, 5, (0.5, 2.0), seed=11)
    assert intrinsic_cech_distance(t1, t2) == 0.0
    estimate, _ = persistence_distortion(t1, t2, 0.25)
    assert estimate == 0.0


def test_distortion_separates_equal_loop_multisets():
    # same loop lengths, different connectors: d_IC = 0 but d_PD > 0
    g1 = tree_of_loops(
        TreeOfLoopsSpec(loops_per_node=((2.0,), (2.0,)), tree_edges=((0, 1, 0.5),))
    )
    g2 = tree_of_loops(
        TreeOfLoopsSpec(loops_per_node=((2.0,), (2.0,)), tree_edges=((0, 1, 2.5),))
    )
    assert intrinsic_cech_distance(g1, g2) == 0.0
    estimate, bound = persistence_distortion(g1, g2, 0.05)
    assert estimate - bound > 0.0


def test_tree_samples_equal_the_full_computation(monkeypatch):
    # sample_phi skips the diagrams of a tree; they must be the full
    # computation's, which are all empty
    def no_diagram(g, base):
        raise AssertionError("a tree's diagram was computed")

    monkeypatch.setattr(graph_distances, "extended_persistence_1d", no_diagram)
    rng = random.Random(31)
    trees = [bouquet([]), named("path:3")]
    for k in range(30):
        n = rng.randint(2, 8)
        lengths = (1.0, 1.0) if k % 3 == 0 else (0.5, 2.0)
        trees.append(random_metric_graph(n, n - 1, lengths, seed=1200 + k))
    for g in trees:
        delta = rng.uniform(0.2, 0.6)
        expected = tuple(
            (p, string_keyed_extended_persistence_1d(g, p))
            for p in sample_base_points(g, delta)
        )
        phi = sample_phi(g, delta)
        assert phi.samples == expected
        assert all(len(d) == 0 for d in phi.diagrams())


@pytest.mark.parametrize("family", ["bouquet", "tree-of-loops"])
def test_distinct_diagrams_give_the_hausdorff_of_the_full_lists(family, monkeypatch):
    # each side keeps one diagram per distinct pairs(); the value must be the
    # Hausdorff of the full lists, which hold repeats
    sizes = []

    def sized_hausdorff(s1, s2, ground):
        sizes.append((len(s1), len(s2)))
        return hausdorff_bottleneck(s1, s2, ground)

    monkeypatch.setattr(graph_distances, "hausdorff_bottleneck", sized_hausdorff)
    # (a graph of one loop gives one diagram from every base point)
    rng = random.Random(37)
    sides_with_repeats = 0
    for _ in range(6):
        if family == "bouquet":
            g1, g2 = random_bouquet(rng), random_bouquet(rng)
        else:
            g1, g2 = (tree_of_loops(random_tree_of_loops_spec(rng)) for _ in range(2))
        delta = max(g1.total_length, g2.total_length) / 30
        phi1, phi2 = sample_phi(g1, delta), sample_phi(g2, delta)
        full1 = [d.pairs() for d in phi1.diagrams()]
        full2 = [d.pairs() for d in phi2.diagrams()]
        sides_with_repeats += (len(set(full1)) < len(full1)) + (len(set(full2)) < len(full2))
        for ground in ("l1", "linf", DeathGapGround()):
            estimate, _ = persistence_distortion_from_samples(phi1, phi2, ground)
            assert estimate == pruned_hausdorff(full1, full2, ground)
            assert sizes.pop() == (len(set(full1)), len(set(full2)))
    assert sides_with_repeats >= 3
