import math
import random

import pytest

from graphdist import (
    GraphPoint,
    is_tree_of_loops,
    MetricGraph,
    NotAClosedWalk,
    bouquet,
    first_betti,
    geodesic_field,
    named,
    random_metric_graph,
    shortest_loop_system,
    tree_of_loops,
)
from graphdist.cycles import _parent_edges, _walk_of_cycle
from graphdist.harness import random_tree_of_loops_spec

from oracles import (
    brute_lex_min_length_sequence,
    cycle_metrics,
    frozenset_loop_system,
    networkx_loop_lengths,
    pairwise_is_tree_of_loops,
    random_base_point,
    shortest_path_tree,
)


def test_tree_has_empty_system():
    g = random_metric_graph(5, 4, (0.5, 2.0), seed=0)
    assert first_betti(g) == 0
    system = shortest_loop_system(g)
    assert len(system) == 0
    assert system.lengths == ()


def test_bouquet_forced_loops():
    g = bouquet([2.0, 4.0])
    system = shortest_loop_system(g)
    assert system.lengths == (2.0, 4.0)
    assert system.edge_sets() == (frozenset({"loop0"}), frozenset({"loop1"}))


def test_theta_system():
    g = named("theta")
    system = shortest_loop_system(g)
    assert system.lengths == (3.0, 4.0)
    assert system.edge_sets() == (frozenset({"e1", "e2"}), frozenset({"e1", "e3"}))


def test_betti_examples():
    assert first_betti(named("path:1")) == 0
    assert first_betti(bouquet([1, 2, 3])) == 3
    assert first_betti(named("theta")) == 2


def test_loops_are_closed_walks():
    g = named("dumbbell:2,1,4")
    system = shortest_loop_system(g)
    for loop, length in zip(system.loops, system.lengths):
        ids = [eid for eid, _ in loop]
        assert length == pytest.approx(
            math.fsum(g.edge_by_id[i].length for i in ids)
        )


def test_lengths_nondecreasing_and_cardinality():
    for seed in range(20):
        g = random_metric_graph(4, 4 + seed % 4, (0.5, 2.0), seed=seed)
        system = shortest_loop_system(g)
        assert len(system) == first_betti(g)
        assert list(system.lengths) == sorted(system.lengths)


def test_independence_full_rank():
    for seed in range(10):
        g = random_metric_graph(4, 7, (0.5, 2.0), seed=seed)
        system = shortest_loop_system(g)
        index = {e.id: i for i, e in enumerate(g.edges)}
        pivots = {}
        rank = 0
        for ids in system.edge_sets():
            m = 0
            for eid in ids:
                m |= 1 << index[eid]
            while m:
                b = m.bit_length() - 1
                if b in pivots:
                    m ^= pivots[b]
                else:
                    pivots[b] = m
                    rank += 1
                    break
        assert rank == len(system) == first_betti(g)


def test_greedy_matches_bruteforce_on_small_graphs():
    checked = 0
    for seed in range(60):
        n = 2 + seed % 3
        m = min(6, n - 1 + 1 + seed % 3)
        g = random_metric_graph(n, m, (0.5, 2.0), seed=1000 + seed)
        if first_betti(g) > 3:
            continue
        got = shortest_loop_system(g).lengths
        expect = brute_lex_min_length_sequence(g)
        assert got == pytest.approx(expect, rel=1e-12), f"seed {seed}"
        checked += 1
    assert checked >= 30


def test_greedy_matches_bruteforce_betti_four():
    g = MetricGraph.build(
        ["a", "b"],
        [
            ("e0", "a", "b", 1.0),
            ("e1", "a", "b", 1.5),
            ("e2", "a", "b", 2.0),
            ("e3", "a", "a", 0.7),
            ("e4", "b", "b", 2.5),
        ],
    )
    assert first_betti(g) == 4
    got = shortest_loop_system(g).lengths
    assert got == pytest.approx(brute_lex_min_length_sequence(g), rel=1e-12)


def test_cycle_metrics_circle_based_on_it():
    g = named("cycle:4")  # 2s = 4
    f = geodesic_field(g, GraphPoint.at_vertex("o"))
    length, hi, lo, height = cycle_metrics(g, ["loop"], f)
    assert (length, hi, lo, height) == pytest.approx((4.0, 2.0, 0.0, 2.0))


def test_cycle_metrics_loop_with_tail():
    g = MetricGraph.build(
        ["tip", "j"], [("tail", "tip", "j", 1.5), ("loop", "j", "j", 4.0)]
    )
    f = geodesic_field(g, GraphPoint.at_vertex("tip"))
    length, hi, lo, height = cycle_metrics(g, ["loop"], f)
    assert (length, hi, lo, height) == pytest.approx((4.0, 3.5, 1.5, 2.0))


def test_cycle_metrics_degenerate_self_loop_at_base():
    g = bouquet([3.0])
    f = geodesic_field(g, GraphPoint.at_vertex("o"))
    length, hi, lo, height = cycle_metrics(g, ["loop0"], f)
    assert (length, hi, lo, height) == pytest.approx((3.0, 1.5, 0.0, 1.5))


def test_cycle_metrics_rejects_open_walks():
    g = named("theta")
    f = geodesic_field(g, GraphPoint.at_vertex("a"))
    with pytest.raises(NotAClosedWalk):
        cycle_metrics(g, ["e1"], f)
    with pytest.raises(NotAClosedWalk):
        cycle_metrics(g, [], f)


def test_walk_of_a_self_loop_is_that_loop_alone():
    g = named("dumbbell:2,1,3")
    assert _walk_of_cycle(g, frozenset({"loopA"})) == (("loopA", 1),)
    # a self-loop plus other edges is no simple cycle, whichever comes first
    for edge_ids in ({"loopA", "bar"}, {"loopA", "loopB"}, {"bar", "loopB"}):
        with pytest.raises(NotAClosedWalk):
            _walk_of_cycle(g, frozenset(edge_ids))


def test_shortest_loop_max_value_is_at_least_half_length():
    # every loop of the shortest system reaches value >= half its length
    rng = random.Random(9)
    for seed in range(25):
        g = random_metric_graph(4, 6, (0.5, 2.0), seed=seed, generic_epsilon=1e-3)
        system = shortest_loop_system(g)
        base = random_base_point(rng, g)
        f = geodesic_field(g, base)
        for loop, length in zip(system.loops, system.lengths):
            _, hi, _, _ = cycle_metrics(g, loop, f)
            assert hi >= length / 2.0 - 1e-9


def test_loop_lengths_match_networkx_minimum_cycle_basis():
    # self-loops and parallel edges included; equal lengths give ties
    checked = 0
    for seed in range(60):
        n = 1 + seed % 6
        m = max(1, n - 1 + seed % 5)
        length_range = (1.0, 1.0) if seed % 3 == 0 else (0.5, 2.0)
        g = random_metric_graph(n, m, length_range, seed=seed)
        expected = networkx_loop_lengths(g)
        assert len(expected) == first_betti(g)
        assert list(shortest_loop_system(g).lengths) == pytest.approx(expected, rel=1e-12)
        checked += len(expected)
    assert checked > 100


def _parent_edge_graphs():
    rng = random.Random(5)
    for seed in range(1000):
        n = 1 + seed % 8
        m = n - 1 + seed % 6
        kind = seed % 4
        if kind == 0:  # all lengths equal: many exact ties
            yield random_metric_graph(n, m, (1.0, 1.0), seed=seed)
        elif kind == 1:
            yield random_metric_graph(n, m, (0.5, 2.0), seed=seed)
        elif kind == 2:  # decimal lengths whose sums tie only up to rounding
            g = random_metric_graph(n, m, (1.0, 1.0), seed=seed)
            yield MetricGraph.build(
                g.vertices,
                [(e.id, e.u, e.v, rng.choice((0.1, 0.2, 0.3, 0.6))) for e in g.edges],
            )
        else:
            yield tree_of_loops(random_tree_of_loops_spec(random.Random(seed)))
    for k in range(1, 5):
        yield bouquet([rng.choice((1.0, 2.0, 2.5)) for _ in range(k)])


def test_parent_edges_match_tie_aware_shortest_path_tree():
    # self-loops and parallel edges come from random_metric_graph's extra edges
    roots = 0
    for g in _parent_edge_graphs():
        for root in g.vertices:
            spt = shortest_path_tree(g, GraphPoint.at_vertex(root))
            assert _parent_edges(g, root) == spt.parent_edge
            roots += 1
    assert roots > 3000


def _shuffled(g: MetricGraph, rng: random.Random) -> MetricGraph:
    """Edges in a random order under fresh random ids, so that an edge's bit
    and its id's rank in sorted order disagree."""
    names = rng.sample(range(100), len(g.edges))
    edges = [(f"x{k}", e.u, e.v, e.length) for k, e in zip(names, g.edges)]
    return MetricGraph.build(g.vertices, rng.sample(edges, len(edges)))


def test_int_mask_loop_system_equals_the_frozenset_one():
    # all-equal lengths, self-loops, parallel edges, trees, bouquets and trees
    # of loops, each as built and with its edges shuffled and renamed
    rng = random.Random(24)
    graphs = loops = 0
    for g in _parent_edge_graphs():
        for h in (g, _shuffled(g, rng)):
            expected = frozenset_loop_system(h)
            got = shortest_loop_system(h)
            assert got.loops == expected.loops
            assert got.lengths == expected.lengths
            assert is_tree_of_loops(h) == pairwise_is_tree_of_loops(h)
            graphs += 1
            loops += len(got)
    assert graphs > 2000 and loops > 4500
