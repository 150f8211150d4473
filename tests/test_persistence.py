import random

import pytest

from graphdist import (
    GraphPoint,
    MetricGraph,
    NonPositiveLength,
    SpecNotTreeOfLoops,
    TreeOfLoopsSpec,
    bottleneck_value,
    bouquet,
    extended_persistence_1d,
    first_betti,
    geodesic_field,
    named,
    random_metric_graph,
    shortest_loop_system,
    tree_of_loops,
    tree_of_loops_parts,
)
from graphdist.cli import _diagram_csv
from graphdist.harness import random_tree_of_loops_spec

from oracles import (
    all_closed_walk_edge_sets,
    build_filtration,
    cycle_metrics,
    geodesic_distance,
    matrix_extended_persistence_1d,
    random_base_point,
    string_keyed_extended_persistence_1d,
    tree_of_loops_diagram,
)


def V(x):
    return GraphPoint.at_vertex(x)


def multiset(diagram):
    return tuple(sorted(diagram.pairs()))


def assert_multisets_close(d1, d2, tol=1e-9):
    p1, p2 = multiset(d1), multiset(d2)
    assert len(p1) == len(p2)
    for a, b in zip(p1, p2):
        assert a == pytest.approx(b, abs=tol)


def assert_pairs_close(got, expected, tol=1e-9):
    assert len(got) == len(expected)
    for a, b in zip(sorted(got), sorted(expected)):
        assert a == pytest.approx(b, abs=tol)


# ---------------------------------------------------------------- filtration


def test_filtration_path_orders_by_distance():
    g = named("path:2")
    fc = build_filtration(g, V("a"))
    kinds = [k for k, _ in fc.ascending]
    assert kinds == ["v", "v", "e"]
    values = [fc.simplex_value(s) for s in fc.ascending]
    assert values == sorted(values)


def test_filtration_subdivides_loop_at_max():
    g = bouquet([2.0])
    fc = build_filtration(g, V("o"))
    edge_values = [fc.simplex_value(s) for s in fc.ascending if s[0] == "e"]
    assert edge_values == pytest.approx([1.0, 1.0])
    assert len(fc.graph.edges) == 2


def test_filtration_circle_with_tail_cut_value():
    g = MetricGraph.build(
        ["tip", "j"], [("tail", "tip", "j", 1.5), ("loop", "j", "j", 4.0)]
    )
    fc = build_filtration(g, V("tip"))
    assert max(fc.values.values()) == pytest.approx(3.5)  # L + s


def test_filtration_orders_respect_faces():
    g = random_metric_graph(5, 8, (0.5, 2.0), seed=11)
    fc = build_filtration(g, GraphPoint.on_edge(g.edges[0].id, 0.3))
    seen = set()
    for kind, ref in fc.ascending:
        if kind == "e":
            e = fc.graph.edge_by_id[ref]
            assert ("v", e.u) in seen and ("v", e.v) in seen
        seen.add((kind, ref))
    seen = set()
    for kind, ref in fc.descending:
        if kind == "cone_t":
            e = fc.graph.edge_by_id[ref]
            assert ("cone_e", e.u) in seen and ("cone_e", e.v) in seen
        seen.add((kind, ref))


# ------------------------------------------------------------------ diagrams


def test_bouquet_diagram_at_wedge():
    g = bouquet([2.0, 4.0, 6.0])
    d = extended_persistence_1d(g, V("o"))
    assert multiset(d) == ((0.0, 1.0), (0.0, 2.0), (0.0, 3.0))
    assert {p.edge for p in d.points} == {"loop0", "loop1", "loop2"}


def test_circle_diagram_any_base():
    g = named("cycle:2")
    for base in (V("o"), GraphPoint.on_edge("loop", 0.7)):
        d = extended_persistence_1d(g, base)
        assert multiset(d) == ((0.0, 1.0),)


def test_circle_with_tail_diagram():
    g = MetricGraph.build(
        ["tip", "j"], [("tail", "tip", "j", 1.5), ("loop", "j", "j", 4.0)]
    )
    d = extended_persistence_1d(g, V("tip"))
    assert_pairs_close(multiset(d), ((1.5, 3.5),))
    (pt,) = d.points
    assert pt.edge == "loop"


def test_tree_gives_empty_diagram():
    g = random_metric_graph(6, 5, (0.5, 2.0), seed=4)
    assert len(extended_persistence_1d(g, V("v0"))) == 0


# -------------------------------------------------------------------- oracle


def test_tree_of_loops_oracle_examples():
    spec = TreeOfLoopsSpec(loops_per_node=((2.0, 4.0),))
    d = tree_of_loops_diagram(spec, V("j0"))
    assert multiset(d) == ((0.0, 1.0), (0.0, 2.0))

    spec = TreeOfLoopsSpec(loops_per_node=((), (4.0,)), tree_edges=((0, 1, 1.5),))
    d = tree_of_loops_diagram(spec, V("j0"))
    assert_pairs_close(multiset(d), ((1.5, 3.5),))

    # base on the loop itself: its own entry has p = 0
    d = tree_of_loops_diagram(spec, GraphPoint.on_edge("n1loop0", 1.0))
    assert_pairs_close(multiset(d), ((0.0, 2.0),))


def test_tree_of_loops_spec_validation():
    with pytest.raises(SpecNotTreeOfLoops):
        tree_of_loops(TreeOfLoopsSpec(loops_per_node=()))
    with pytest.raises(SpecNotTreeOfLoops):
        tree_of_loops(
            TreeOfLoopsSpec(loops_per_node=((1.0,), (1.0,)), tree_edges=())
        )
    with pytest.raises(NonPositiveLength):
        tree_of_loops(
            TreeOfLoopsSpec(loops_per_node=((-1.0,),), tree_edges=())
        )


def test_oracle_equivalence_random_specs():
    rng = random.Random(42)
    for _ in range(15):
        spec = random_tree_of_loops_spec(rng)
        g, _ = tree_of_loops_parts(spec)
        for _ in range(25):
            base = random_base_point(rng, g)
            assert_multisets_close(
                extended_persistence_1d(g, base), tree_of_loops_diagram(spec, base)
            )


def _differential_cases():
    """Graphs with many ties: generic and equal-length random multigraphs,
    integer-length multigraphs with self-loops and parallel edges, bouquets
    and trees of loops."""
    rng = random.Random(17)
    for seed in range(40):
        n = 1 + seed % 5
        m = max(1, n - 1 + seed % 4)
        yield random_metric_graph(n, m, (0.5, 2.0), seed=seed, generic_epsilon=1e-3)
        yield random_metric_graph(n, m, (1.0, 1.0), seed=seed)
        names = [f"x{i}" for i in range(n)]
        edges = [
            (f"t{i}", names[rng.randrange(i)], names[i], float(rng.randint(1, 3)))
            for i in range(1, n)
        ]
        edges += [
            (f"c{k}", rng.choice(names), rng.choice(names), float(rng.randint(1, 3)))
            for k in range(1 + seed % 4)
        ]
        yield MetricGraph.build(names, edges)
        yield bouquet([float(rng.randint(1, 3)) for _ in range(1 + seed % 4)])
        yield tree_of_loops_parts(random_tree_of_loops_spec(rng))[0]


def test_union_find_pairing_bit_equal_to_matrix_oracle():
    rng = random.Random(18)
    n_points = 0
    for g in _differential_cases():
        bases = [V(v) for v in g.vertices]
        for e in g.edges:
            bases.append(GraphPoint.on_edge(e.id, e.length / 2.0))
            bases.append(random_base_point(rng, g))
        for base in bases:
            got = extended_persistence_1d(g, base)
            expected = matrix_extended_persistence_1d(g, base)
            assert [
                (p.birth, p.death, p.edge, p.paired_vertex) for p in got.points
            ] == [
                (p.birth, p.death, p.edge, p.paired_vertex) for p in expected.points
            ], (g, base)
            n_points += len(got)
    assert n_points > 1000


def _provenance(diagram):
    return [(p.birth, p.death, p.edge, p.paired_vertex) for p in diagram.points]


def _shuffled_ids(g, rng):
    """g with its edges shuffled under fresh random ids, so that an edge's
    index and its id's sorted rank disagree."""
    edges = list(g.edges)
    rng.shuffle(edges)
    ids = rng.sample(range(1000), len(edges))
    return MetricGraph.build(
        g.vertices, [(f"r{k}", e.u, e.v, e.length) for k, e in zip(ids, edges)]
    )


def test_integer_union_find_equals_the_string_keyed_passes():
    # every graph of _differential_cases as built and with shuffled ids, from
    # every vertex, every edge midpoint and one random point per edge
    rng = random.Random(19)
    n_pairs = n_points = 0
    for g0 in _differential_cases():
        for g in (g0, _shuffled_ids(g0, rng)):
            bases = [V(v) for v in g.vertices]
            for e in g.edges:
                bases.append(GraphPoint.on_edge(e.id, e.length / 2.0))
                bases.append(random_base_point(rng, g))
            for base in bases:
                got = extended_persistence_1d(g, base)
                expected = string_keyed_extended_persistence_1d(g, base)
                assert _provenance(got) == _provenance(expected), (g, base)
                n_pairs += 1
                n_points += len(got)
    assert n_pairs >= 2000 and n_points > 2000


# ------------------------------------------------------- structural behavior


def test_cardinality_equals_betti():
    rng = random.Random(5)
    for seed in range(30):
        n = 3 + seed % 4
        g = random_metric_graph(
            n, n - 1 + seed % 4, (0.5, 2.0), seed=seed, generic_epsilon=1e-3
        )
        base = random_base_point(rng, g)
        d = extended_persistence_1d(g, base)
        assert len(d) == first_betti(g)


def test_births_are_vertex_values():
    rng = random.Random(6)
    for seed in range(30):
        g = random_metric_graph(4, 7, (0.5, 2.0), seed=seed, generic_epsilon=1e-3)
        base = random_base_point(rng, g)
        f = geodesic_field(g, base)
        node_values = sorted(f.vertex_values.values())
        d = extended_persistence_1d(g, base)
        for p in d.points:
            assert any(abs(p.birth - v) <= 1e-9 * max(1.0, v) for v in node_values)
            assert p.paired_vertex in f.vertex_values


def test_diagram_floor_for_arbitrary_cycles():
    # for any cycle: some point dies at the cycle's top value, born at or
    # above the cycle's bottom value
    rng = random.Random(7)
    for seed in range(12):
        g = random_metric_graph(4, 6, (0.5, 2.0), seed=100 + seed, generic_epsilon=1e-3)
        base = random_base_point(rng, g)
        f = geodesic_field(g, base)
        d = extended_persistence_1d(g, base)
        for edge_ids, _length in all_closed_walk_edge_sets(g):
            _, hi, lo, _ = cycle_metrics(g, sorted(edge_ids), f)
            matches = [
                p
                for p in d.points
                if abs(p.death - hi) <= 1e-9 and p.birth >= lo - 1e-9
            ]
            assert matches, f"no diagram point for cycle {sorted(edge_ids)}"


def test_basis_sums_reach_largest_half_length():
    # any walkable sum of basis loops reaches at least the largest half-length
    rng = random.Random(8)
    for seed in range(12):
        g = random_metric_graph(3, 6, (0.5, 2.0), seed=200 + seed, generic_epsilon=1e-3)
        system = shortest_loop_system(g)
        base = random_base_point(rng, g)
        f = geodesic_field(g, base)
        sets = system.edge_sets()
        n = len(sets)
        for mask in range(1, 1 << n):
            combo = frozenset()
            s_max = 0.0
            for i in range(n):
                if mask & (1 << i):
                    combo ^= sets[i]
                    s_max = max(s_max, system.lengths[i] / 2.0)
            if not combo:
                continue
            try:
                _, hi, _, _ = cycle_metrics(g, sorted(combo), f)
            except Exception:
                continue  # disconnected sum: not a single cycle
            assert hi >= s_max - 1e-9


def test_stability_under_sup_ground():
    rng = random.Random(9)
    for seed in range(20):
        g = random_metric_graph(4, 6, (0.5, 2.0), seed=300 + seed, generic_epsilon=1e-3)
        u = random_base_point(rng, g)
        v = random_base_point(rng, g)
        du = extended_persistence_1d(g, u)
        dv = extended_persistence_1d(g, v)
        b = bottleneck_value(du, dv, "linf")
        assert b <= geodesic_distance(g, u, v) + 1e-9


def test_diagram_csv_format():
    g = bouquet([2.0])
    d = extended_persistence_1d(g, V("o"))
    lines = _diagram_csv(d).strip().splitlines()
    assert lines[0] == "birth,death,edge_id"
    assert lines[1] == "0,1,loop0"


def test_class_reducing_to_zero_raises_instead_of_hanging():
    # Edges that share an id (MetricGraph built directly, without build's
    # check) make the filtration inconsistent: a cycle-closing edge reduces
    # to the zero class. The first graph hung, the second gave two made-up
    # points; both must raise. Each runs in a subprocess under a timeout.
    import os
    import subprocess
    import sys

    import graphdist

    graphs = [
        '("u",), (Edge("a", "u", "u", 1.0), Edge("a", "u", "u", 1.7), Edge("a", "u", "u", 2.3))',
        '("u", "v"), (Edge("a", "u", "v", 1.0), Edge("a", "u", "v", 1.5), Edge("b", "u", "v", 2.2))',
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(graphdist.__file__))
    for graph in graphs:
        code = (
            "from graphdist import Edge, GraphError, GraphPoint, MetricGraph, extended_persistence_1d\n"
            f"g = MetricGraph({graph})\n"
            "try:\n"
            "    print(extended_persistence_1d(g, GraphPoint.at_vertex('u')).pairs())\n"
            "except GraphError as exc:\n"
            "    print('GraphError', exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("GraphError"), proc.stdout
