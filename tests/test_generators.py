import pytest

from graphdist import (
    GraphFormatError,
    TreeOfLoopsSpec,
    bouquet,
    first_betti,
    is_tree_of_loops,
    named,
    random_metric_graph,
    shortest_loop_system,
    to_json_dict,
    tree_of_loops,
    validate,
)


def test_bouquet_shapes():
    g = bouquet([])
    validate(g)
    assert len(g.vertices) == 1 and len(g.edges) == 0

    g = bouquet([2.0])
    assert first_betti(g) == 1

    g = bouquet([2.0, 4.0, 6.0])
    assert first_betti(g) == 3
    assert shortest_loop_system(g).lengths == (2.0, 4.0, 6.0)


def test_tree_of_loops_shapes():
    g = tree_of_loops(TreeOfLoopsSpec(loops_per_node=((2.0, 4.0),)))
    assert to_json_dict(g) == to_json_dict(bouquet([2.0, 4.0])) or first_betti(g) == 2

    spec = TreeOfLoopsSpec(
        loops_per_node=((3.0,), (5.0,)), tree_edges=((0, 1, 1.0),)
    )
    g = tree_of_loops(spec)
    validate(g)
    assert first_betti(g) == 2
    assert is_tree_of_loops(g)

    spec = TreeOfLoopsSpec(
        loops_per_node=((1.0, 2.0), (), (3.0,)),
        tree_edges=((0, 1, 0.5), (1, 2, 0.75)),
    )
    assert first_betti(tree_of_loops(spec)) == 3


def test_random_graph_determinism_and_shape():
    g1 = random_metric_graph(6, 9, (0.5, 2.0), seed=12)
    g2 = random_metric_graph(6, 9, (0.5, 2.0), seed=12)
    assert to_json_dict(g1) == to_json_dict(g2)
    validate(g1)
    assert first_betti(g1) == 4

    tree = random_metric_graph(5, 4, (0.5, 2.0), seed=0)
    assert first_betti(tree) == 0

    with pytest.raises(GraphFormatError):
        random_metric_graph(5, 3, (0.5, 2.0), seed=0)
    with pytest.raises(GraphFormatError):
        random_metric_graph(3, 3, (0.0, 1.0), seed=0)


def test_named_graphs():
    theta = named("theta")
    validate(theta)
    assert sorted(e.length for e in theta.edges) == [1.0, 2.0, 3.0]
    assert first_betti(theta) == 2

    cycle = named("cycle:2")
    assert first_betti(cycle) == 1
    assert cycle.edges[0].length == 2.0

    path = named("path:1.5")
    assert first_betti(path) == 0

    db = named("dumbbell:2,1,4")
    assert first_betti(db) == 2
    assert shortest_loop_system(db).lengths == (2.0, 4.0)

    with pytest.raises(GraphFormatError):
        named("octahedron")
    with pytest.raises(GraphFormatError):
        named("cycle:-1")
    with pytest.raises(GraphFormatError):
        named("dumbbell:1,2")


def test_generator_outputs_validate():
    for seed in range(10):
        g = random_metric_graph(4, 6, (0.5, 2.0), seed=seed)
        validate(g)


def test_random_graph_size_limit_fails_before_allocating():
    # 10^8 edges would run out of memory; the limit rejects it at once
    from graphdist.generators import MAX_EDGES

    for n, m in ((2, 100_000_000), (100_000_000, 100_000_000), (2, MAX_EDGES + 1)):
        with pytest.raises(GraphFormatError, match="limit"):
            random_metric_graph(n, m, (1.0, 2.0), seed=1)
    assert len(random_metric_graph(2, 1000, (1.0, 2.0), seed=1).edges) == 1000
