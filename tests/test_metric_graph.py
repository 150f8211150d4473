import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdist import (
    Disconnected,
    GraphError,
    GraphFormatError,
    GraphPoint,
    InvalidPoint,
    MetricGraph,
    NonPositiveLength,
    TreeOfLoopsSpec,
    bouquet,
    from_json_dict,
    load_graph,
    named,
    parse_point,
    perturb_to_generic,
    random_metric_graph,
    save_graph,
    subdivide,
    to_json_dict,
    tree_of_loops,
)
from graphdist.cli import main
from graphdist.geodesics import dijkstra
from graphdist.metric_graph import require_connected

from oracles import geodesic_distance


def test_validate_single_vertex_ok():
    g = MetricGraph.build(["a"], [])
    require_connected(g)  # vacuously connected


def test_validate_zero_length_rejected():
    with pytest.raises(NonPositiveLength):
        MetricGraph.build(["a", "b"], [("e", "a", "b", 0.0)])


def test_validate_disconnected_reports_witness():
    g = MetricGraph.build(["a", "b", "c"], [("e", "a", "b", 1.0)])
    with pytest.raises(Disconnected) as err:
        require_connected(g)
    assert err.value.component in ({"a", "b"}, {"c"})


def test_duplicate_ids_rejected():
    with pytest.raises(GraphFormatError):
        MetricGraph.build(["a", "a"], [])
    with pytest.raises(GraphFormatError):
        MetricGraph.build(["a"], [("e", "a", "a", 1.0), ("e", "a", "a", 2.0)])


def test_point_normalization():
    g = named("path:2")
    assert GraphPoint.on_edge("e", 0.0).normalized(g) == GraphPoint.at_vertex("a")
    assert GraphPoint.on_edge("e", 2.0).normalized(g) == GraphPoint.at_vertex("b")
    mid = GraphPoint.on_edge("e", 1.0).normalized(g)
    assert not mid.is_vertex
    with pytest.raises(InvalidPoint):
        GraphPoint.on_edge("e", 2.5).normalized(g)
    with pytest.raises(InvalidPoint):
        GraphPoint.at_vertex("zzz").normalized(g)


def test_parse_point_roundtrip():
    assert parse_point("v1") == GraphPoint.at_vertex("v1")
    p = parse_point("e7@0.25")
    assert p.edge == "e7" and p.offset == 0.25
    with pytest.raises(InvalidPoint):
        parse_point("e7@notanumber")


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=20,
)
_edge_records = st.fixed_dictionaries(
    {"id": _json_values, "u": _json_values, "v": _json_values, "length": _json_values}
)


@settings(max_examples=300, deadline=None)
@given(
    data=_json_values
    | st.fixed_dictionaries(
        {
            "vertices": _json_values | st.lists(st.sampled_from(["a", "b"])),
            "edges": _json_values | st.lists(_edge_records | _json_values, max_size=3),
        }
    )
)
def test_loader_raises_only_graph_errors(data):
    try:
        from_json_dict(data)
    except GraphError:
        pass


@settings(max_examples=300, deadline=None)
@given(text=st.text() | st.builds("{}@{}".format, st.text(max_size=4), st.text()))
def test_parse_point_raises_only_graph_errors(text):
    try:
        parse_point(text)
    except GraphError:
        pass


def test_subdivide_empty_is_isomorphic():
    g = named("theta")
    g2, mapping, parent = subdivide(g, [])
    assert len(g2.edges) == len(g.edges)
    assert set(parent.values()) == {e.id for e in g.edges}
    assert mapping == {}


def test_subdivide_self_loop_makes_parallel_edges():
    g = MetricGraph.build(["o"], [("loop", "o", "o", 4.0)])
    g2, mapping, parent = subdivide(g, [GraphPoint.on_edge("loop", 2.0)])
    assert len(g2.vertices) == 2
    assert len(g2.edges) == 2
    assert all(e.length == 2.0 for e in g2.edges)
    assert all(not e.is_self_loop for e in g2.edges)
    assert set(parent.values()) == {"loop"}


def test_subdivide_maps_repeated_and_endpoint_points():
    g = named("dumbbell:2,1,4")
    bar = g.edge_by_id["bar"]
    mid, quarter = GraphPoint.on_edge("bar", 0.5), GraphPoint.on_edge("loopA", 0.25)
    start, end = GraphPoint.on_edge("bar", 0.0), GraphPoint.on_edge("bar", bar.length)
    points = [mid, quarter, start, GraphPoint.on_edge("bar", 0.5), end, quarter]
    g2, mapping, parent = subdivide(g, points)
    assert mapping == {
        mid: "bar@0.5",
        quarter: "loopA@0.25",
        start: bar.u,
        end: bar.v,
    }
    assert g2.vertices == g.vertices + ("loopA@0.25", "bar@0.5")
    assert len(g2.edges) == len(g.edges) + 2
    assert sorted(parent) == sorted(
        [e.id for e in g.edges if e.id not in ("bar", "loopA")]
        + ["bar#0", "bar#1", "loopA#0", "loopA#1"]
    )


def test_subdivide_preserves_geodesic_distance():
    g = named("dumbbell:2,1,4")
    pairs = [
        (GraphPoint.at_vertex("a"), GraphPoint.at_vertex("b")),
        (GraphPoint.on_edge("loopA", 0.5), GraphPoint.on_edge("loopB", 3.0)),
        (GraphPoint.on_edge("bar", 0.25), GraphPoint.on_edge("loopA", 1.7)),
    ]
    before = [geodesic_distance(g, p, q) for p, q in pairs]
    g2, mapping, parent = subdivide(
        g, [GraphPoint.on_edge("bar", 0.5), GraphPoint.on_edge("loopA", 1.0)]
    )
    # re-express the test points on the subdivided graph
    children = {}
    for e2 in g2.edges:
        children.setdefault(parent[e2.id], []).append(e2)

    def lift(p):
        if p.is_vertex:
            return p
        offset = p.offset
        segs = children[p.edge]
        for seg in segs:  # segments appear in order along the parent edge
            if offset <= seg.length:
                return GraphPoint.on_edge(seg.id, offset)
            offset -= seg.length
        raise AssertionError("offset out of range")

    after = [geodesic_distance(g2, lift(p), lift(q)) for p, q in pairs]
    assert after == pytest.approx(before, abs=1e-12)


def test_perturb_deterministic_and_bounded():
    g = named("theta")
    a = perturb_to_generic(g, 0.01, seed=5)
    b = perturb_to_generic(g, 0.01, seed=5)
    assert [e.length for e in a.edges] == [e.length for e in b.edges]
    for e0, e1 in zip(g.edges, a.edges):
        assert e0.length <= e1.length < e0.length * 1.01


def test_perturb_stretches_each_distance_by_at_most_epsilon():
    # d <= d' <= (1 + epsilon) d for every pair of vertices, so the
    # Gromov-Hausdorff distance is at most epsilon * diameter / 2
    for seed in range(8):
        g = random_metric_graph(8, 14, (0.5, 2.0), seed=seed)
        for epsilon in (0.05, 0.5):
            h = perturb_to_generic(g, epsilon, seed)
            for v in g.vertices:
                before, after = dijkstra(g, v), dijkstra(h, v)
                for w in g.vertices:
                    assert before[w] <= after[w] <= (1.0 + epsilon) * before[w]
    # a path of 20 unit edges: the ends move apart by far more than
    # epsilon times the longest edge
    path = MetricGraph.build(
        [f"v{i}" for i in range(21)], [(f"e{i}", f"v{i}", f"v{i + 1}", 1.0) for i in range(20)]
    )
    stretched = dijkstra(perturb_to_generic(path, 0.05, 3), "v0")["v20"]
    assert 0.052 < stretched - 20.0 <= 0.05 * 20.0


def test_lengths_whose_doubled_sum_overflows_are_rejected():
    with pytest.raises(GraphFormatError):
        MetricGraph.build(["a", "b"], [("e", "a", "b", 9e307), ("s", "b", "b", 1.0)])
    with pytest.raises(GraphFormatError):
        random_metric_graph(4, 6, (1e307, 1.7e308), seed=0)
    g = MetricGraph.build(["a", "b"], [("e", "a", "b", 8.9e307)])
    require_connected(g)
    # the perturbed graph goes through the same check
    with pytest.raises(GraphFormatError):
        perturb_to_generic(g, 0.5, seed=1)


def test_graph_json_roundtrip(tmp_path):
    g = named("dumbbell:2,1,4")
    path = tmp_path / "g.json"
    save_graph(g, str(path))
    g2 = load_graph(str(path))
    assert to_json_dict(g2) == to_json_dict(g)


@pytest.mark.parametrize("length", [0.0, -1.0, math.nan, math.inf])
def test_loader_rejects_bad_lengths(length):
    data = {"vertices": ["a", "b"], "edges": [{"id": "e", "u": "a", "v": "b", "length": length}]}
    with pytest.raises(GraphFormatError):
        from_json_dict(json.loads(json.dumps(data)))


@pytest.mark.parametrize("length", [0.0, -0.5])
def test_every_way_to_make_a_graph_rejects_a_non_positive_length(tmp_path, capsys, length):
    # the triangle x-y 1, y-z length, z-x 1.5
    vertices = ["x", "y", "z"]
    edges = [("e1", "x", "y", 1.0), ("e2", "y", "z", length), ("e3", "z", "x", 1.5)]
    data = {"vertices": vertices, "edges": [dict(zip(("id", "u", "v", "length"), e)) for e in edges]}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    makers = [
        lambda: MetricGraph.build(vertices, edges),
        lambda: from_json_dict(data),
        lambda: load_graph(str(path)),
        lambda: bouquet([2.0, length]),
        lambda: named(f"cycle:{length}"),
        lambda: named(f"dumbbell:1,{length},2"),
        lambda: tree_of_loops(TreeOfLoopsSpec(((2.0,), (length,)), ((0, 1, 1.0),))),
        lambda: tree_of_loops(TreeOfLoopsSpec(((2.0,), (3.0,)), ((0, 1, length),))),
    ]
    for make in makers:
        with pytest.raises(NonPositiveLength):
            make()
    assert issubclass(NonPositiveLength, GraphFormatError)
    for argv in (["generate", "--bouquet", f"2,{length}"], ["loops", "--graph", str(path)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "non-positive" in err[0]
        assert captured.out == ""


def test_a_graph_without_vertices_is_rejected():
    with pytest.raises(GraphFormatError):
        MetricGraph.build([], [])
    with pytest.raises(GraphFormatError):
        from_json_dict({"vertices": [], "edges": []})


def _clash_cases():
    P = GraphPoint.on_edge
    parallel = MetricGraph.build(
        ["u", "v"], [("x", "u", "v", 1.0), ("x#0", "u", "v", 1.7), ("x#1", "u", "v", 2.3)]
    )
    yield parallel, [P("x", 0.3)]
    yield parallel, [P("x", 0.3), P("x#0", 0.3), P("x#1", 1.0)]
    single = MetricGraph.build(["u", "v"], [("e", "u", "v", 1.0)])
    # two offsets that print alike at 12 significant digits
    yield single, [P("e", 0.1), P("e", 0.1 + 1e-14)]
    taken = MetricGraph.build(["u", "v", "e@0.5", "e@@0.5"], [("e", "u", "v", 1.0)])
    yield taken, [P("e", 0.5)]
    # 'x@' + '@0.3' spells the fallback name of a cut on x at 0.3
    at = MetricGraph.build(["u", "v", "x@0.3"], [("x", "u", "v", 1.0), ("x@", "u", "v", 2.0)])
    yield at, [P("x", 0.3), P("x@", 0.3)]
    rng = random.Random(11)
    ids = ["x", "x#0", "x#1", "x#0#0", "x#0#1", "x@", "x@@0.5", "x#0~1", "x#1~1"]
    for _ in range(200):
        edge_ids = rng.sample(ids, rng.randint(1, len(ids)))
        vertices = ["u", "v"] + rng.sample(["x@0.5", "x@@0.5", "x#0@0.5", "x@@@0.5"], 2)
        g = MetricGraph.build(vertices, [(e, "u", "v", 1.0) for e in edge_ids])
        points = [
            P(rng.choice(edge_ids), rng.choice([0.5, 0.5 + 1e-14, 0.25, 1.0]))
            for _ in range(rng.randint(1, 6))
        ]
        yield g, points


def test_subdivide_mints_unique_ids():
    for g, points in _clash_cases():
        g2, mapping, parent = subdivide(g, points)
        MetricGraph.build(g2.vertices, [(e.id, e.u, e.v, e.length) for e in g2.edges])
        assert sorted(parent) == sorted(e.id for e in g2.edges)
        # distinct cut points get distinct new vertices
        interior = {p for p in points if not p.normalized(g).is_vertex}
        assert len({mapping[p] for p in interior}) == len(interior)
        assert set(mapping.values()) <= set(g2.vertices)
