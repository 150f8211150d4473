import pytest

from graphdist import GraphError, pick_delta, run_verification
from graphdist import bouquet, cycles, feasibility, named, random_metric_graph
from graphdist.harness import FAMILIES


def test_reports_are_deterministic_and_ordered():
    a = run_verification("bouquet", 4, seed=7)
    b = run_verification("bouquet", 4, seed=7)
    assert a == b
    assert [r.seed for r in a] == sorted(r.seed for r in a)


def test_family_alias_and_unknown_family():
    a = run_verification("bouquet", 2, seed=1)
    b = run_verification("bouquet-vs-arbitrary", 2, seed=1)
    assert a == b
    with pytest.raises(GraphError):
        run_verification("nope", 1, seed=0)


def test_arbitrary_family_is_informational():
    reports = run_verification("arbitrary", 3, seed=5)
    assert all(r.verdict == "INFO" for r in reports)


def test_trees_family_has_zero_cech_distance():
    reports = run_verification("trees", 5, seed=13)
    assert all(r.dic == 0.0 for r in reports)
    assert all(r.verdict == "PASS" for r in reports)


def test_corruption_flips_verdicts(monkeypatch):
    good = run_verification("bouquet", 2, seed=11)
    dic = feasibility.intrinsic_cech_distance
    monkeypatch.setattr(
        feasibility, "intrinsic_cech_distance", lambda g1, g2: dic(g1, g2) + 100.0
    )
    bad = run_verification("bouquet", 2, seed=11)
    assert all(r.verdict == "PASS" for r in good)
    assert all(r.verdict == "VIOLATION" for r in bad)
    for g, b in zip(good, bad):
        assert b.dic == pytest.approx(g.dic + 100.0)


def test_pick_delta_uses_min_half_loop_length():
    g1 = bouquet([2.0, 6.0])
    g2 = named("dumbbell:4,1,8")
    assert pick_delta((g1, g2)) == pytest.approx(0.05 * 1.0)
    trees = (random_metric_graph(4, 3, (1.0, 2.0), seed=0),)
    assert pick_delta(trees) > 0.0


@pytest.mark.parametrize("delta", [None, 0.5])
@pytest.mark.parametrize("family", FAMILIES)
def test_each_graph_computes_its_loop_system_once(family, delta, monkeypatch):
    graphs = []
    compute = cycles.shortest_loop_system

    def counting(g):
        graphs.append(g)
        return compute(g)

    monkeypatch.setattr(cycles, "shortest_loop_system", counting)
    reports = run_verification(family, 5, seed=7, delta=delta)
    # the list keeps every graph alive, so no two share an id
    assert len(graphs) == 2 * len(reports)
    assert len({id(g) for g in graphs}) == len(graphs)
