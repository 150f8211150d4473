import pytest

from graphdist import GraphError, pick_delta, run_verification
from graphdist import bouquet, named, random_metric_graph


def test_reports_are_deterministic_and_ordered():
    a = run_verification("bouquet", 4, seed=7)
    b = run_verification("bouquet", 4, seed=7)
    assert [r.to_json_dict() for r in a] == [r.to_json_dict() for r in b]
    assert [r.seed for r in a] == sorted(r.seed for r in a)


def test_family_alias_and_unknown_family():
    a = run_verification("bouquet", 2, seed=1)
    b = run_verification("bouquet-vs-arbitrary", 2, seed=1)
    assert [r.to_json_dict() for r in a] == [r.to_json_dict() for r in b]
    with pytest.raises(GraphError):
        run_verification("nope", 1, seed=0)


def test_arbitrary_family_is_informational():
    reports = run_verification("arbitrary", 3, seed=5)
    assert all(r.verdict == "INFO" for r in reports)


def test_trees_family_has_zero_cech_distance():
    reports = run_verification("trees", 5, seed=13)
    assert all(r.dic == 0.0 for r in reports)
    assert all(r.verdict == "PASS" for r in reports)


def test_corruption_flips_verdicts():
    good = run_verification("bouquet", 2, seed=11)
    bad = run_verification("bouquet", 2, seed=11, corrupt_dic=100.0)
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
