"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value is either pinned from an independent oracle or a
hand-checked closed form.
"""

import random

from graphdist import (
    GraphPoint,
    bottleneck_value,
    bouquet,
    extended_persistence_1d,
    first_betti,
    geodesic_distance,
    geodesic_field,
    intrinsic_cech_diagram,
    intrinsic_cech_distance,
    random_metric_graph,
    run_verification,
    shortest_loop_system,
    tree_of_loops_parts,
    yaxis_bottleneck,
)
from graphdist.cli import main as cli_main
from graphdist.harness import random_tree_of_loops_spec

from oracles import (
    HallWitness,
    brute_bottleneck,
    build_feasibility_graph,
    cycle_metrics,
    hall_condition_holds,
    ideal_replacement_no_worse,
    in_feasible_region,
    perfect_matching,
    random_base_point,
    random_generic_instance,
    tree_of_loops_diagram,
)


def _report(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


def test_c1_yaxis_closed_form_matches_exhaustive_bottleneck():
    rng = random.Random(20260101)
    for _ in range(1000):
        a = [rng.uniform(0.0, 10.0) for _ in range(rng.randint(0, 6))]
        b = [rng.uniform(0.0, 10.0) for _ in range(rng.randint(0, 6))]
        closed = yaxis_bottleneck(a, b)
        exhaustive = brute_bottleneck(
            [(0.0, x) for x in a], [(0.0, x) for x in b], "l1"
        )
        assert abs(closed - exhaustive) <= 1e-12
    _report("1 (y-axis closed form == exhaustive bottleneck, 1000 pairs)")


def test_c2_intrinsic_cech_closed_form_matches_bottleneck():
    rng = random.Random(20260102)
    for _ in range(200):
        n1, n2 = rng.randint(2, 5), rng.randint(2, 5)
        g1 = random_metric_graph(
            n1, n1 - 1 + rng.randint(0, 3), (0.5, 2.5), seed=rng.randrange(2**31)
        )
        g2 = random_metric_graph(
            n2, n2 - 1 + rng.randint(0, 3), (0.5, 2.5), seed=rng.randrange(2**31)
        )
        closed = intrinsic_cech_distance(g1, g2)
        via = bottleneck_value(
            intrinsic_cech_diagram(g1), intrinsic_cech_diagram(g2), "l1"
        )
        assert abs(closed - via) <= 1e-12
    for _ in range(20):
        n1, n2 = rng.randint(2, 7), rng.randint(2, 7)
        t1 = random_metric_graph(n1, n1 - 1, (0.5, 2.5), seed=rng.randrange(2**31))
        t2 = random_metric_graph(n2, n2 - 1, (0.5, 2.5), seed=rng.randrange(2**31))
        assert intrinsic_cech_distance(t1, t2) == 0.0
    _report("2 (intrinsic Cech closed form, 200 pairs; trees give 0)")


def test_c3_extended_persistence_matches_tree_of_loops_oracle():
    rng = random.Random(20260103)
    for _ in range(50):
        spec = random_tree_of_loops_spec(rng)
        g, _ = tree_of_loops_parts(spec)
        for _ in range(200):
            base = random_base_point(rng, g)
            computed = sorted(extended_persistence_1d(g, base).pairs())
            oracle = sorted(tree_of_loops_diagram(spec, base).pairs())
            assert len(computed) == len(oracle)
            for c, o in zip(computed, oracle):
                assert abs(c[0] - o[0]) <= 1e-9 and abs(c[1] - o[1]) <= 1e-9
    # bouquet at the wedge vertex gives exactly {(0, t_i)}
    for lengths in ([2.0], [2.0, 4.0], [1.0, 3.0, 5.0]):
        g = bouquet(lengths)
        d = extended_persistence_1d(g, GraphPoint.at_vertex("o"))
        assert sorted(d.pairs()) == [(0.0, l / 2.0) for l in sorted(lengths)]
    _report("3 (oracle equivalence, 50 specs x 200 bases; bouquet exact)")


def test_c4_structural_diagram_properties():
    rng = random.Random(20260104)
    for k in range(200):
        g, base = random_generic_instance(seed=40_000 + k)
        f = geodesic_field(g, base)
        d = extended_persistence_1d(g, base)
        assert len(d) == first_betti(g)
        node_values = list(f.vertex_values.values())
        for p in d.points:
            assert any(
                abs(p.birth - v) <= 1e-9 * max(1.0, abs(v)) for v in node_values
            )
        system = shortest_loop_system(g)
        for loop, length in zip(system.loops, system.lengths):
            _, hi, _, _ = cycle_metrics(g, loop, f)
            assert hi >= length / 2.0 - 1e-9
    _report("4 (cardinality, vertex births, loop floor on 200 generic graphs)")


def test_c5_feasible_region_replacement_property():
    rng = random.Random(20260105)
    for _ in range(100_000):
        s = rng.uniform(0.0, 10.0)
        t = rng.uniform(0.0, 10.0)
        z1 = rng.uniform(0.0, 10.0)
        lo, hi = max(s, z1), z1 + s
        z2 = rng.uniform(lo, hi) if lo < hi else lo
        assert in_feasible_region((z1, z2), s, tol=1e-12)
        assert ideal_replacement_no_worse((z1, z2), s, t)
    _report("5 (ideal replacement property on 100000 feasible triples)")


def test_c6_perfect_matching_on_500_instances():
    for k in range(500):
        g, base = random_generic_instance(seed=60_000 + k)
        system = shortest_loop_system(g)
        diagram = extended_persistence_1d(g, base)
        fg = build_feasibility_graph(system, diagram)
        result = perfect_matching(fg)
        assert not isinstance(result, HallWitness), f"instance {k}: {result}"
        if len(system) <= 4:
            assert hall_condition_holds(fg.adjacency())
    _report("6 (perfect matching on 500 instances; Hall verified for rank <= 4)")


def test_c7_main_inequality_bouquet_and_trees():
    reports = run_verification("bouquet", 100, seed=20260107)
    assert len(reports) == 100
    violations = [r for r in reports if r.verdict != "PASS"]
    assert not violations, violations
    reports = run_verification("tree-of-loops", 100, seed=20260108)
    assert len(reports) == 100
    violations = [r for r in reports if r.verdict != "PASS"]
    assert not violations, violations
    _report("7 (100 bouquet pairs + 100 tree-of-loops pairs, zero violations)")


def test_c8_stability_under_sup_ground():
    rng = random.Random(20260109)
    for k in range(100):
        g, u = random_generic_instance(seed=80_000 + k)
        v = random_base_point(rng, g)
        du = extended_persistence_1d(g, u)
        dv = extended_persistence_1d(g, v)
        assert bottleneck_value(du, dv, "linf") <= geodesic_distance(g, u, v) + 1e-9
    _report("8 (sup-ground stability on 100 base-point pairs)")


def test_c9_verify_reports_byte_identical(tmp_path):
    import os
    import subprocess
    import sys

    payloads = []
    for k, (name, jobs) in enumerate((("a", "1"), ("b", "1"), ("c", "4"))):
        out = tmp_path / f"{name}.jsonl"
        argv = ["verify", "--family", "bouquet", "--n", "6", "--seed", "20260110",
                "--jobs", jobs, "--out", str(out)]
        if k < 2:
            # separate processes, separate hash randomization
            env = dict(os.environ, PYTHONHASHSEED=str(1000 + k))
            proc = subprocess.run(
                [sys.executable, "-m", "graphdist", *argv], env=env
            )
            assert proc.returncode == 0
        else:
            assert cli_main(argv) == 0
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1] == payloads[2]
    _report("9 (verify output byte-identical across runs and thread counts)")
