"""Tests of the benchmark itself: ``python -m pytest perfbench``.

The smoke runs take a few seconds. Every check is fed a deliberately wrong
value and must fail on it.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

import run

run.import_program()

import reference  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from graphdist import harness  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def smoke_results():
    out = {}
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, SEED, smoke=True)
        r = run.Run()
        for inp in wl.make_round(0):
            r.op(wl, inp)
        out[name] = (wl, r)
    return out


def test_smoke_runs_every_workload_and_passes_every_check(smoke_results):
    for name, (wl, r) in smoke_results.items():
        assert wl.check(r.results) == [], name
        if name == "bottleneck-large":
            assert dict(r.failures) == {"RecursionError": 1}
        else:
            assert r.failed == 0, name
        assert len(r.results) == r.attempted - r.failed


def _fails(wl, results):
    return len(wl.check(results)) > 0


def test_verify_checks_reject_wrong_values(smoke_results):
    wl, r = smoke_results["verify-families"]
    for k, (inp, reports) in enumerate(r.results):
        rep = reports[0]
        bad = list(r.results)
        bad[k] = (inp, [dataclasses.replace(rep, dic=rep.dic + 1e-6)])
        assert _fails(wl, bad), inp
        bad[k] = (inp, [dataclasses.replace(rep, dpd_error_bound=rep.dpd_error_bound + 1e-6)])
        assert _fails(wl, bad), inp
        bad[k] = (inp, [dataclasses.replace(rep, verdict="VIOLATION")])
        assert _fails(wl, bad), inp


def test_dpd_checks_reject_wrong_values(smoke_results, monkeypatch):
    from graphdist import graph_distances

    wl, r = smoke_results["dpd-random"]
    (inp, (estimate, bound)), = r.results
    assert _fails(wl, [(inp, (estimate + 1e-6, bound))])
    assert _fails(wl, [(inp, (estimate, bound + 1e-6))])
    # the check asks the program for d_IC; make it answer wrongly
    dic = graph_distances.intrinsic_cech_distance
    monkeypatch.setattr(graph_distances, "intrinsic_cech_distance", lambda g1, g2: dic(g1, g2) + 1e-6)
    assert _fails(wl, [(inp, (estimate, bound))])


def test_phi_checks_reject_wrong_values(smoke_results):
    wl, r = smoke_results["phi-large"]
    (raw, (loops, samples)), = r.results
    edges, length = loops[0]
    assert _fails(wl, [(raw, ([(edges, length + 1e-6)] + loops[1:], samples))])
    assert _fails(wl, [(raw, (loops[:-1], samples))])

    top = reference.GeodesicMax(*raw)
    base, d = samples[0]
    too_high = d.copy()
    too_high[np.argmax(d[:, 1]), 1] = top(base) + 1e-6
    assert _fails(wl, [(raw, (loops, [(base, too_high)] + samples[1:]))])
    assert _fails(wl, [(raw, (loops, [(base, d[1:])] + samples[1:]))])

    # a diagram moved farther than its neighbours allow, checked on its own
    assert wl._check_neighbours(reference, "op", raw, samples) == []
    moved = [(b, x + [0.0, wl.delta + 1e-6]) if b == base else (b, x) for b, x in samples]
    assert wl._check_neighbours(reference, "op", raw, moved) != []


def test_bottleneck_checks_reject_wrong_values(smoke_results):
    wl, r = smoke_results["bottleneck-large"]
    for inp, (value, cost, pairs) in r.results:
        assert not _fails(wl, [(inp, (value, cost, pairs))])
        assert _fails(wl, [(inp, (value + 1e-6, cost + 1e-6, pairs))])
        assert _fails(wl, [(inp, (value, cost, pairs + pairs[:1]))])
        assert _fails(wl, [(inp, (value, cost + 1e-6, pairs))])


def test_reference_bottleneck_agrees_with_the_program_on_random_pairs():
    from graphdist.diagram_distances import bottleneck_value

    rng = np.random.default_rng(0)
    for _ in range(50):
        a = workloads._diagram(rng, int(rng.integers(0, 6)))
        b = workloads._diagram(rng, int(rng.integers(0, 6)))
        for ground in ("l1", "linf"):
            want = bottleneck_value(workloads._points(a), workloads._points(b), ground)
            assert reference.bottleneck(a, b, ground) == want


def test_tracer_counts_loop_systems_per_instance_and_restores_the_program():
    from graphdist import graph_distances

    original = graph_distances.hausdorff_bottleneck
    t = tracing.Tracer()
    calls = {}
    for family in ("bouquet", "tree-of-loops", "trees"):
        before = t.layer_metrics()["cycles.shortest_loop_system.calls"]
        with t:
            assert graph_distances.hausdorff_bottleneck is not original
            harness.run_verification(family, 1, 11)
        calls[family] = t.layer_metrics()["cycles.shortest_loop_system.calls"] - before
    assert graph_distances.hausdorff_bottleneck is original
    assert calls == {"bouquet": 4, "tree-of-loops": 6, "trees": 6}
    m = t.layer_metrics()
    assert m["diagram_distances.hausdorff_bottleneck.calls"] == 3
    assert m["graph_distances.sample_phi.calls"] == 6
    assert m["persistence.extended_persistence_1d.calls"] == m["graph_distances.samples"]
    assert 0 < m["geodesics.dijkstra.s"] <= m["harness.run_verification.s"]


def test_benchmark_json_names_what_the_runner_prints():
    path = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
