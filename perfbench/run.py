#!/usr/bin/env python3
"""graphdist benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Runs one workload (see ``workloads.py``) from the root of a source checkout,
importing graphdist from ``src/``. With ``--trace 0`` it times whole rounds of
ops until ``--seconds`` have passed and prints the end-to-end metrics; with
``--trace 1`` it alternates traced and untraced rounds, prints the per-layer
metrics and writes the spans to ``.perfbench_out/``. Every op's output is then
checked. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every check passed, 1 when one failed and 2 when graphdist is missing.

``--smoke`` runs all four workloads at tiny sizes, with every check.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import heapq
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT_DIR = ".perfbench_out"
SETUP_PROBES = 5

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "harness.run_verification.calls": "count",
    "harness.run_verification.s": "s",
    "feasibility.verify_inequality.calls": "count",
    "feasibility.verify_inequality.s": "s",
    "feasibility.verify_inequality.self_s": "s",
    "graph_distances.persistence_distortion.calls": "count",
    "graph_distances.persistence_distortion.s": "s",
    "graph_distances.sample_phi.calls": "count",
    "graph_distances.sample_phi.s": "s",
    "graph_distances.sample_phi.self_s": "s",
    "graph_distances.samples": "count",
    "persistence.extended_persistence_1d.calls": "count",
    "persistence.extended_persistence_1d.s": "s",
    "persistence.extended_persistence_1d.self_s": "s",
    "persistence.diagram_points": "count",
    "geodesics.geodesic_field.calls": "count",
    "geodesics.geodesic_field.s": "s",
    "geodesics.dijkstra.calls": "count",
    "geodesics.dijkstra.s": "s",
    "metric_graph.subdivide.calls": "count",
    "metric_graph.subdivide.s": "s",
    "cycles.shortest_loop_system.calls": "count",
    "cycles.shortest_loop_system.s": "s",
    "diagram_distances.hausdorff_bottleneck.calls": "count",
    "diagram_distances.hausdorff_bottleneck.s": "s",
    "diagram_distances.hausdorff_pairs": "count",
    "diagram_distances.hausdorff_pairs_per_s": "1/s",
    "diagram_distances.bottleneck.calls": "count",
    "diagram_distances.bottleneck.s": "s",
    "diagram_distances.bottleneck_points": "count",
    "generators.s": "s",
    "trace.ops": "count",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}


def _calibration_graph(n: int = 300, extra: int = 600):
    rng = random.Random(0)
    adj = [[] for _ in range(n)]
    for u in range(1, n):
        v, w = rng.randrange(u), rng.uniform(1.0, 2.0)
        adj[u].append((v, w))
        adj[v].append((u, w))
    for _ in range(extra):
        u, v, w = rng.randrange(n), rng.randrange(n), rng.uniform(1.0, 2.0)
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


_CAL_GRAPH = _calibration_graph()
#: median of ``calibration_s()`` on the 2-core machine the bounds were set on
CAL_REF_S = 0.0046


def calibration_s(repeats: int = 1) -> float:
    """Time a fixed pure-Python Dijkstra, a gauge of the machine's speed now.

    Shared hosts run the same code up to 20% faster or slower from one
    10-second stretch to the next. Ops are timed between two calibrations and
    scaled by ``CAL_REF_S`` over their mean, which takes most of that drift
    out of the end-to-end times. The median of ``repeats`` timings is used.
    """
    return statistics.median(_dijkstra_s() for _ in range(repeats))


def _dijkstra_s() -> float:
    t0 = time.perf_counter()
    for source in range(12):
        dist = {source: 0.0}
        heap = [(0.0, source)]
        done = set()
        while heap:
            d, x = heapq.heappop(heap)
            if x in done:
                continue
            done.add(x)
            for y, w in _CAL_GRAPH[x]:
                if y not in dist or d + w < dist[y]:
                    dist[y] = d + w
                    heapq.heappush(heap, (d + w, y))
    return time.perf_counter() - t0


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import graphdist."""
    sys.path.insert(0, SRC)
    try:
        import graphdist
    except ImportError as exc:
        print(f"perfbench: cannot import graphdist from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(graphdist.__file__).startswith(SRC + os.sep):
        print(f"perfbench: graphdist comes from {graphdist.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


class Run:
    """Op times, failures and kept outputs of one run.

    ``times`` are wall seconds. ``scaled`` are the same times at the
    reference machine speed: after every 50 ms of ops the machine is gauged
    again (see ``calibration_s``), and the ops since the last gauge are scaled
    by ``CAL_REF_S`` over the mean of the two gauges around them.
    """

    gauge_every_s = 0.05

    def __init__(self):
        self.times = []
        self.scaled = []
        self.failures = Counter()
        self.results = []
        self._cal = calibration_s(5)
        self._unscaled_s = 0.0

    def op(self, wl, inp) -> float:
        t0 = time.perf_counter()
        try:
            out = wl.run(inp)
        except Exception as exc:  # counted against the attempted ops
            dt = time.perf_counter() - t0
            self.failures[type(exc).__name__] += 1
        else:
            dt = time.perf_counter() - t0
            self.results.append((inp, wl.keep(inp, out)))
        self.times.append(dt)
        self._unscaled_s += dt
        if self._unscaled_s >= self.gauge_every_s:
            self.gauge()
        return dt

    def gauge(self) -> None:
        """Scale the ops timed since the last gauge."""
        if len(self.scaled) == len(self.times):
            return
        # a longer stretch of ops gets a longer gauge, up to a tenth of a second
        cal = calibration_s(min(21, 1 + int(self._unscaled_s / self.gauge_every_s)))
        factor = 2.0 * CAL_REF_S / (self._cal + cal)
        self.scaled += [t * factor for t in self.times[len(self.scaled):]]
        self._cal = cal
        self._unscaled_s = 0.0

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def release_heap() -> None:
    """Hand freed heap back to the OS between rounds, outside the timed ops.

    Without it each round's large temporaries land on a more fragmented heap,
    and the peak resident size grows with the number of rounds, which the
    machine's speed decides. With it the peak levels off from round two on.
    """
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):  # not glibc
        pass


def run_timed(wl, seconds: float) -> Run:
    """Whole rounds, until the ops have taken ``seconds`` in all."""
    run = Run()
    k, busy = 0, 0.0
    while busy < seconds:
        for inp in wl.make_round(k):
            busy += run.op(wl, inp)
        run.gauge()
        release_heap()
        k += 1
    return run


def run_traced(wl, seconds: float, tracer):
    """Traced and untraced rounds in turn, a number fixed by ``seconds``.

    Returns the run, the number of traced ops and the ops per second of the
    traced and untraced halves.
    """
    rounds = 2 * max(1, math.ceil(seconds / wl.round_s / 2))
    run = Run()
    busy = [0.0, 0.0]
    done = [0, 0]
    for k in range(rounds):
        with tracer.span("generators"):
            inputs = wl.make_round(k)
        traced = k % 2 == 0
        first = run.attempted
        if traced:
            with tracer:
                for inp in inputs:
                    tracer.op_id = run.attempted
                    run.op(wl, inp)
            tracer.op_id = -1
        else:
            for inp in inputs:
                run.op(wl, inp)
        run.gauge()
        release_heap()
        busy[traced] += sum(run.scaled[first:])
        done[traced] += run.attempted - first
    return run, done[1], done[1] / busy[1], done[0] / busy[0]


def setup_seconds(name: str, seed: int) -> float:
    """Median over fresh processes of importing graphdist and making a round,
    at the reference machine speed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", name, "--seed", str(seed)]
    values = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        values.append(float(out.stdout.split()[-1]))
    return statistics.median(values)


def setup_probe(name: str, seed: int) -> None:
    before = calibration_s(5)
    t0 = time.perf_counter()
    import_program()
    import workloads

    workloads.make(name, seed).make_round(0)
    dt = time.perf_counter() - t0
    print(f"{dt * 2.0 * CAL_REF_S / (before + calibration_s(5)):.9f}")


def end_to_end(wl, run: Run, peak_rss_mb: float) -> dict:
    completed = run.attempted - run.failed
    return {
        "setup_s": setup_seconds(wl.name, wl.seed),
        "ops_per_s": completed / sum(run.scaled),
        "op_p50_s": statistics.median(run.scaled),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer, traced_ops: int, traced_rate: float, untraced_rate: float) -> dict:
    layers = tracer.layer_metrics()
    out = {name: layers[name] for name in PER_LAYER if name in layers}
    hausdorff_s = layers["diagram_distances.hausdorff_bottleneck.s"]
    pairs = layers["diagram_distances.hausdorff_pairs"]
    out["diagram_distances.hausdorff_pairs_per_s"] = pairs / hausdorff_s if hausdorff_s > 0 else 0.0
    out["trace.ops"] = traced_ops
    out["trace.spans"] = len(tracer.start)
    out["trace.overhead_pct"] = 100.0 * (untraced_rate - traced_rate) / untraced_rate
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="all workloads at tiny sizes, with every check")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    import_program()
    import workloads

    if args.smoke:
        return smoke(workloads, args.seed)
    if args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    wl = workloads.make(args.workload, args.seed)

    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        run, *rates = run_traced(wl, args.seconds, tracer)
        metrics = per_layer(tracer, *rates)
        units = PER_LAYER
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{wl.name}-seed{args.seed}.csv"))
    else:
        run = run_timed(wl, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end(wl, run, peak_rss_mb)
        units = END_TO_END

    errors = wl.check(run.results)
    for line in errors[:20]:
        print(f"CHECK FAILED {wl.name}: {line}", file=sys.stderr)
    for kind, count in sorted(run.failures.items()):
        print(f"{wl.name}: {count} ops failed with {kind}")
    print(f"{wl.name}: seed {args.seed}, {run.attempted} ops attempted, {run.failed} failed, "
          f"{len(run.results)} checked, {'correct' if not errors else 'INCORRECT'}")
    for name, value in metrics.items():
        print(f"{wl.name} {name} {value:.6g} {units[name]}")
    if not args.trace:
        wall = sum(run.times)
        print(f"{wl.name} unscaled: {(run.attempted - run.failed) / wall:.6g} ops/s, "
              f"op_p50 {statistics.median(run.times):.6g} s, machine at "
              f"{sum(run.scaled) / sum(run.times):.3f}x the reference speed")
        if run.attempted >= 100:
            print(f"{wl.name} op_p90_s {statistics.quantiles(run.scaled, n=10)[-1]:.6g} s")
    print(json.dumps({
        "correct": not errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if not errors else 1


def smoke(workloads, seed: int) -> int:
    """Every workload at tiny sizes, one round each, with every check."""
    ok = True
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, seed, smoke=True)
        run = Run()
        for inp in wl.make_round(0):
            run.op(wl, inp)
        errors = wl.check(run.results)
        ok = ok and not errors
        print(f"{name}: {run.attempted} ops, {run.failed} failed "
              f"{dict(run.failures)}, {'correct' if not errors else errors}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
