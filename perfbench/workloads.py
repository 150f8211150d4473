"""The benchmark's four workloads: seeded inputs, the timed op, the checks.

Each workload hands out its inputs in rounds. A round is a fixed list of ops
whose make-up never changes, so every run attempts the same mix of work and
the same share of failing ops. Inputs are plain tuples and floats; the op
builds fresh graphdist objects from them, so per-graph precomputation stays
inside the timed op, as it does for one ``graphdist`` command. Program
functions are looked up on their modules at call time, so the tracer's
wrappers see every call.

``check`` compares the kept results with ``reference`` (scipy and networkx)
or with properties the method must have, and returns one line per failure.
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence, Tuple

import numpy as np

from graphdist import cycles, diagram_distances, generators, graph_distances, harness
from graphdist.metric_graph import MetricGraph
from graphdist.persistence import Diagram, DiagramPoint

RawGraph = Tuple[Tuple[str, ...], Tuple[Tuple[str, str, str, float], ...]]

# relative tolerance for values that reach the program and the reference by
# different float sums; exact comparisons are used wherever the arithmetic is
# the same
REL_TOL = 1e-9


def _close(x: float, y: float, rel: float = REL_TOL) -> bool:
    return abs(x - y) <= rel * max(1.0, abs(x), abs(y))


def _raw(g: MetricGraph) -> RawGraph:
    return tuple(g.vertices), tuple((e.id, e.u, e.v, e.length) for e in g.edges)


def _build(raw: RawGraph) -> MetricGraph:
    return MetricGraph.build(raw[0], raw[1])


def _betti(raw: RawGraph) -> int:
    return len(raw[1]) - len(raw[0]) + 1


def _random_graph(rng: random.Random, n: int, m: int, generic: bool) -> RawGraph:
    g = generators.random_metric_graph(
        n, m, (1.0, 2.0), seed=rng.randrange(2**32), generic_epsilon=1e-3 if generic else 0.0
    )
    return _raw(g)


def _reference():
    # scipy and networkx load only for the checks, after the timed ops
    import reference

    return reference


class Workload:
    name = ""
    why = ""
    #: seconds one round takes today; sets how many rounds a traced run makes
    round_s = 1.0

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed

    def rng(self, k: int) -> random.Random:
        return random.Random(f"perfbench:{self.name}:{self.seed}:{k}")

    def make_round(self, k: int) -> list:
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def keep(self, inp, out):
        """The part of an op's output the checks need, in plain form."""
        return out

    def check(self, results: Sequence[tuple]) -> List[str]:
        raise NotImplementedError


class VerifyFamilies(Workload):
    name = "verify-families"
    why = "the paper's experiment on tiny graphs: many very small matchings, diagram builds and per-call overhead"
    round_s = 0.05
    families = ("bouquet", "tree-of-loops", "trees")

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        # delta is set per instance so the larger graph gets about this many
        # samples; pick_delta's 5% of the shortest half loop makes the op
        # time so heavy-tailed (CV 2.5 on tree-of-loops) that no run of a
        # usable length is steady
        self.samples = 10 if smoke else 40

    def make_round(self, k):
        seed_k = self.seed * 1_000_000 + k
        inputs = []
        for family in self.families:
            graphs = self.instance_graphs(family, harness._instance_seed(seed_k, 0))
            delta = max(math.fsum(e.length for e in g.edges) for g in graphs) / self.samples
            inputs.append((family, seed_k, delta))
        return inputs

    def run(self, inp):
        family, seed_k, delta = inp
        return harness.run_verification(family, 1, seed_k, delta=delta)

    @staticmethod
    def instance_graphs(family: str, instance_seed: int):
        """The two graphs the harness draws for one instance, drawn again."""
        rng = random.Random(instance_seed)
        if family == "bouquet":
            return harness.random_bouquet(rng), harness.random_arbitrary_graph(rng)
        if family == "tree-of-loops":
            g1 = generators.tree_of_loops(harness.random_tree_of_loops_spec(rng))
            return g1, generators.tree_of_loops(harness.random_tree_of_loops_spec(rng))
        n1, n2 = rng.randint(3, 6), rng.randint(3, 6)
        g1 = generators.random_metric_graph(n1, n1 - 1, (0.5, 2.0), seed=rng.randrange(2**32))
        g2 = generators.random_metric_graph(n2, n2 - 1, (0.5, 2.0), seed=rng.randrange(2**32))
        return g1, g2

    def check(self, results):
        ref = _reference()
        errors = []
        for (family, seed_k, delta), reports in results:
            where = f"{family} seed {seed_k}"
            if len(reports) != 1:
                errors.append(f"{where}: {len(reports)} reports for one instance")
                continue
            r = reports[0]
            if not (math.isfinite(r.dpd_estimate) and r.dpd_estimate >= 0.0):
                errors.append(f"{where}: estimate {r.dpd_estimate!r}")
            if not (r.dpd_error_bound == 2.0 * delta > 0.0):
                errors.append(f"{where}: bound {r.dpd_error_bound!r} != 2*delta")
            if r.verdict != "PASS" or not r.dic <= 0.5 * (r.dpd_estimate + r.dpd_error_bound):
                errors.append(f"{where}: gate fails, d_IC {r.dic!r} estimate {r.dpd_estimate!r}")
            if family == "trees" and r.dic != 0.0:
                errors.append(f"{where}: d_IC {r.dic!r} between trees")
            g1, g2 = self.instance_graphs(family, r.seed)
            dic = ref.intrinsic_cech(ref.loop_lengths(*_raw(g1)), ref.loop_lengths(*_raw(g2)))
            if not _close(r.dic, dic):
                errors.append(f"{where}: d_IC {r.dic!r}, networkx gives {dic!r}")
        return errors


class DpdRandom(Workload):
    name = "dpd-random"
    why = "d_PD on generic random 10v/16e pairs: one Hausdorff over about 5000 pairs of 7-point diagrams per op, mostly pruned"
    round_s = 0.25
    #: the estimate is checked against the unpruned reference on this many
    #: leading ops of every run; d_IC and the bound are checked on all
    checked_ops = 6

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.sizes = ((4, 6),) if smoke else ((10, 16),)
        self.delta = 0.5

    def make_round(self, k):
        rng = self.rng(k)
        return [
            (_random_graph(rng, n, m, True), _random_graph(rng, n, m, True)) for n, m in self.sizes
        ]

    def run(self, inp):
        return graph_distances.persistence_distortion(_build(inp[0]), _build(inp[1]), self.delta)

    def check(self, results):
        ref = _reference()
        errors = []
        for k, ((raw1, raw2), (estimate, bound)) in enumerate(results):
            where = f"op {k} ({len(raw1[0])}v/{len(raw1[1])}e)"
            if not (bound == 2.0 * self.delta > 0.0):
                errors.append(f"{where}: bound {bound!r} != 2*delta")
            g1, g2 = _build(raw1), _build(raw2)
            dic = graph_distances.intrinsic_cech_distance(g1, g2)
            want = ref.intrinsic_cech(ref.loop_lengths(*raw1), ref.loop_lengths(*raw2))
            if not _close(dic, want):
                errors.append(f"{where}: d_IC {dic!r}, networkx gives {want!r}")
            if k >= self.checked_ops:
                continue
            sets = []
            for g, raw in ((g1, raw1), (g2, raw2)):
                diagrams = graph_distances.sample_phi(g, self.delta).diagrams()
                if any(len(d) != _betti(raw) for d in diagrams):
                    errors.append(f"{where}: a sampled diagram has not |E|-|V|+1 points")
                    break
                sets.append(np.array([d.pairs() for d in diagrams], dtype=float).reshape(len(diagrams), -1, 2))
            else:
                want = ref.hausdorff(sets[0], sets[1])
                if not _close(estimate, want, 1e-12):
                    errors.append(f"{where}: estimate {estimate!r}, unpruned reference {want!r}")
        return errors


def _base_key(p) -> tuple:
    return ("v", p.vertex) if p.is_vertex else ("e", p.edge, p.offset)


class PhiLarge(Workload):
    name = "phi-large"
    why = "both signatures of one 100v/200e graph per op: geodesics, subdivision and column reduction, no matching"
    round_s = 4.8

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        # one size only: a 200v/400e graph takes 7 s, and with two or three of
        # them in a 20 s run the run-to-run spread was 15%
        self.sizes = ((8, 14),) if smoke else ((100, 200),) * 4
        # coarse: above every edge length, so the samples are the vertices
        self.delta = 0.8 if smoke else 2.5

    def make_round(self, k):
        rng = self.rng(k)
        return [_random_graph(rng, n, m, False) for n, m in self.sizes]

    def run(self, inp):
        g = _build(inp)
        return cycles.shortest_loop_system(g), graph_distances.sample_phi(g, self.delta)

    def keep(self, inp, out):
        loops, phi = out
        return (
            [(sorted(edges), length) for edges, length in zip(loops.edge_sets(), loops.lengths)],
            [(_base_key(p), np.array(d.pairs(), dtype=float).reshape(-1, 2)) for p, d in phi.samples],
        )

    def check(self, results):
        ref = _reference()
        errors = []
        for k, (raw, (loops, samples)) in enumerate(results):
            where = f"op {k} ({len(raw[0])}v/{len(raw[1])}e)"
            betti = _betti(raw)
            length_of = {e[0]: e[3] for e in raw[1]}
            lengths = [length for _, length in loops]
            if len(loops) != betti or lengths != sorted(lengths):
                errors.append(f"{where}: {len(loops)} loops, not sorted or not |E|-|V|+1")
            for edges, length in loops:
                if not _close(length, math.fsum(length_of[e] for e in edges)):
                    errors.append(f"{where}: loop length {length!r} is not its edges' sum")
                    break
            if k == 0:
                # networkx takes about 4 s at 100v/200e
                want = ref.loop_lengths(*raw)
                if len(want) != len(lengths) or not all(map(_close, lengths, want)):
                    errors.append(f"{where}: loop lengths differ from networkx")
            errors += self._check_bounds(ref, where, raw, betti, samples)
            if not errors:
                errors += self._check_neighbours(ref, where, raw, samples)
        return errors

    @staticmethod
    def _check_bounds(ref, where, raw, betti, samples) -> List[str]:
        """|E|-|V|+1 points, each with 0 <= birth <= death <= max of the function."""
        fmax = ref.GeodesicMax(*raw)
        for base, d in samples:
            if d.shape[0] != betti:
                return [f"{where}: diagram at {base} has {d.shape[0]} points, not {betti}"]
            top = fmax(base)
            if (d[:, 0] < 0.0).any() or (d[:, 0] > d[:, 1]).any() or (d[:, 1] > top + REL_TOL * max(1.0, top)).any():
                return [f"{where}: diagram at {base} leaves 0 <= birth <= death <= {top!r}"]
        return []

    def _check_neighbours(self, ref, where, raw, samples) -> List[str]:
        """Neighbouring samples on one edge are no farther apart in the
        sup-ground bottleneck than along the edge (stability), so within delta."""
        errors = []
        diagram_at = dict(samples)
        first, second, apart = [], [], []
        for eid, u, v, length in raw[1]:
            stops = [(0.0, ("v", u))]
            stops += sorted((b[2], b) for b in diagram_at if b[0] == "e" and b[1] == eid)
            stops.append((length, ("v", v)))
            for (s0, b0), (s1, b1) in zip(stops, stops[1:]):
                first.append(diagram_at[b0])
                second.append(diagram_at[b1])
                apart.append((s1 - s0) * (1.0 + REL_TOL) + REL_TOL)
        if max(apart) > self.delta * (1.0 + REL_TOL) + REL_TOL:
            errors.append(f"{where}: samples on one edge are more than delta apart")
        ok = ref.feasible(np.stack(first), np.stack(second), np.array(apart), "linf")
        if not ok.all():
            errors.append(f"{where}: {int((~ok).sum())} neighbouring samples farther apart than allowed")
        return errors


def _diagram(rng: np.random.Generator, n: int) -> np.ndarray:
    birth = rng.uniform(0.0, 10.0, n)
    return np.stack([birth, birth + rng.exponential(2.0, n)], axis=1)


def _points(a: np.ndarray) -> Tuple[Tuple[float, float], ...]:
    return tuple((float(b), float(d)) for b, d in a)


class BottleneckLarge(Workload):
    name = "bottleneck-large"
    why = "single exact bottlenecks of 100-600 points, one near-identical pair and one pair the recursive matcher cannot finish"
    round_s = 5.6
    #: seed of the 600-point pair that raises RecursionError today; the same
    #: pair in every round and every run
    failing_seed = 600
    failing_points = 600

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.pairs = (
            (("random", 12), ("near", 20), ("failing", 0))
            if smoke
            else (
                ("random", 100),
                ("random", 150),
                # near-identical pairs vary least from seed to seed; three of
                # them put the median op in their class
                ("near", 200),
                ("near", 200),
                ("near", 200),
                ("random", 250),
                ("failing", 0),
            )
        )

    def make_round(self, k):
        rng = np.random.default_rng([abs(self.seed), k, 0 if self.seed >= 0 else 1])
        inputs = []
        for kind, n in self.pairs:
            if kind == "failing":
                fixed = np.random.default_rng(self.failing_seed)
                a = _diagram(fixed, self.failing_points)
                b = _diagram(fixed, self.failing_points)
            elif kind == "near":
                a = _diagram(rng, n)
                b = a + rng.uniform(-0.01, 0.01, a.shape)
                b[:, 1] = np.maximum(b[:, 0], b[:, 1])
            else:
                a, b = _diagram(rng, n), _diagram(rng, n)
            inputs.append((kind, _points(a), _points(b)))
        return inputs

    def run(self, inp):
        _, a, b = inp
        d1 = Diagram.of([DiagramPoint(x, y) for x, y in a])
        d2 = Diagram.of([DiagramPoint(x, y) for x, y in b])
        return diagram_distances.bottleneck(d1, d2)

    def keep(self, inp, out):
        value, matching = out
        pairs = [
            (None if l is diagram_distances.DIAGONAL else tuple(l), None if r is diagram_distances.DIAGONAL else tuple(r))
            for l, r in matching.pairs
        ]
        return value, matching.cost, pairs

    def check(self, results):
        ref = _reference()
        errors = []
        for k, ((kind, a, b), (value, cost, pairs)) in enumerate(results):
            where = f"op {k} ({kind}, {len(a)} points)"
            want = ref.bottleneck(np.array(a).reshape(-1, 2), np.array(b).reshape(-1, 2))
            if not _close(value, want, 1e-12):
                errors.append(f"{where}: value {value!r}, reference {want!r}")
            left = sorted(l for l, _ in pairs if l is not None)
            right = sorted(r for _, r in pairs if r is not None)
            if left != sorted(a) or right != sorted(b):
                errors.append(f"{where}: the matching does not use each point exactly once")
                continue
            costs = [
                (l[1] - l[0]) if r is None else (r[1] - r[0]) if l is None else abs(l[0] - r[0]) + abs(l[1] - r[1])
                for l, r in pairs
            ]
            if max(costs, default=0.0) != value or cost != value:
                errors.append(f"{where}: matching cost {max(costs, default=0.0)!r} != value {value!r}")
        return errors


WORKLOADS = {w.name: w for w in (VerifyFamilies, DpdRandom, PhiLarge, BottleneckLarge)}


def make(name: str, seed: int, smoke: bool = False) -> Workload:
    return WORKLOADS[name](seed, smoke)
