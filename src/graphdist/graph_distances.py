"""The two graph distances: intrinsic Cech (closed form) and persistence
distortion (base-point sampling with a certified error bound)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, List, Tuple, Union

from .diagram_distances import Ground, hausdorff_bottleneck, yaxis_bottleneck
from .errors import GraphError, GraphFormatError
from .metric_graph import GraphPoint, MetricGraph, require_connected
from .persistence import Diagram, DiagramPoint, extended_persistence_1d


def intrinsic_cech_diagram(g: MetricGraph) -> Diagram:
    """{(0, s_i / 2)} where 2s_1 <= ... <= 2s_n are the shortest-loop lengths."""
    return Diagram.of(
        [DiagramPoint(0.0, s / 2.0) for s in g.loop_system.half_lengths]
    )


def intrinsic_cech_distance(g1: MetricGraph, g2: MetricGraph) -> float:
    """max_i |s_i - t_i| / 2 over the zero-padded, sorted half-length sequences.

    Equals the l1 bottleneck between the two intrinsic Cech diagrams; in
    particular it is 0 for any two trees.
    """
    return yaxis_bottleneck(g1.loop_system.half_lengths, g2.loop_system.half_lengths) / 2.0


@dataclass(frozen=True)
class SampledPhi:
    """Diagrams of the distance function from a delta-net of base points.

    Every vertex is a sample and consecutive samples along an edge are at
    most delta apart.
    """

    samples: Tuple[Tuple[GraphPoint, Diagram], ...]
    delta: float

    def diagrams(self) -> List[Diagram]:
        return [d for _, d in self.samples]


#: Most base points sampled on one graph; a tinier delta fails instead of
#: running without bound.
MAX_SAMPLES = 100_000


def _net(g: MetricGraph, delta: float) -> Iterator[GraphPoint]:
    """Every vertex, then the points k*delta (k >= 1) inside each edge."""
    for v in g.vertices:
        yield GraphPoint.at_vertex(v)
    for e in g.edges:
        k = 1
        while k * delta < e.length:
            yield GraphPoint.on_edge(e.id, k * delta)
            k += 1


def sample_base_points(g: MetricGraph, delta: float) -> List[GraphPoint]:
    if not (delta > 0 and math.isfinite(2.0 * delta)):
        raise GraphFormatError(
            f"delta must be positive with a finite bound 2*delta, got {delta!r}"
        )
    points = list(islice(_net(g, delta), MAX_SAMPLES + 1))
    if len(points) > MAX_SAMPLES:
        raise GraphError(
            f"delta {delta!r} needs more than {MAX_SAMPLES} samples "
            f"on a graph of total length {g.total_length!r}"
        )
    return points


def sample_phi(g: MetricGraph, delta: float) -> SampledPhi:
    points = sample_base_points(g, delta)
    require_connected(g)
    if len(g.edges) == len(g.vertices) - 1:
        # a tree has no cycle, so every diagram is empty
        samples = tuple((p, Diagram(())) for p in points)
    else:
        samples = tuple((p, extended_persistence_1d(g, p)) for p in points)
    return SampledPhi(samples=samples, delta=float(delta))


def persistence_distortion_from_samples(
    phi1: SampledPhi, phi2: SampledPhi, ground: Union[str, Ground] = "l1"
) -> Tuple[float, float]:
    # a Hausdorff distance is one of sets, so each diagram counts once
    distinct = [list(dict.fromkeys(d.pairs() for d in phi.diagrams())) for phi in (phi1, phi2)]
    estimate = hausdorff_bottleneck(*distinct, ground)
    return estimate, 2.0 * max(phi1.delta, phi2.delta)


def persistence_distortion(
    g1: MetricGraph,
    g2: MetricGraph,
    delta: float,
    ground: Union[str, Ground] = "l1",
) -> Tuple[float, float]:
    """(estimate, error bound) for the persistence distortion distance.

    The estimate is the Hausdorff-of-bottlenecks over sampled base points;
    the true value lies within 2*delta of it (the diagram map is 1-Lipschitz
    in the sup metric and l1 <= 2*sup, and every realization point lies
    within delta/2 of a sample).
    """
    return persistence_distortion_from_samples(
        sample_phi(g1, delta), sample_phi(g2, delta), ground
    )
