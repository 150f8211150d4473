"""Topological distances between finite metric graphs.

Computes the intrinsic Cech distance (closed form from the shortest system
of loops) and the persistence distortion distance (Hausdorff-of-bottlenecks
over extended persistence diagrams of geodesic distance functions), plus the
machinery to verify that the first is at most half the second on bouquet and
tree-of-loops inputs.
"""

from .cycles import LoopSystem, first_betti, shortest_loop_system
from .diagram_distances import (
    DIAGONAL,
    Ground,
    L1Ground,
    LinfGround,
    Matching,
    bottleneck,
    bottleneck_value,
    hausdorff_bottleneck,
    yaxis_bottleneck,
)
from .errors import (
    Disconnected,
    EmptySet,
    GraphError,
    GraphFormatError,
    InvalidPoint,
    NegativeValue,
    NonPositiveLength,
    NotABouquet,
    NotAClosedWalk,
    NotTreeOfLoops,
    SpecNotTreeOfLoops,
)
from .feasibility import (
    Report,
    compare_arbitrary,
    is_bouquet,
    is_tree_of_loops,
    verify_bouquet_inequality,
    verify_tree_of_loops_inequality,
)
from .generators import (
    TreeOfLoopsSpec,
    bouquet,
    named,
    random_metric_graph,
    tree_of_loops,
    tree_of_loops_parts,
)
from .geodesics import GeodesicField, dijkstra, geodesic_field
from .graph_distances import (
    SampledPhi,
    intrinsic_cech_diagram,
    intrinsic_cech_distance,
    persistence_distortion,
    persistence_distortion_from_samples,
    sample_base_points,
    sample_phi,
)
from .harness import pick_delta, run_verification
from .metric_graph import (
    Edge,
    GraphPoint,
    MetricGraph,
    from_json_dict,
    load_graph,
    parse_point,
    perturb_to_generic,
    save_graph,
    subdivide,
    to_json_dict,
)
from .persistence import Diagram, DiagramPoint, extended_persistence_1d

__version__ = "0.1.0"

__all__ = [
    "DIAGONAL",
    "Diagram",
    "DiagramPoint",
    "Disconnected",
    "Edge",
    "EmptySet",
    "GeodesicField",
    "GraphError",
    "GraphFormatError",
    "GraphPoint",
    "Ground",
    "InvalidPoint",
    "L1Ground",
    "LinfGround",
    "LoopSystem",
    "Matching",
    "MetricGraph",
    "NegativeValue",
    "NonPositiveLength",
    "NotABouquet",
    "NotAClosedWalk",
    "NotTreeOfLoops",
    "Report",
    "SampledPhi",
    "SpecNotTreeOfLoops",
    "TreeOfLoopsSpec",
    "bottleneck",
    "bottleneck_value",
    "bouquet",
    "compare_arbitrary",
    "dijkstra",
    "extended_persistence_1d",
    "first_betti",
    "from_json_dict",
    "geodesic_field",
    "hausdorff_bottleneck",
    "intrinsic_cech_diagram",
    "intrinsic_cech_distance",
    "is_bouquet",
    "is_tree_of_loops",
    "load_graph",
    "named",
    "parse_point",
    "persistence_distortion",
    "persistence_distortion_from_samples",
    "perturb_to_generic",
    "pick_delta",
    "random_metric_graph",
    "run_verification",
    "sample_base_points",
    "sample_phi",
    "save_graph",
    "shortest_loop_system",
    "subdivide",
    "to_json_dict",
    "tree_of_loops",
    "tree_of_loops_parts",
    "yaxis_bottleneck",
]
