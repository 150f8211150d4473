"""Exception types raised by the library."""


class GraphError(Exception):
    """Base class for all graphdist errors."""


class NonPositiveLength(GraphError):
    def __init__(self, edge_id: str, length: float):
        super().__init__(f"edge {edge_id!r} has non-positive length {length!r}")
        self.edge_id = edge_id
        self.length = length


class Disconnected(GraphError):
    """Raised when a graph is not connected; carries one component as witness."""

    def __init__(self, component: frozenset):
        super().__init__(
            f"graph is disconnected; one component is {sorted(component)}"
        )
        self.component = component


class GraphFormatError(GraphError):
    """Malformed graph description (JSON schema, unknown endpoints, bad numbers)."""


class InvalidPoint(GraphError):
    """A GraphPoint does not lie on the given graph."""


class NotAClosedWalk(GraphError):
    """An edge set that is not connected with all even degrees."""


class NegativeValue(GraphError):
    """A value multiset contained a negative entry."""


class EmptySet(GraphError):
    """An operation over sets of diagrams received an empty set."""


class NotABouquet(GraphError):
    """The graph is not a bouquet after smoothing degree-2 chains."""


class NotTreeOfLoops(GraphError):
    """The graph is not a wedge-sum composition of cycles and edges."""


class SpecNotTreeOfLoops(GraphError):
    """A TreeOfLoopsSpec is structurally invalid."""
