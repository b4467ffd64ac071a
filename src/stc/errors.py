"""Shared exception types."""


class GraphError(ValueError):
    """Malformed graph construction (bad endpoints, loops, duplicates)."""


class DisconnectedGraphError(GraphError):
    """Operation requires a connected graph."""


class FormatError(ValueError):
    """Malformed .gr / .td / solution file; message carries a line number."""


class InvalidSpanningTreeError(ValueError):
    """Edge set is not a spanning tree of the host graph.

    edge is the edge the message names (0-indexed), or None when it names
    none, and reason is the message without it, so that a caller can name
    the edge in its own ids.
    """

    def __init__(self, reason: str, edge: tuple[int, int] | None = None):
        super().__init__(reason if edge is None else f"edge {edge} {reason}")
        self.reason = reason
        self.edge = edge


class InvalidDecompositionError(ValueError):
    """Tree decomposition fails an axiom or a nice-form rule."""


class BudgetExceededError(RuntimeError):
    """Enumeration budget ran out.

    emitted holds the number of spanning trees yielded before the cap hit.
    """

    def __init__(self, message: str, emitted: int = 0):
        super().__init__(message)
        self.emitted = emitted
