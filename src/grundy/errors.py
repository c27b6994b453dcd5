"""Exception types shared across the package.

The CLI maps these onto exit codes; library callers catch them directly.
"""


def _rebuild(cls, args, state):
    error = cls.__new__(cls)
    error.args = args
    error.__dict__.update(state)
    return error


class GrundyError(Exception):
    """Base class for all package-specific errors.

    Pickling keeps the message and the attributes without calling the
    subclass's __init__ again, so every subclass crosses a process
    boundary (a sweep worker) intact.
    """

    def __reduce__(self):
        return _rebuild, (type(self), self.args, self.__dict__)


class InputError(GrundyError, ValueError):
    """Invalid caller-supplied data (bad index, malformed value, ...)."""


class FormatError(InputError):
    """Malformed instance file."""


class DuplicateVertexError(InputError):
    """A vertex occurs twice in a sequence that requires distinct entries."""

    def __init__(self, vertex: int, position: int):
        super().__init__(f"vertex {vertex} repeated at position {position}")
        self.vertex = vertex
        self.position = position


class IsolatedVertexError(InputError):
    """An isolated vertex violates a precondition of the requested operation."""

    def __init__(self, vertex: int, context: str = ""):
        detail = f" ({context})" if context else ""
        super().__init__(f"isolated vertex {vertex}{detail}")
        self.vertex = vertex


class IllegalStepError(GrundyError):
    """A sequence step footprints nothing new.

    Carries the offending position and vertex so callers (and shrinking
    property tests) can point at the exact failure.
    """

    def __init__(self, position: int, vertex: int):
        super().__init__(
            f"illegal step at position {position}: vertex {vertex} adds nothing new"
        )
        self.position = position
        self.vertex = vertex


class SizeCapError(GrundyError):
    """Instance exceeds the hard size cap of an exponential-time routine."""

    def __init__(self, actual: int, limit: int, what: str = "vertices"):
        super().__init__(f"{actual} {what} exceeds the cap of {limit}")
        self.actual = actual
        self.limit = limit


class BudgetExceededError(GrundyError):
    """Search stopped because the node budget ran out; no bound is returned."""

    def __init__(self, nodes_explored: int, budget: int):
        super().__init__(f"node budget {budget} exhausted after {nodes_explored} nodes")
        self.nodes_explored = nodes_explored
        self.budget = budget


class NotChainGraphError(GrundyError):
    """Graph rejected by chain recognition.

    ``witness`` holds a pair of same-side vertices with incomparable
    neighborhoods when that is the reason for rejection.
    """

    def __init__(self, reason: str, witness: tuple[int, int] | None = None):
        msg = reason if witness is None else f"{reason}: vertices {witness[0]} and {witness[1]}"
        super().__init__(msg)
        self.reason = reason
        self.witness = witness


class VerificationError(GrundyError):
    """A solver produced output that failed independent re-verification."""
