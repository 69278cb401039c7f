"""Exception types shared across the engine."""


class OpraError(Exception):
    """Base class for all engine errors."""


class UnknownLabelling(OpraError):
    pass


class ArityMismatch(OpraError):
    pass


class UnknownNode(OpraError):
    pass


class EmptyPathList(OpraError):
    pass


class UndefinedInfinitySum(OpraError):
    """Raised on POS_INF + NEG_INF; never silently defined."""


class InvalidEdge(OpraError):
    pass


class GraphFormatError(OpraError):
    pass


class MagnitudeCapExceeded(GraphFormatError):
    pass


class QuerySyntaxError(OpraError):
    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class MacroError(OpraError):
    pass


class ValidationFailed(OpraError):
    """Raised when an operation requires a validated query but got diagnostics."""

    def __init__(self, diagnostics):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = list(diagnostics)


class NotAWitness(OpraError):
    pass


class DimensionMismatch(OpraError):
    pass


class BoundExhausted(OpraError):
    """Search gave up within the configured counter box / budget: inconclusive."""


class RecursionLimit(OpraError):
    pass


class SignatureMismatch(OpraError):
    pass


class UnknownVariable(OpraError):
    pass


class HasFreePathVariables(OpraError):
    pass


class DnfLimitExceeded(OpraError):
    pass
