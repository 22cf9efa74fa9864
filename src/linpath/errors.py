"""Exception hierarchy shared by all linpath modules."""


class LinpathError(Exception):
    """Base class for all errors raised by this package."""


class EdgeArityError(LinpathError):
    """An edge does not have exactly 3 vertices."""


class VertexOutOfRangeError(LinpathError):
    """A vertex label is negative or >= n."""


class RepeatedVertexError(LinpathError):
    """An edge contains the same vertex twice."""


class DuplicateEdgeError(LinpathError):
    """The same edge was supplied more than once (graphs are simple)."""


class NotPairUniformError(LinpathError):
    """A hypergraph with r != 3 was requested; only 3-graphs exist."""


class ParseError(LinpathError):
    """Malformed text in the hypergraph file format."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InvalidParameterError(LinpathError):
    """A construction parameter is out of its valid range."""


class NonIntegralError(LinpathError):
    """A closed-form degree formula did not evaluate to an integer."""


class OrderTooLargeError(LinpathError):
    """Exhaustive enumeration requested beyond the supported order."""


class InfeasibleDegreeError(LinpathError):
    """Requested minimum degree exceeds the complete-graph ceiling."""


class InvalidPathError(LinpathError):
    """A vertex sequence is not a valid linear path/cycle in the host graph."""


class SearchExhaustedError(LinpathError):
    """A search hit its node budget before reaching a definite answer."""


class LemmaStepError(LinpathError):
    """A proof-derived move violated its postcondition.

    Any occurrence witnesses either an implementation bug or a flaw in the
    underlying argument; it must never be swallowed.
    """


class RotationPostconditionError(LemmaStepError):
    """Rotation returned an invalid path or failed to grow the M-set."""


class SplicePostconditionError(LemmaStepError):
    """A codegree splice did not produce a valid longer path."""


class UnfoldPostconditionError(LemmaStepError):
    """Unfolding a cycle-plus witness did not produce a valid longer path."""
