"""Exception hierarchy shared by all linpath modules.

One class per fault that a caller tells apart:

* LinpathError -- any refusal; ``cli.main`` prints it and exits 2.
* InvalidGraphError -- a graph the package refuses: text it cannot parse,
  a bad edge, an order below 3 or a uniformity other than 3.  Read as a
  LinpathError by ``cli.main``.
* InvalidParameterError -- an argument out of its range, a query vertex
  included.  Read as a LinpathError by ``cli.main``.
* InvalidPathError -- a sequence that is not a linear path or cycle of
  its host; ``finder._checked`` turns it into a LemmaStepError.
* SearchExhaustedError -- a search ran out of its budget; ``cli.main``
  prints "unknown" and exits 3.
* LemmaStepError -- a proof-derived move broke its postcondition;
  ``find_guaranteed`` reports it as LemmaStepFailed.
"""


class LinpathError(Exception):
    """Base class for all errors raised by this package."""


class InvalidGraphError(LinpathError):
    """A graph the package refuses, from text or from an edge list."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InvalidParameterError(LinpathError):
    """A parameter or query argument is out of its valid range."""


class InvalidPathError(LinpathError):
    """A vertex sequence is not a valid linear path/cycle in the host graph."""


class SearchExhaustedError(LinpathError):
    """A search hit its node budget before reaching a definite answer."""


class LemmaStepError(LinpathError):
    """A proof-derived move violated its postcondition.

    Any occurrence witnesses either an implementation bug or a flaw in the
    underlying argument; it must never be swallowed.
    """
