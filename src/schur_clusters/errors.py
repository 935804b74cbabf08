"""Exception hierarchy.

Every error carries a stable machine-readable ``code`` (used by the CLI when
reporting failures) and a human-oriented message.  Extra context is kept in
``info`` so callers can inspect the failure programmatically.
"""

from __future__ import annotations


class SchurClustersError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"

    def __init__(self, message: str, **info):
        super().__init__(message)
        self.info = info


class CycleDetected(SchurClustersError):
    code = "cycle-detected"


class BadIndex(SchurClustersError):
    code = "bad-index"


class DimensionMismatch(SchurClustersError):
    code = "dimension-mismatch"


class NegativeEntry(SchurClustersError):
    code = "negative-entry"


class BoundRequired(SchurClustersError):
    code = "bound-required"


class NotDynkin(SchurClustersError):
    code = "not-dynkin"


class ProbeExhausted(SchurClustersError):
    code = "probe-exhausted"


class NegativeExt(SchurClustersError):
    """Internal consistency failure: hom minus Euler form came out negative."""

    code = "negative-ext"


class CompletionNotFound(SchurClustersError):
    code = "completion-not-found"


class NotAPrecluster(SchurClustersError):
    code = "not-a-precluster"


class NotAPartialOrder(SchurClustersError):
    code = "not-a-partial-order"


class NotAntisymmetric(NotAPartialOrder):
    code = "not-antisymmetric"

    def __init__(self, i: int, j: int):
        super().__init__(f"elements {i} and {j} compare both ways", pair=(i, j))


class NotTransitiveClosure(NotAPartialOrder):
    code = "not-transitive-closure"

    def __init__(self, i: int, j: int):
        super().__init__(f"relation misses implied pair ({i}, {j})", pair=(i, j))


class SizeMismatch(SchurClustersError):
    code = "size-mismatch"


class LimitExceeded(SchurClustersError):
    code = "limit-exceeded"


class UnsupportedFormat(SchurClustersError):
    code = "unsupported-format"


class ParseError(SchurClustersError):
    code = "parse-error"

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}", line=line, reason=reason)
        self.line = line
        self.reason = reason
