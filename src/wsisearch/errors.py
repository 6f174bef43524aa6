"""Exception hierarchy shared by all engines and the harness.

ValidationError maps to process exit code 2, UnsupportedOperationError to 3.
"""


class SearchError(Exception):
    """Base class for all package errors."""


class ValidationError(SearchError, ValueError):
    """Malformed or inconsistent input (bad dimensions, files, parameters)."""


class DimensionError(ValidationError):
    """Operands disagree on vector or bit-string length."""


class EmptyInputError(ValidationError):
    """An operation received an empty collection it cannot work on."""


class NothingIndexedError(EmptyInputError):
    """No slide of a database build could be indexed; ``unprocessed`` holds
    each slide's (slide_id, reason)."""

    def __init__(self, message: str, unprocessed: list[tuple[str, str]]) -> None:
        super().__init__(message)
        self.unprocessed = unprocessed


class DegenerateFeatureError(ValidationError):
    """Feature statistics are degenerate (no component varies at all)."""


class UndefinedSimilarityError(ValidationError):
    """Similarity is undefined for the given operands (e.g. a zero vector)."""


class FormatError(ValidationError):
    """A file does not match its declared binary or CSV format."""


class KeyRangeError(ValidationError):
    """Integer key falls outside the index universe."""


class UnprocessedSlideError(SearchError):
    """A slide could not be indexed (e.g. its mosaic came out empty)."""


class UnsupportedOperationError(SearchError):
    """The engine does not implement the requested operation."""


class UndefinedAggregateError(SearchError):
    """Every outcome in an aggregate was None; the mean is undefined."""
