"""Exception hierarchy for the uca package.

Parser failures derive from ParseError and store failures from StoreError so
callers (notably the CLI exit-code mapping) can catch whole families.
"""


class UcaError(Exception):
    """Base class for all errors raised by this package."""


# --- parsing ---------------------------------------------------------------

class ParseError(UcaError):
    """A tool output document could not be parsed."""


class EncodingError(ParseError):
    """The bytes of a document are not valid in its encoding."""


class MissingFieldError(ParseError):
    """A required field is absent from the document."""


class MalformedValueError(ParseError):
    """A field is present but its value is not usable."""


class XmlError(ParseError):
    """The document is not well-formed XML."""


class NoResultsError(ParseError):
    """The scan document contains no rule results."""


class UndefinedComplianceError(ParseError):
    """No pass/fail results, so a compliance percentage cannot be defined."""


class MalformedReportError(ParseError):
    """An integrity report has neither summary counts nor a clean-match marker."""


# --- scoring ---------------------------------------------------------------

class NonFiniteError(UcaError):
    """A score input was NaN or infinite."""


class NegativeCountError(UcaError):
    """A count argument was negative."""


class InvalidWeightsError(UcaError):
    """A weight configuration violates its invariants."""


class OutOfRangeError(UcaError):
    """A value falls outside its permitted range."""


# --- rules -----------------------------------------------------------------

class SchemaError(UcaError):
    """A rules document does not conform to the expected schema."""


class DuplicateIdError(SchemaError):
    """Two rules share the same id."""


class NonPositiveWeightError(SchemaError):
    """A rule weight is zero or negative."""


class SnapshotError(UcaError):
    """A snapshot directory is missing required pieces or is malformed."""


class SpecError(UcaError):
    """A corpus spec document is malformed."""


# --- repository ------------------------------------------------------------

class StoreError(UcaError):
    """Base class for persistence failures."""


class StoreIOError(StoreError):
    """The store file could not be opened or written."""


class CorruptStoreError(StoreError):
    """The store file exists but is not a usable database."""


class ConstraintViolationError(StoreError):
    """A record violates a type invariant and was rejected."""


class EmptyStoreError(StoreError):
    """The operation needs at least one stored record."""


# --- statistics ------------------------------------------------------------

class EmptySampleError(UcaError):
    """A sample has fewer observations than the statistic requires."""


class DegenerateSampleError(UcaError):
    """Zero pooled spread with differing means; the t statistic is undefined."""


class InvalidDfError(UcaError):
    """Degrees of freedom below 1."""


class LengthMismatchError(UcaError):
    """Paired samples have different lengths."""


class ConstantSampleError(UcaError):
    """A constant sample where variation is required."""


class ZeroMeanError(UcaError):
    """The sample mean is zero, so a ratio statistic is undefined."""


# --- orchestration ---------------------------------------------------------

class MissingRunsError(UcaError):
    """Not all tool runs exist for the requested node and iteration."""


class UnknownNodeError(UcaError):
    """No records exist for the named node."""


class UnknownToolError(UcaError):
    """No records exist for the named tool."""
