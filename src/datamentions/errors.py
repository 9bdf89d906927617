"""Exception hierarchy shared across the package.

Every error raised by this package derives from :class:`DataMentionsError`,
so callers can catch the family in one clause while the CLI maps subfamilies
to distinct exit codes.
"""

from __future__ import annotations


class DataMentionsError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(DataMentionsError):
    """Configuration file or settings are invalid."""


class InputError(DataMentionsError):
    """An input file is missing, an argument is unusable, or the output directory is locked."""


# --- network / backend ------------------------------------------------------

class NetworkError(DataMentionsError):
    """Transport-level failure talking to a remote service."""


class Timeout(NetworkError):
    """The remote service did not answer within the configured timeout."""


class RateLimited(NetworkError):
    """The remote service throttled us (HTTP 429)."""

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class RetriesExhausted(NetworkError):
    """Transient failures persisted through the whole retry budget."""


class BackendError(DataMentionsError):
    """The backend rejected a request outright (non-retryable HTTP status)."""

    def __init__(self, message: str, status_code: int | None = None):
        super().__init__(message)
        self.status_code = status_code


class MalformedResponse(DataMentionsError):
    """A remote service answered with a body we cannot interpret."""


# --- structured-payload parsing --------------------------------------------

class ParseError(DataMentionsError):
    """A reply's payload text is not valid JSON.

    ``offset`` is the byte offset of the first undecodable position within
    the payload, when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class NoPayloadFound(DataMentionsError):
    """The response contains no payload in the requested envelope."""


class MultiplePayloads(DataMentionsError):
    """More than one tagged payload found where exactly one is allowed."""


# --- record construction and parsing ----------------------------------------

class MissingField(DataMentionsError):
    """A required field is absent from a payload."""

    def __init__(self, field: str, where: str = "payload"):
        super().__init__(f"required field {field!r} missing from {where}")
        self.field = field
        self.where = where


class BadEnum(DataMentionsError):
    """A field holds a value outside its documented value set."""

    def __init__(self, field: str, value: object):
        super().__init__(f"field {field!r} has unknown value {value!r}")
        self.field = field
        self.value = value


class InvalidRecord(DataMentionsError):
    """A record violates its type invariants."""


# --- corpus -----------------------------------------------------------------

class StoreWriteError(DataMentionsError):
    """The corpus store could not be written."""


class NoPdfUrl(DataMentionsError):
    """The document record carries no PDF link to fetch."""


class NonPdfContent(DataMentionsError):
    """A fetched file does not look like a PDF."""


class ConverterFailed(DataMentionsError):
    """The external PDF-to-text command exited nonzero."""

    def __init__(self, message: str, returncode: int | None = None, stderr: str = ""):
        super().__init__(message)
        self.returncode = returncode
        self.stderr = stderr


class EmptyOutput(DataMentionsError):
    """The external PDF-to-text command produced no page text at all."""


# --- llm gateway ------------------------------------------------------------

class UnknownTemplate(DataMentionsError):
    """No prompt template registered under the requested id."""


class UnscriptedInput(DataMentionsError):
    """The mock backend received a request it has no scripted reply for."""


# --- weak supervision -------------------------------------------------------

class ArityMismatch(DataMentionsError):
    """A stage reply does not carry one entry per input dataset."""


class ValidityCouplingViolation(DataMentionsError):
    """An assessment breaks the valid/labels coupling in an unrepairable way."""


class PipelineInterrupted(DataMentionsError):
    """A pipeline run stopped early; checkpoints make it resumable.

    ``progressed`` records whether any item has been committed (this run or
    a previous one), which distinguishes a resumable partial run from a
    run that failed before doing anything.
    """

    def __init__(self, message: str, cause: BaseException | None = None, progressed: bool = False):
        super().__init__(message)
        self.cause = cause
        self.progressed = progressed


# --- gate -------------------------------------------------------------------

class MalformedScore(DataMentionsError):
    """A remote gate returned a score outside [0, 1] or not a number."""


class MissingLabel(DataMentionsError):
    """A gate decision has no gold label to evaluate against."""


# --- evaluation and splitting ----------------------------------------------

class UnknownAdapter(DataMentionsError):
    """Unrecognized prediction-file adapter name."""


class UnknownFormat(DataMentionsError):
    """Unrecognized annotation-file format name."""


class PopulationTooSmall(DataMentionsError):
    """Requested sample size exceeds the population."""


class InvalidSpec(DataMentionsError):
    """A split specification is inconsistent or infeasible."""
