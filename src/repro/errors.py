"""Exception hierarchy for the repro library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single except clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConditionError(ReproError):
    """Malformed condition expression or condition tree."""


class ConditionParseError(ConditionError):
    """The textual condition expression could not be parsed."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class SSDLError(ReproError):
    """Malformed SSDL source description."""


class SSDLParseError(SSDLError):
    """The textual SSDL description could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class GrammarError(SSDLError):
    """Structurally invalid grammar (unknown nonterminal, missing start rule...)."""


class SchemaError(ReproError):
    """Invalid schema definition or schema/tuple mismatch."""


class UnknownAttributeError(SchemaError):
    """An attribute was referenced that the schema does not define."""

    def __init__(self, attribute: str, schema_name: str = ""):
        where = f" in schema {schema_name!r}" if schema_name else ""
        super().__init__(f"unknown attribute {attribute!r}{where}")
        self.attribute = attribute


class UnsupportedQueryError(ReproError):
    """A source query was submitted that the source's capabilities reject.

    Raised by the simulated source itself -- the analogue of an Internet
    source returning an error page for a form submission it cannot handle.
    """

    def __init__(self, message: str, condition=None, attributes=None):
        super().__init__(message)
        self.condition = condition
        self.attributes = attributes


class TransientSourceError(ReproError):
    """A source call failed for a reason that may not recur.

    This is the *retryable* family: unlike :class:`UnsupportedQueryError`
    (a capability rejection, permanent for a given query), a transient
    failure says nothing about the query itself -- the same call may
    succeed a moment later, or at a mirror.  Retry policies catch this
    base class and nothing else.
    """

    def __init__(self, message: str, source: str | None = None):
        super().__init__(message)
        self.source = source


class SourceUnavailableError(TransientSourceError):
    """The source did not answer at all (connection refused, outage)."""


class SourceTimeoutError(TransientSourceError):
    """The source took too long to answer.

    ``elapsed`` carries the simulated seconds spent waiting before the
    call was abandoned (charged to the plan's backoff accounting).
    """

    def __init__(self, message: str, source: str | None = None,
                 elapsed: float = 0.0):
        super().__init__(message, source=source)
        self.elapsed = elapsed


class SourceRateLimitError(TransientSourceError):
    """The source rejected the call for sending too many queries.

    ``retry_after`` is the source's suggested wait in (simulated)
    seconds; retry policies take ``max(backoff, retry_after)``.
    """

    def __init__(self, message: str, source: str | None = None,
                 retry_after: float = 0.0):
        super().__init__(message, source=source)
        self.retry_after = retry_after


class OverloadError(ReproError):
    """Admission control shed this request: the serving gate was full and
    no in-flight request finished within the queue timeout.

    This is a *load* signal, not a query property: the same request may
    succeed a moment later.  ``waited`` carries the seconds spent
    queueing before the request was shed.
    """

    def __init__(self, message: str, waited: float = 0.0):
        super().__init__(message)
        self.waited = waited


class InfeasiblePlanError(ReproError):
    """No feasible plan exists (or was found) for the target query.

    ``witness`` is set when the planner *proved* infeasibility from the
    source's compiled description: a conjunction of the query's own
    atoms -- one way of satisfying its condition -- that no query the
    source accepts can return rows for, with the projection asked.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class PlanExecutionError(ReproError):
    """A plan could not be executed (unknown source, bad structure...)."""


class InterpreterSuspendedError(PlanExecutionError):
    """The plan interpreter awaited real I/O under the loop-free driver
    of the serial and thread-pool engines (an engine bug: primitives
    that suspend need an event-loop driver)."""


class QueryFixingError(ReproError):
    """A source query accepted by the commutation-closed description could not
    be reordered into a form the native description accepts."""
