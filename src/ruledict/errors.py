"""Exception types shared across the package.

Everything raised on purpose derives from :class:`RuledictError` so callers
can catch the whole family at once. A :class:`DomainError` is a negative
verdict computed about valid inputs; every other error means the inputs
could not be processed.
"""

from __future__ import annotations


class RuledictError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(RuledictError):
    """A negative verdict computed about valid inputs, such as "no grouping exists"."""


class DuplicateVariable(RuledictError):
    """A universe was given the same covariate name twice."""


class UniverseTooLarge(RuledictError):
    """More covariates than the 64-slot representation supports."""


class EnumerationTooLarge(RuledictError):
    """A full enumeration would exceed the configured entry cap."""


class ArityMismatch(RuledictError):
    """A combine operation received the wrong number of operands."""


class MissingStageResult(RuledictError):
    """A sequential rule was evaluated without its first-stage outcome."""


class InvalidStageResult(DomainError):
    """A supplied first-stage outcome is not in the first stage's dictionary."""


class UnsupportedForEquivalence(RuledictError):
    """Equivalence testing was asked about a rule containing a sequential node."""


class UnknownVariable(RuledictError):
    """A name was used that the universe does not contain.

    ``span`` is a (start, end) byte range into the source text when the name
    came from parsed text, else None.
    """

    def __init__(self, message: str, span: tuple[int, int] | None = None):
        super().__init__(message)
        self.span = span


class ParseError(RuledictError):
    """Malformed textual input.

    Rule-text errors carry ``span`` (byte offsets) and ``expected`` (token
    descriptions). CSV cell errors carry ``row`` and ``column`` instead.
    """

    def __init__(
        self,
        message: str,
        span: tuple[int, int] | None = None,
        expected: list[str] | None = None,
        row: int | None = None,
        column: str | None = None,
    ):
        super().__init__(message)
        self.span = span
        self.expected = expected or []
        self.row = row
        self.column = column


class SchemaMismatch(RuledictError):
    """A dataset is missing a required column."""


class MissingValue(RuledictError):
    """A dataset cell is empty, NA, or non-finite."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        super().__init__(message)
        self.row = row
        self.column = column


class DatasetTooSmall(RuledictError):
    """Fewer than two data rows."""


class ConstantOutcome(RuledictError):
    """A criterion that divides by the outcome's variation met an outcome with none."""


class RankDeficient(DomainError):
    """The design matrix for a requested fit does not have full column rank."""


class Underdetermined(DomainError):
    """A fit was requested with more parameters than observations."""


class EmptyDictionary(DomainError):
    """Model selection was asked to rank over an empty dictionary.

    This happens exactly when the underlying rule is incoherent: no subset of
    the universe respects it, so there is nothing to fit.
    """


class InvalidGrouping(RuledictError):
    """A grouping structure violates its invariants (empty group, bad cover, duplicate)."""


class IncompatibleGrouping(DomainError):
    """A grouping structure fails a method's structural restriction."""


class UseClosureInstead(DomainError):
    """The latent-overlapping method has no template rule.

    Its dictionary is the union closure of the grouping; build a rule from
    that dictionary instead of asking for a template.
    """


class SynthesisFailure(DomainError):
    """A dictionary admits no generating grouping structure.

    ``reason`` is one of "missing-empty-set", "missing-full-set",
    "not-union-closed"; ``witness`` is the offending entry pair for the
    union-closure case, else None.
    """

    def __init__(self, message: str, reason: str, witness: tuple | None = None):
        super().__init__(message)
        self.reason = reason
        self.witness = witness

    def __reduce__(self):
        # Exceptions pickle and copy as cls(*args); args holds only the message.
        return type(self), (*self.args, self.reason, self.witness), self.__dict__
