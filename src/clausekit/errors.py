"""Shared exception types."""


class ClausekitError(Exception):
    """Base class for all library errors."""


class UsageError(ClausekitError, ValueError):
    """An option, or a combination of options, that clausekit cannot run with.

    Also a ValueError, for library callers that catch a bad argument as one.
    """


class ParseError(ClausekitError):
    """Input text could not be parsed; carries a line/column position when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" (line {line}" + ("" if column is None else f", column {column}") + ")"
        super().__init__(message + loc)


class ResourceLimitError(ClausekitError):
    """Grounding (`scl.ground_problem`) exceeded its atom or instance cap; engine runs end in a verdict instead."""


class ReplayStepError(ClausekitError):
    """A scripted derivation step could not be executed."""

    def __init__(self, step_no: int, message: str):
        self.step_no = step_no
        super().__init__(f"step {step_no}: {message}")


class OrderingConfigError(ClausekitError):
    """A symbol is missing from the ordering configuration."""
