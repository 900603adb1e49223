"""Exception types shared across the package."""


class SpecSearchError(Exception):
    """Base class for all package errors."""


class DatasetFormatError(SpecSearchError):
    """Raised when a dataset file violates the JSON schema; message carries the field path."""


class StratificationInfeasible(SpecSearchError):
    """Raised when a stratified split would leave some class with zero train samples."""


class ShapeMismatch(SpecSearchError):
    """Raised when tensor shapes do not satisfy an operation's shape rule."""


class CompileError(SpecSearchError):
    """A program indexes an array parameter outside 1..length or by a non-integer."""


class NumericalError(SpecSearchError):
    """Raised when a forward value or gradient becomes NaN/Inf."""


class DslSyntaxError(SpecSearchError):
    """Parse failure; carries line and column of the offending token."""

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


class UndeclaredIdentifier(SpecSearchError):
    """An expression references a name that was never declared."""


class UnknownBuiltin(SpecSearchError):
    """Requested a builtin program name that is not in the corpus."""


class MalformedResponse(SpecSearchError):
    """An LLM response could not be split into (ideas, single code block)."""

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason
