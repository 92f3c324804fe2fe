"""Exception types shared across the package, each a ``TempqtError`` as
well as a ``ValueError`` or ``RuntimeError``; the CLI catches the base."""


class TempqtError(Exception):
    """Base of every error the package raises on purpose."""


class DimensionError(TempqtError, ValueError):
    """Operand shapes violate an operation's contract."""


class ArgumentError(TempqtError, ValueError):
    """An argument value is outside an operation's domain."""


class ParseError(TempqtError, ValueError):
    """Malformed image file. Carries the message and the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.message = message
        self.offset = offset


class MetricError(TempqtError, ValueError):
    """A metric is undefined for the given inputs (degenerate data)."""


class DataError(TempqtError, ValueError):
    """A dataset manifest or sample violates a structural invariant."""


class TrainingError(TempqtError, RuntimeError):
    """The training loop hit an inconsistent state (e.g. missing grads)."""


class CompatibilityError(TempqtError, ValueError):
    """A checkpoint does not match the requested configuration."""

    def __init__(self, message: str, fields: tuple = ()):
        if fields:
            message = f"{message}: {', '.join(fields)}"
        super().__init__(message)
        self.fields = tuple(fields)


class CheckpointError(TempqtError, ValueError):
    """A checkpoint file is malformed, truncated, or unsupported."""
