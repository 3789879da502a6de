"""Exception hierarchy shared across the package."""


class StglowError(Exception):
    """Base class for all package errors."""


class ShapeError(StglowError):
    """Operand dimensions are incompatible."""


class ContractError(StglowError):
    """A caller violated an operation's precondition."""


class DataError(StglowError):
    """Input data is malformed or non-finite."""


class ParseError(StglowError):
    """A dataset file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConfigError(StglowError):
    """Invalid or inconsistent configuration."""


class DegenerateMaskError(StglowError):
    """An attention query row had every key masked out."""


class DegenerateChannelError(StglowError):
    """A normalization channel has (near-)zero variance."""


class SingularMatrixError(StglowError):
    """An invertible linear map drifted to a singular matrix."""


class FlowNumericsError(StglowError):
    """A flow step produced non-finite values."""

    def __init__(self, message: str, step: int | None = None):
        self.step = step
        if step is not None:
            message = f"step {step}: {message}"
        super().__init__(message)


class CheckpointError(StglowError):
    """Checkpoint file is missing, corrupt, or version-incompatible."""


class SceneNotFoundError(StglowError):
    """Requested scene id does not exist in the loaded data."""
