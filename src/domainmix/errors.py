"""Exception types shared across the package."""


class DomainmixError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(DomainmixError, ValueError):
    """Invalid argument, shape, or configuration value."""


class GraphFormatError(ValidationError):
    """Malformed graph/matrix/label file. Carries the offending line when known."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f" in {path}"
        if line is not None:
            loc += f" (line {line})"
        super().__init__(message + loc)
        self.path = path
        self.line = line


class NoMixablePairsError(DomainmixError, RuntimeError):
    """No cross-domain pair passed the similarity threshold."""


class ConvergenceError(DomainmixError, RuntimeError):
    """An iterative solver failed to converge within its step budget."""


class EncoderMutatedError(DomainmixError, RuntimeError):
    """A frozen encoder parameter changed during few-shot adaptation."""


class NonFiniteGradientError(DomainmixError, RuntimeError):
    """A gradient became NaN or infinite during optimization."""

    def __init__(self, param_name, step):
        super().__init__(
            f"non-finite gradient for parameter '{param_name}' at step {step}"
        )
        self.param_name = param_name
        self.step = step
