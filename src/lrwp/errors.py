"""Exception types shared across the package."""


class LrwpError(Exception):
    """Base class for every package-specific failure."""


class OutOfDomainError(LrwpError):
    """Evaluation time lies outside a tabulated profile's domain."""


class InvalidInvariantError(LrwpError):
    """Invariant constants with no solution here: A0 = 0 (position eigenfunctions),
    Im(F0) > 0 (a non-normalizable density) or real F0 != 0 (the density diverges
    at t = m/F0)."""


class ModeMismatchError(LrwpError):
    """Operation invoked on a packet of the wrong kind (wave packet vs plane wave)."""


class InstabilityError(LrwpError):
    """Propagation norm drifted beyond tolerance."""


class AliasingError(LrwpError):
    """Wave amplitude at the grid boundary exceeded the allowed level."""


class DegenerateFieldError(LrwpError):
    """Field with (numerically) zero norm."""


class AcceptanceViolation(LrwpError):
    """A validation run finished, and wrote its output in full, but broke one of
    its quality thresholds. ``run_validate`` raises it from the summary's
    ``violations``, which the message joins: each threshold's name, figure and limit."""


class ConfigError(LrwpError):
    """Invalid run configuration. Carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
