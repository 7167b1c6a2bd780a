"""Exception hierarchy shared across the package.

Callers that need exit-code style triage can rely on the split between
InfeasibleError (the request itself cannot be satisfied) and the numerical
failures (QuadratureError, InversionRangeError, SimulationDivergedError).
"""


class FtdiffError(Exception):
    """Base class for all errors raised by this package."""


class NotAdmissibleError(FtdiffError):
    """The generating function fails one of the admissibility requirements."""


class SetValuedPointError(FtdiffError):
    """nu2 was evaluated at x = 0 where it is set-valued.

    The single-point value is not defined; callers that need the inclusion
    should use the interval [-1, 1] of limit values instead (simulation code
    conventionally picks 0, the midpoint).
    """


class InversionRangeError(FtdiffError):
    """Bracket expansion for a monotone inverse exceeded the overflow guard."""


class QuadratureError(FtdiffError):
    """A numerical integral did not converge within its iteration budget."""


class BoundNotApplicableError(FtdiffError):
    """An analytic bound was requested outside its validity region (k1^2 < 8 k2)."""


class InfeasibleError(FtdiffError):
    """The requested configuration violates a feasibility requirement.

    Raised when L >= Lbar (no perturbed guarantee exists) or when the tuning
    tradeoff parameter does not exceed the Lipschitz constant.
    """


class SimulationDivergedError(FtdiffError):
    """The simulated state left the representable range.

    Attributes:
        step_index: index of the Euler step at which divergence was detected.
    """

    def __init__(self, step_index: int, message: str | None = None):
        self.step_index = step_index
        super().__init__(message or f"simulation diverged at step {step_index}")


class ExpressionError(FtdiffError):
    """A user-supplied expression failed to parse or used a disallowed form.

    Attributes:
        line, col: 1-based line and 0-based column of the offending token,
            when known.
    """

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)
