"""Exception types shared across the workbench."""


class QblError(Exception):
    """Base class for all workbench errors."""


class DimensionMismatch(QblError, ValueError):
    """Operands live on incompatible spaces."""


class ZeroOperator(QblError, ValueError):
    """Operation requires a nonzero support."""


class ZeroTrace(QblError, ValueError):
    """Normalization impossible: joint support is empty."""


class InvalidExponent(QblError, ValueError):
    """Schatten/anti-norm exponent out of range."""


class NotUnital(QblError, ValueError):
    """Map fails the unitality check."""


class NotOrthonormal(QblError, ValueError):
    """Vector family is not orthonormal within tolerance."""


class InvalidProbability(QblError, ValueError):
    """Probability parameter outside [0, 1]."""


class BadPartition(QblError, ValueError):
    """Subsystem dimensions do not factor the global space."""


class NotTracePreserving(QblError, ValueError):
    """Kraus family does not sum to the identity."""


class NotCompletelyPositive(QblError, ValueError):
    """Choi matrix has an eigenvalue below the PSD slack."""


class Diverged(QblError, RuntimeError):
    """Optimizer iterates left the feasible cone or produced non-finite values."""


class CoverViolation(QblError, ValueError):
    """Subset family does not cover every site the required number of times."""


class SingularMarginal(QblError, ValueError):
    """Reference marginal lacks full support."""


class InvalidEta(QblError, ValueError):
    """Contraction parameter outside (0, 1]."""


class InvalidState(QblError, ValueError):
    """Covariance matrix violates the uncertainty relation."""


class NegativeTime(QblError, ValueError):
    """Heat-flow time must be non-negative."""


class InvalidDatum(QblError, ValueError):
    """Datum fails a condition its computation needs: the resolution of
    identity of a geometric datum, the consistent reference of a critical
    scale."""


class SpecFormatError(QblError, ValueError):
    """Problem-spec JSON is malformed; carries the offending JSON path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")
