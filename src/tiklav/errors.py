"""Exception hierarchy for tiklav."""


class TiklavError(Exception):
    """Base class for all tiklav errors."""


class DimensionMismatch(TiklavError):
    """Grids or array shapes do not match."""


class GridTooLarge(TiklavError):
    """Dense assembly requested beyond the dense cap."""


class InvalidKernelParameter(TiklavError):
    """Kernel parameters out of range (e.g. nonpositive Gaussian width)."""


class InfeasibleSet(TiklavError):
    """The admissible set contains no feasible point."""


class InfeasibleProblem(TiklavError):
    """The optimization problem has an empty feasible set."""


class NonConvergence(TiklavError):
    """Iteration limits exhausted before the requested tolerance was met."""


class AlphaNonPositive(TiklavError):
    """The Tikhonov weight must be strictly positive."""


class NotASlaterPoint(TiklavError):
    """Candidate point violates the box or has no positive state slack."""


class OracleTooLarge(TiklavError):
    """Enumeration oracle requested on a grid with too many nodes."""


class NoFeasiblePattern(TiklavError):
    """No activity pattern yields a primal/dual feasible KKT point."""


class EmptyPath(TiklavError):
    """Source recovery requires a nonempty solution path."""


class ZeroSourceNorm(TiklavError):
    """Parameter choice needs a nonzero source-element norm."""


class NoTransition(TiklavError):
    """Constraints stay active at the smallest regularization parameter."""


class InvalidRule(TiklavError):
    """Parameter choice rule violates alpha(delta)->0, delta/alpha(delta)->0."""


class InvalidSweep(TiklavError, ValueError):
    """Sweep parameter list too short, unsorted or not positive."""


class LambdaExceedsSlaterCap(TiklavError):
    """Plus-sign Lavrentiev parameter above the Slater-point cap."""


class ConfigError(TiklavError):
    """Invalid or inconsistent run configuration."""
