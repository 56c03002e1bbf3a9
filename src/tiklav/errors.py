"""Exception hierarchy for tiklav."""


class TiklavError(Exception):
    """Base class for all tiklav errors."""


class InvalidInput(TiklavError, ValueError):
    """A value the library or the CLI rejects: a config field that is
    missing or malformed, a nonpositive alpha or tolerance, mismatched
    grids or shapes, a bad kernel parameter, a grid above the dense cap, a
    candidate that is not a Slater point, an empty or unsorted sweep list,
    a parameter-choice rule outside its range."""


class Infeasible(TiklavError):
    """No point satisfies the constraints: an empty admissible set or QP
    feasible set, or a plus-sign Lavrentiev parameter above the
    Slater-point cap."""


class NonConvergence(TiklavError):
    """A QP point missed its KKT certificate at the requested tolerance,
    or the QP pass ended on a violation within round-off."""
