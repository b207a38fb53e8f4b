"""Exception taxonomy shared by all coulombchain modules."""


class CoulombChainError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameter(CoulombChainError, ValueError):
    """A parameter violates a documented precondition (wrong sign, parity, range)."""


class UnstableLinearPhase(CoulombChainError):
    """The linear chain is not a stable configuration for the requested parameters.

    Raised when a transverse mode frequency squared falls below the clamp
    window, or when a quantity defined only above the transition (e.g. the
    soft-mode gap) is requested below it.
    """


class SoftModeSingularity(CoulombChainError):
    """A mode frequency is exactly zero where a 1/omega factor is required."""


class NumericalFailure(CoulombChainError):
    """An internal numerical routine failed to converge or returned garbage."""


class UnstableConfiguration(CoulombChainError):
    """A candidate equilibrium has an unstable direction (negative Hessian eigenvalue)."""


class ResourceLimit(CoulombChainError):
    """A requested computation exceeds the configured work/memory budget."""
