"""Exception types shared across the package."""


class DualctlError(Exception):
    """Base class for package-specific failures."""


class FitError(DualctlError):
    """Offline regression could not produce a usable network."""


class StateError(DualctlError):
    """A learner state violates its invariants or admits no likelihood.

    Examples: a covariance that is indefinite along the regressor, or a zero
    prediction variance (zero noise with a covariance that vanishes along it).
    """


class SingularControlError(DualctlError):
    """The control-law denominator vanished for a candidate."""

    def __init__(self, message: str, candidate_index: int | None = None):
        super().__init__(message)
        self.candidate_index = candidate_index


class SimulationError(DualctlError):
    """A plant step or run loop produced or received non-finite values."""


class RunError(DualctlError):
    """A closed-loop run aborted; carries the offending iteration (its cause is ``__cause__``)."""

    def __init__(self, message: str, iteration: int):
        super().__init__(message)
        self.iteration = iteration

    def __reduce__(self):  # a process pool returns a failed run's error with its iteration
        return type(self), (str(self), self.iteration)


class BatchError(DualctlError):
    """Too many Monte Carlo runs failed to produce a trustworthy batch."""


class ConfigError(DualctlError):
    """An experiment document is malformed; message names the offending field."""


class PosteriorUnderflowError(DualctlError):
    """Every posterior-likelihood product underflowed to zero in linear space.

    For callers of ``update_posteriors``; ``bayes_step`` does not call it.
    """
