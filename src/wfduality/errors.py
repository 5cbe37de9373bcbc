"""Exception and warning types shared across the package."""


class WfdualityError(Exception):
    """Base class for all package-specific errors."""


class DegenerateKernelAtAtom(WfdualityError):
    """The selection intensity measure charges a point where the kernel is
    degenerate (mean excess zero), so the selection environment law is
    undefined there."""


class NonFiniteIntegrand(WfdualityError):
    """An integrand evaluated to inf or NaN on a node or atom."""


class InfiniteJumpIntensity(WfdualityError):
    """A jump intensity (selection or coalescence) is not finite."""


class InvalidStep(WfdualityError):
    """A time step is non-positive or otherwise unusable."""


class StateExplosionGuard(WfdualityError):
    """The branching-coalescing chain exceeded the configured state ceiling.

    Signals a mis-parameterised model or a violation of the expected
    non-explosion; never truncated silently.
    """


class InvalidArgument(WfdualityError, ValueError):
    """An argument lies outside its domain, e.g. a sample size outside
    [1, N] or a seed outside [0, 2**64)."""


class InvariantViolation(WfdualityError):
    """A runtime invariant of a simulator or estimator failed, e.g. a jump
    left [0,1] or a rate exceeded its Markov bound.  Signals a defect in
    the model code, never a statistical outcome."""


class RegimeMismatch(WfdualityError):
    """The requested analysis needs the opposite long-term regime."""


class SigmaNotZero(WfdualityError):
    """Threshold classification requires a zero Brownian component."""


class InvalidScaling(WfdualityError):
    """A finite-N scaling scheme produced an invalid parameter (e.g. an
    environment mixture that is not a probability)."""


class ConfigError(WfdualityError):
    """A run configuration failed schema or semantic validation."""


class ModelError(WfdualityError):
    """Model parameters are inadmissible."""


class NonConvergenceWarning(UserWarning):
    """A stationary-distribution estimate looks unconverged."""
