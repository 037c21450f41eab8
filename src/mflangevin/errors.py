"""Exception taxonomy shared by all modules.

Two families matter for the CLI exit codes: precondition violations
(bad inputs or contracts not met, exit 2) and numerical failures
(an algorithm that was given valid inputs did not converge, exit 3).
"""


class MeanFieldError(Exception):
    """Base class for all library errors."""


class PreconditionError(MeanFieldError):
    """An operation was invoked outside its contract."""


class NumericalError(MeanFieldError):
    """A numerical procedure failed to converge or blew up."""


# -- measure construction / quadrature --------------------------------------

class NonNormalizable(PreconditionError):
    """exp(-V) is not integrable on the requested domain."""


class GridFailure(NumericalError):
    """Quadrature grid refinement did not converge within its budget."""


class ConsistencyCheckFailed(NumericalError):
    """A computed result failed an identity it must satisfy."""


class GridTooNarrow(PreconditionError):
    """The supplied grid does not contain all stationary points."""


# -- renormalised potential / free energy ------------------------------------

class NotGHS(PreconditionError):
    """Potential failed the even/convex-derivative class check."""


class OutOfRange(PreconditionError):
    """Requested magnetisation exceeds the attainable range."""


class MultipleMinima(PreconditionError):
    """The table has more than one global minimum."""


class NonPositiveCurvature(PreconditionError):
    """Curvature floor is not positive; the quadratic bound does not apply."""


# -- mode decomposition -------------------------------------------------------

class TruncationTooCoarse(PreconditionError):
    """Mode truncation residual exceeds the requested tolerance."""


class FixedPointDiverged(NumericalError):
    """Newton on the flat-convex mode means did not converge within its step cap."""


class Unsupported(PreconditionError):
    """Closed-form path not available for this decomposition."""


class TooManyModes(PreconditionError):
    """Grid scan is exponential in mode count; refuse large decompositions."""


class GridExplosion(PreconditionError):
    """The finite-N contraction would allocate an array past its size limit."""


# -- graphs -------------------------------------------------------------------

class InfeasibleDegree(PreconditionError):
    """No simple graph with the requested degree sequence exists."""


class RestartBudgetExceeded(NumericalError):
    """Pairing-model generation exhausted its restart budget."""


class NoConvergence(NumericalError):
    """The Lanczos eigensolver did not converge within its restart cap."""


# -- dynamics -----------------------------------------------------------------

class NumericalBlowup(NumericalError):
    """A trajectory left the admissible state region."""


class InsufficientSamples(PreconditionError):
    """Estimator needs more thinned samples than were provided."""


class SingleWellOnly(PreconditionError):
    """Plateau estimator invalid: samples visit only one well."""
