"""Exception types raised by the toolkit.

Every failure mode that callers are expected to distinguish gets its own
class; generic ``ValueError`` is reserved for malformed arguments.
"""


class NMPCError(Exception):
    """Base class for all toolkit errors."""


class ModelEvaluationError(NMPCError):
    """The model cannot be evaluated at the given input.

    The integrator raises it for a non-finite entry state or control,
    before any model call; the model callables themselves check no
    finiteness. Subclasses mark inputs a model rejects on its own, and
    :func:`nmpckit.models.chain_steady_state` raises it when its root
    finder fails.
    """


class SingularGeometryError(ModelEvaluationError):
    """Geometric degeneracy, e.g. coincident adjacent chain masses."""


class IntegrationBlowupError(NMPCError):
    """Numerical integration produced a non-finite intermediate state."""


class AssemblyError(NMPCError):
    """Subproblem assembly received inconsistently shaped inputs."""


class QPInfeasibleError(NMPCError):
    """Quadratic subproblem detected infeasible."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class QPNonconvergenceError(NMPCError):
    """Interior-point iteration hit its iteration cap before the tolerance."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class NearSingularMatrixError(NMPCError):
    """A sensitivity-analysis matrix was numerically singular."""

    def __init__(self, message, sigma_min=None):
        super().__init__(message)
        self.sigma_min = sigma_min


class DivergenceError(NMPCError):
    """Iterative solve diverged (optimality residual grew persistently)."""

    def __init__(self, message, log=None):
        super().__init__(message)
        self.log = log


class ConfigError(NMPCError):
    """Scenario configuration missing or inconsistent."""
