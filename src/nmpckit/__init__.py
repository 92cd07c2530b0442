"""Receding-horizon optimal control with selective sensitivity updating.

The package bundles a multiple-shooting transcription, a block-structured
interior-point QP solver, single-iteration controller schemes with full,
periodic, frozen or measure-driven Jacobian updates, solution-perturbation
analysis with auto-tuned update thresholds, and a closed-loop benchmark
harness for an inverted pendulum and a mass-spring chain.
"""

__version__ = "0.1.0"

from .errors import (AssemblyError, ConfigError, ContractViolationError,
                     DivergenceError, IntegrationBlowupError,
                     ModelEvaluationError, NMPCError,
                     NearSingularMatrixError, QPInfeasibleError,
                     QPNonconvergenceError, SingularGeometryError)
from .models import (ChainParams, ModelSpec, PendulumParams,
                     chain_steady_state, make_chain_model,
                     make_pendulum_model)
from .integrator import IntegratorConfig
from .transcription import Multipliers, QPData, References, Trajectory
from .cmon import CMoNConfig
from .schemes import (ControllerState, OCProblem, SchemeConfig, SQPResult,
                      StepDiagnostics, controller_step, initialize_controller,
                      sqp_solve)
from .harness import (ReferenceSchedule, ScenarioConfig, SimulationLog,
                      TrialSummary, closed_loop_simulate, load_scenario,
                      randomized_chain_trials, stabilizing_time)

__all__ = [
    "__version__",
    "NMPCError", "ModelEvaluationError", "SingularGeometryError",
    "IntegrationBlowupError", "AssemblyError", "ContractViolationError",
    "QPInfeasibleError", "QPNonconvergenceError", "NearSingularMatrixError",
    "DivergenceError", "ConfigError",
    "ModelSpec", "PendulumParams", "ChainParams", "make_pendulum_model",
    "make_chain_model", "chain_steady_state",
    "IntegratorConfig",
    "Trajectory", "Multipliers", "References", "QPData",
    "CMoNConfig",
    "SchemeConfig", "ControllerState", "StepDiagnostics", "OCProblem",
    "SQPResult", "initialize_controller", "controller_step", "sqp_solve",
    "ReferenceSchedule", "ScenarioConfig", "SimulationLog", "TrialSummary",
    "closed_loop_simulate", "randomized_chain_trials", "stabilizing_time",
    "load_scenario",
]
