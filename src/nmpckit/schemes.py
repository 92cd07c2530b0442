"""Receding-horizon iteration schemes and their SQP counterpart.

One controller instant performs a single Newton-type step on the current
horizon problem, in three stages:

1. integrate the trajectory and, for ``cmon``, measure each interval's
   nonlinearity along the previous step;
2. choose the sensitivity blocks to recompute;
3. assemble the subproblem with an exactly corrected gradient, solve it,
   update the measure caches and take the full step.

There is no preparation phase: the first step (instant 0) computes every
block under every scheme. That first computation counts in
``sens_blocks`` but not in ``refreshed``, which counts only blocks
recomputed after it. A block counts as exact only at the instant that
computes it; every other node takes its gradient row from an adjoint
sweep. After the first step the schemes differ only in the block update
policy of stage 2:

``rti``
    every block, every instant.
``ml``
    every block, every ``ml_interval`` instants, none in between.
``adj``
    blocks stay at their first-step values forever.
``cmon``
    per-block nonlinearity measures against auto-tuned thresholds.

:func:`sqp_solve` iterates the same step at a frozen measurement until the
residual meets its tolerance. :func:`subproblem_constants` computes the
conditioning constants that the automatic thresholds read, outside any
step.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Optional, List

import numpy as np

from . import integrator as intg
from .cmon import (CMoNConfig, adjoint_rows, dual_cmon, direction_vectors,
                   dto_tolerance, primal_cmon, thresholds, update_decision)
from .errors import ConfigError, DivergenceError
from .models import ModelSpec
from .perturbation import build_m, conditioning_constants, measure_dto
from .qp_solver import solve
from .transcription import (Multipliers, References, Trajectory, apply_step,
                            build_qp, exact_gradient_rows)

_SCHEMES = ("rti", "ml", "adj", "cmon")


@dataclass
class SchemeConfig:
    """Controller-level knobs shared by all schemes."""

    scheme: str = "rti"
    qp_tol: float = 1e-8
    ml_interval: int = 1
    cmon: CMoNConfig = field(default_factory=CMoNConfig)
    track_dto: bool = False     # run the exact-sensitivity oracle per instant

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.ml_interval < 1:
            raise ConfigError("ml_interval must be a positive integer")
        if not 0.0 < self.qp_tol < math.inf:
            raise ConfigError("qp_tol must be positive and finite")

    @property
    def lacks_constants(self) -> bool:
        """Whether the thresholds need conditioning constants that the
        configuration does not carry yet."""
        return (self.scheme == "cmon" and self.cmon.threshold_mode == "auto"
                and self.cmon.rho0 is None)

    def with_constants(self, rho0: Optional[float],
                       gamma0: Optional[float]) -> "SchemeConfig":
        return replace(self, cmon=replace(self.cmon, rho0=rho0,
                                          gamma0=gamma0))


@dataclass
class StepDiagnostics:
    """Per-instant record returned by :func:`controller_step`; the fields
    after ``instant`` are the exported log's columns, in this order."""

    instant: int
    kkt: float                  # exact Lagrangian gradient norm, pre-step
    dy_norm: float              # full increment norm
    dw_norm: float              # primal part of the increment
    dlam_norm: float            # equality-multiplier part of the increment
    refreshed: int              # blocks computed before, recomputed now
    refresh_fraction: float
    qp_iterations: int
    sens_blocks: int            # forward sensitivity blocks computed
    adjoint_seeds: int          # nodes x seeds of the adjoint sweep
    kappa_max: float = 0.0
    kappa_dual_max: float = 0.0
    eta_pri: float = np.inf
    eta_dual: float = np.inf
    e_bar: float = np.nan
    # oracle (track_dto) entries: the distance to the exact-block solution,
    # which e_bar bounds, and 1.0 if the two active sets agree
    dto_e: float = np.nan
    dto_active_match: float = np.nan


@dataclass
class ControllerState:
    """Everything the controller carries from one instant to the next.

    The caches hold, from the previous instant, what the ``cmon``
    measures read: integration values, directional sensitivity rows
    along the primal and dual steps, and the dual step's adjoint seeds.
    The stage-Jacobian record and the buffer that gathers its refreshed
    nodes are allocated once, with the state; every step overwrites them.
    """

    model: ModelSpec
    integ: intg.IntegratorConfig
    cfg: SchemeConfig
    traj: Trajectory
    mult: Multipliers
    blocks: np.ndarray          # (N, n_x, n_x+n_u) sensitivity blocks
    record: np.ndarray          # (N, 4*substeps, n_x, n_x+n_u) [f_x | f_u]
    gathered: np.ndarray        # room for the record at a node subset
    prev_phi: Optional[np.ndarray] = None       # (N, n_x)
    prev_dir_pri: Optional[np.ndarray] = None   # (N, n_x)
    prev_dir_dual: Optional[np.ndarray] = None  # (N, n_x+n_u)
    prev_dlam: Optional[np.ndarray] = None      # (N, n_x)
    instant: int = 0
    n_dim: int = 0              # primal + dual dimension of the subproblem
    e_bar: float = np.nan       # tolerance the next step's thresholds use


def subproblem_dim(model: ModelSpec, N: int) -> int:
    """Primal plus dual dimension of the horizon-``N`` subproblem."""
    n_w = N * (model.n_x + model.n_u) + model.n_x
    n_eq = (N + 1) * model.n_x
    n_in = N * model.n_r
    return n_w + n_eq + n_in


def initialize_controller(model: ModelSpec, integ: intg.IntegratorConfig,
                          cfg: SchemeConfig, traj0: Trajectory,
                          mult0: Multipliers) -> ControllerState:
    """Controller state with copies of ``traj0`` and ``mult0`` and no
    sensitivity block yet; it evaluates no model and no kernel.

    The first step computes every block, in the closed loop as in
    :func:`sqp_solve` (``adj`` keeps them there for good). Under ``cmon``
    with automatic thresholds, ``cfg`` must carry the conditioning
    constants (:func:`subproblem_constants` computes them); without them
    this raises :class:`ConfigError`.
    """
    if cfg.lacks_constants:
        raise ConfigError("automatic cmon thresholds need the conditioning "
                          "constants rho0 and gamma0")
    N = traj0.horizon
    # zeroed once: the model writes only the structural nonzeros
    record = np.zeros((N, 4 * integ.substeps, model.n_x,
                       model.n_x + model.n_u))
    state = ControllerState(
        model=model, integ=integ, cfg=cfg, traj=traj0.copy(),
        mult=mult0.copy(),
        blocks=np.zeros((N, model.n_x, model.n_x + model.n_u)),
        record=record, gathered=np.empty_like(record),
        n_dim=subproblem_dim(model, N))
    if cfg.scheme == "cmon":
        state.e_bar = dto_tolerance(cfg.cmon, state.n_dim, 0.0)
    return state


def _masked_nodes(state: ControllerState, mask):
    """The record at the masked nodes: the record itself when every node
    is masked, else a copy in the state's gather buffer."""
    if mask.all():
        return state.record
    nodes = np.flatnonzero(mask)
    # take writes straight into out unless mode="raise" buffers it
    return np.take(state.record, nodes, axis=0, mode="clip",
                   out=state.gathered[:nodes.size])


def _linearize(state: ControllerState, x_hat, refs: References):
    """Stages 1 and 2 of the step and the assembly of stage 3.

    The step's one reverse sweep (:func:`adjoint_rows`) runs here, over
    every node: seeded with the dual step and ``lam`` under ``cmon``,
    with ``lam`` alone where another scheme keeps its blocks (all or none).

    Every sweep reads the model Jacobians at the RK4 stage states, which
    this writes into ``state.record``. Returns ``(qp, phis, mask, diag)``:
    the subproblem, the integration values at the nodes, the mask of the
    blocks computed at this step, and the instant's diagnostics without
    the solve's entries.
    """
    model, integ, cfg, traj = state.model, state.integ, state.cfg, state.traj
    N = traj.horizon
    first = state.instant == 0  # computes every block, which is no refresh
    lam_seeds = state.mult.lam[1:]
    phis, stages = intg.integrate_batch(model, traj.xs[:-1], traj.us, integ)
    # every node is either recomputed or swept, so every step reads these
    record = intg.stage_jacobians(model, stages, traj.us, state.record)
    kappa = kappa_dual = np.zeros(N)
    eta_pri = eta_dual = np.inf
    swept = ()                  # rows of the sweep, one array per seed
    if first:
        mask = np.ones(N, dtype=bool)
    elif cfg.scheme == "cmon":
        kappa = primal_cmon(phis, state.prev_phi, state.prev_dir_pri)
        # one sweep serves the dual measure and the stale gradient rows
        swept = adjoint_rows(model, record, integ, state.prev_dlam, lam_seeds)
        kappa_dual = dual_cmon(swept[0], state.prev_dir_dual)
        eta_pri, eta_dual = thresholds(
            cfg.cmon, state.e_bar, float(np.linalg.norm(state.prev_dir_pri)),
            float(np.linalg.norm(state.prev_dir_dual)))
        mask = update_decision(kappa, kappa_dual, eta_pri, eta_dual,
                               floor_count=cfg.cmon.floor_count(N))
    else:
        mask = np.full(N, cfg.scheme == "rti" or (
            cfg.scheme == "ml" and state.instant % cfg.ml_interval == 0))
        if not mask[0]:
            # kept blocks count as stale, so every gradient row is swept
            swept = adjoint_rows(model, record, integ, lam_seeds)
    sens_blocks = int(mask.sum())
    if sens_blocks:
        state.blocks[mask] = intg.forward_sensitivity_batch(
            model, _masked_nodes(state, mask), integ)

    seeds = N * len(swept)
    lam_dphi = exact_gradient_rows(lam_seeds, mask, state.blocks,
                                   swept[-1] if swept else None)
    qp = build_qp(traj, state.mult, x_hat, state.blocks, model, refs, phis,
                  lam_dphi)
    refreshed = 0 if first else sens_blocks
    diag = StepDiagnostics(
        instant=state.instant, kkt=float(np.linalg.norm(qp.gradient)),
        dy_norm=np.nan, dw_norm=np.nan, dlam_norm=np.nan,
        refreshed=refreshed, refresh_fraction=refreshed / N,
        qp_iterations=0, sens_blocks=sens_blocks, adjoint_seeds=seeds,
        kappa_max=float(kappa.max(initial=0.0)),
        kappa_dual_max=float(kappa_dual.max(initial=0.0)),
        eta_pri=eta_pri, eta_dual=eta_dual, e_bar=state.e_bar)
    return qp, phis, mask, diag


def _solve_and_apply(state: ControllerState, qp, phis: np.ndarray, mask,
                     diag: StepDiagnostics) -> StepDiagnostics:
    """The rest of stage 3: solve, update the measure caches, apply."""
    cfg, model = state.cfg, state.model
    N = state.traj.horizon
    sol = solve(qp, tol=cfg.qp_tol)
    if cfg.track_dto:
        # the oracle compares with exact blocks at the trajectory, which
        # the blocks this step computed already are
        exact = state.blocks.copy()
        if not mask.all():
            exact[~mask] = intg.forward_sensitivity_batch(
                model, _masked_nodes(state, ~mask), state.integ)
        diag.dto_e, match = measure_dto(qp, sol, exact, tol=cfg.qp_tol)
        diag.dto_active_match = float(match)
    dlam, dmu = sol.lam - qp.lam, sol.mu - qp.mu
    diag.dy_norm = float(np.linalg.norm(
        np.concatenate([sol.dw, dmu.ravel(), dlam.ravel()])))
    diag.dw_norm = float(np.linalg.norm(sol.dw))
    diag.dlam_norm = float(np.linalg.norm(dlam))
    diag.qp_iterations = sol.iterations
    if cfg.scheme == "cmon":
        dw_nodes = sol.dw[:N * (model.n_x + model.n_u)].reshape(N, -1)
        state.prev_dlam = dlam[1:]
        state.prev_dir_pri, state.prev_dir_dual = direction_vectors(
            state.blocks, dw_nodes, state.prev_dlam)
        state.prev_phi = phis
        state.e_bar = dto_tolerance(cfg.cmon, state.n_dim, diag.dy_norm)
    state.traj, state.mult = apply_step(state.traj, sol)
    state.instant += 1
    return diag


def controller_step(state: ControllerState, x_hat, refs: References
                    ) -> StepDiagnostics:
    """Advance the controller one instant for measurement ``x_hat``."""
    return _solve_and_apply(state, *_linearize(state, x_hat, refs))


def subproblem_constants(model: ModelSpec, integ: intg.IntegratorConfig,
                         cfg: SchemeConfig, traj: Trajectory,
                         mult: Multipliers, x_hat, refs: References):
    """Conditioning constants ``(rho0, gamma0)`` of the subproblem that a
    first step solves from ``traj`` and ``mult`` at measurement ``x_hat``.

    A first step computes every block under any scheme, so an ``rti``
    state linearizes the same subproblem; it is solved to ``cfg.qp_tol``.
    """
    state = initialize_controller(model, integ, replace(cfg, scheme="rti"),
                                  traj, mult)
    qp = _linearize(state, x_hat, refs)[0]
    return conditioning_constants(build_m(qp, solve(qp, tol=cfg.qp_tol)))


# ---------------------------------------------------------------------------
# fixed-measurement solver


@dataclass
class OCProblem:
    """One horizon problem with a frozen measurement."""

    model: ModelSpec
    integ: intg.IntegratorConfig
    x_hat: np.ndarray
    refs: References


@dataclass
class SQPResult:
    traj: Trajectory
    mult: Multipliers
    iterations: int             # QP steps applied
    converged: bool
    kkt_trace: np.ndarray       # residual before each step, then final
    sens_blocks: int            # forward sensitivity blocks, total
    adjoint_seeds: int
    refresh_counts: List[int] = field(default_factory=list)


def _sqp_residual(qp) -> float:
    """Stationarity plus primal feasibility of the horizon problem."""
    return max(float(np.linalg.norm(qp.gradient)),
               float(np.linalg.norm(qp.continuity_residuals)))


def sqp_solve(ocp: OCProblem, traj0: Trajectory, mult0: Multipliers,
              cfg: SchemeConfig, tol: float = 1e-6,
              max_iter: int = 100) -> SQPResult:
    """Iterate the controller step at fixed ``x_hat`` to convergence.

    The scheme in ``cfg`` picks the block update policy: ``rti`` is plain
    Gauss-Newton SQP with every block exact. The state comes from
    :func:`initialize_controller`, as in the closed loop, so the first
    iteration computes every block; that is no refresh, so
    ``refresh_counts[0]`` is 0 while ``sens_blocks`` counts the N blocks.
    Under ``cmon`` with automatic thresholds, constants that ``cfg`` does
    not carry come from :func:`subproblem_constants` at the start point,
    so they are those of the first iteration's subproblem. Five
    consecutive residual increases raise :class:`DivergenceError` with the
    trace attached.
    """
    if cfg.lacks_constants:
        cfg = cfg.with_constants(*subproblem_constants(
            ocp.model, ocp.integ, cfg, traj0, mult0, ocp.x_hat, ocp.refs))
    state = initialize_controller(ocp.model, ocp.integ, cfg, traj0, mult0)
    trace, counts = [], []
    blocks_total = adjoint_total = grows = 0
    converged = False
    while True:
        qp, phis, mask, diag = _linearize(state, ocp.x_hat, ocp.refs)
        blocks_total += diag.sens_blocks
        adjoint_total += diag.adjoint_seeds
        res = _sqp_residual(qp)
        trace.append(res)
        grows = grows + 1 if len(trace) > 1 and res > trace[-2] else 0
        if grows >= 5:
            raise DivergenceError("residual grew five iterations in a row",
                                  log=np.array(trace))
        if res <= tol:
            converged = True
            break
        if len(counts) >= max_iter:
            break
        _solve_and_apply(state, qp, phis, mask, diag)
        counts.append(diag.refreshed)
    return SQPResult(traj=state.traj, mult=state.mult,
                     iterations=len(counts), converged=converged,
                     kkt_trace=np.array(trace), sens_blocks=blocks_total,
                     adjoint_seeds=adjoint_total, refresh_counts=counts)
