"""Curvature-driven partial sensitivity updating.

Between consecutive solver instants, each shooting interval gets a scalar
nonlinearity measure: the deviation of the new integration value from the
linear prediction, relative to the directional sensitivity (primal), and
the change of an adjoint row relative to its previous value (dual). Blocks
whose measures stay below the current thresholds keep their stored
sensitivity, corrected by exact adjoint gradient rows; the rest are
recomputed. The blocks and the previous instant's caches these measures
read live in the controller state. Threshold values follow from a
desired distance-to-optimum tolerance through conditioning constants of
the subproblem matrix. They are precomputed, once per scenario, and the
configuration carries them (``rho0``, ``gamma0``); no controller instant
computes a spectrum.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import integrator as intg
from .errors import ConfigError
from .models import ModelSpec


@dataclass
class CMoNConfig:
    """Tuning knobs for the partial-update scheme.

    ``eps_abs``/``eps_rel`` set the distance-to-optimum tolerance
    ``e_bar = eps_abs*sqrt(n) + eps_rel*||dy_prev||`` over the stacked
    primal-dual triple. ``threshold_mode`` switches between the automatic
    rule and fixed thresholds. The automatic rule reads the conditioning
    constants ``rho0``/``gamma0``; None, the default, means not given yet,
    and a controller under that rule cannot start without them.
    """

    eps_abs: float = 0.1
    eps_rel: float = 0.1
    c1: float = 0.1
    alpha: float = 1.0
    beta: float = 1.0
    min_update_fraction: float = 0.0
    threshold_mode: str = "auto"
    fixed_eta_pri: float = math.inf
    fixed_eta_dual: float = math.inf
    rho0: Optional[float] = None
    gamma0: Optional[float] = None

    def __post_init__(self):
        if not 0.0 < self.c1 < 1.0:
            raise ConfigError("c1 must lie strictly in (0, 1)")
        if self.threshold_mode not in ("auto", "fixed"):
            raise ConfigError(
                f"unknown threshold mode {self.threshold_mode!r}")
        if not 0.0 <= self.min_update_fraction <= 1.0:
            raise ConfigError("min_update_fraction outside [0, 1]")
        if not (0.0 < self.alpha < math.inf and 0.0 < self.beta < math.inf):
            raise ConfigError("alpha and beta must be positive and finite")
        if not (0.0 <= self.fixed_eta_pri <= math.inf
                and 0.0 <= self.fixed_eta_dual <= math.inf):
            raise ConfigError("fixed_eta_pri and fixed_eta_dual must be "
                              "nonnegative (+inf allowed)")
        if not (0.0 <= self.eps_abs < math.inf
                and 0.0 <= self.eps_rel < math.inf):
            raise ConfigError(
                "eps_abs and eps_rel must be finite and nonnegative")
        pair = (self.rho0, self.gamma0)
        if pair != (None, None) and not (
                None not in pair and 0.0 < self.rho0 < math.inf
                and 1.0 <= self.gamma0 < math.inf):
            raise ConfigError("rho0 and gamma0 go together: both finite, "
                              "rho0 > 0 and gamma0 >= 1, or neither given")

    def floor_count(self, N: int) -> int:
        """Smallest block count k with ``k / N >= min_update_fraction``."""
        k = math.ceil(self.min_update_fraction * N)
        return k - 1 if k and (k - 1) / N >= self.min_update_fraction else k


def _safe_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    # exact zero direction: the measure is zero by convention
    out = np.zeros_like(num)
    nz = den > 0.0
    out[nz] = num[nz] / den[nz]
    return out


def primal_cmon(phi_now: np.ndarray, prev_phi: np.ndarray,
                prev_dir_pri: np.ndarray) -> np.ndarray:
    """Per-interval primal nonlinearity measures.

    ``prev_dir_pri`` holds the directional sensitivities of the stored
    blocks along the last primal step, so the numerator is the deviation
    of the new integration value from the linear prediction.
    """
    num = np.linalg.norm(phi_now - prev_phi - prev_dir_pri, axis=-1)
    den = np.linalg.norm(prev_dir_pri, axis=-1)
    return _safe_ratio(num, den)


def dual_cmon(adj_rows_now: np.ndarray,
              prev_dir_dual: np.ndarray) -> np.ndarray:
    """Per-interval dual measures from adjoint rows along the dual step."""
    num = np.linalg.norm(adj_rows_now - prev_dir_dual, axis=-1)
    den = np.linalg.norm(prev_dir_dual, axis=-1)
    return _safe_ratio(num, den)


def adjoint_rows(model: ModelSpec, record, cfg: intg.IntegratorConfig,
                 *seeds: np.ndarray):
    """Exact rows ``seed_k^T dphi_k`` at every interval, one array per
    seed array, from one reverse sweep over the stage-Jacobian ``record``
    of :func:`integrator.stage_jacobians`: the step's only reverse sweep,
    under every scheme."""
    stacked = np.stack(seeds, axis=1)
    out = np.empty(stacked.shape[:-1] + (model.n_x + model.n_u,))
    rows = intg.adjoint_batch(model, record, cfg, out, stacked)
    return tuple(rows[:, i] for i in range(len(seeds)))


def update_decision(kappa: np.ndarray, kappa_dual: np.ndarray,
                    eta_pri: float, eta_dual: float,
                    floor_count: int = 0) -> np.ndarray:
    """Boolean mask of blocks to recompute.

    A block is kept only when both measures sit at or below their
    thresholds, so a NaN measure refreshes its block. When fewer than
    ``floor_count`` blocks are selected, the largest primal measures
    (lowest index on ties) top up the selection.
    """
    refresh = ~((kappa <= eta_pri) & (kappa_dual <= eta_dual))
    short = floor_count - int(refresh.sum())
    if short > 0:
        cand = np.flatnonzero(~refresh)
        order = np.lexsort((cand, -kappa[cand]))
        refresh[cand[order[:short]]] = True
    return refresh


def dto_tolerance(cfg: CMoNConfig, n_dim: int, prev_dy_norm: float) -> float:
    """Tolerance ``e_bar`` for the distance to the fully-updated optimum."""
    return cfg.eps_abs * math.sqrt(n_dim) + cfg.eps_rel * prev_dy_norm


def thresholds(cfg: CMoNConfig, e_bar: float, v_pri_norm: float,
               v_dual_norm: float):
    """Threshold pair from the tolerance and the conditioning constants
    ``cfg.rho0``/``cfg.gamma0``.

    A zero tolerance gives zero thresholds, which keep only blocks whose
    measures are exactly zero; a zero direction norm leaves the
    corresponding threshold unbounded (nothing moved in that direction).
    """
    if cfg.threshold_mode == "fixed":
        return cfg.fixed_eta_pri, cfg.fixed_eta_dual
    if e_bar == 0.0:
        return 0.0, 0.0
    scale = cfg.gamma0 * e_bar / cfg.rho0
    if v_pri_norm > 0.0:
        eta_pri = scale * math.sqrt(cfg.c1) / (2.0 * cfg.alpha * v_pri_norm)
    else:
        eta_pri = math.inf
    if v_dual_norm > 0.0:
        eta_dual = scale * math.sqrt(1.0 - cfg.c1) / (cfg.beta * v_dual_norm)
    else:
        eta_dual = math.inf
    return eta_pri, eta_dual


def direction_vectors(blocks: np.ndarray, dw_nodes: np.ndarray,
                      dlam_seeds: np.ndarray):
    """Directional sensitivities along the primal and dual steps.

    Returns per-interval rows ``blocks_k @ dw_k`` and
    ``dlam_{k+1}^T blocks_k``; their stacked norms feed the threshold rule
    and the rows themselves become the next instant's caches.
    """
    dir_pri = np.einsum('kxw,kw->kx', blocks, dw_nodes)
    dir_dual = np.einsum('kx,kxw->kw', dlam_seeds, blocks)
    return dir_pri, dir_dual
