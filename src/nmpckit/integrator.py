"""Fixed-step RK4 integration with discrete forward and adjoint sensitivities.

The shooting map of one interval is a fixed number of classical Runge-Kutta
steps with the control held constant. Sensitivities differentiate the
discrete scheme itself (variational RK4), so forward and adjoint products
agree with each other to rounding and with the integrator map exactly.

All cores are batched over a leading node dimension.
"""

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationBlowupError, ModelEvaluationError
from .models import ModelSpec


@dataclass
class IntegratorConfig:
    """Shooting-interval length and RK4 substep count."""

    dt: float
    substeps: int = 4

    def __post_init__(self):
        if self.dt <= 0 or self.substeps < 1:
            raise ValueError("dt must be positive and substeps >= 1")


def _rk4(model: ModelSpec, x, u, cfg: IntegratorConfig):
    """The RK4 recurrence of all three entry points, and their only
    finiteness checks.

    Returns the end state and, per substep, the four stage states the
    right-hand side was evaluated at. Non-finite ``x`` or ``u`` raises
    :class:`ModelEvaluationError`; a substep that ends non-finite raises
    :class:`IntegrationBlowupError`.
    """
    x = np.array(x, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(u))):
        raise ModelEvaluationError("non-finite integrator input")
    h = cfg.dt / cfg.substeps
    stages = []
    for _ in range(cfg.substeps):
        s1 = x
        k1 = model.rhs(s1, u)
        s2 = s1 + 0.5 * h * k1
        k2 = model.rhs(s2, u)
        s3 = s1 + 0.5 * h * k2
        k3 = model.rhs(s3, u)
        s4 = s1 + h * k3
        k4 = model.rhs(s4, u)
        x = s1 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise IntegrationBlowupError(
                "state became non-finite during integration")
        stages.append((s1, s2, s3, s4))
    return x, stages


def integrate_batch(model: ModelSpec, x, u, cfg: IntegratorConfig):
    """Propagate a batch of nodes through one shooting interval."""
    return _rk4(model, x, np.asarray(u, dtype=float), cfg)[0]


def forward_sensitivity_batch(model: ModelSpec, x, u, cfg: IntegratorConfig):
    """End states and forward sensitivities for a batch of nodes.

    Returns
    -------
    x_end : ndarray, shape (..., n_x)
    sens : ndarray, shape (..., n_x, n_x + n_u)
        Exact Jacobian of the discrete shooting map w.r.t. ``(x0, u)``.
    """
    u = np.asarray(u, dtype=float)
    x_end, stages = _rk4(model, x, u, cfg)
    n_x, n_u = model.n_x, model.n_u
    S = np.zeros(x_end.shape[:-1] + (n_x, n_x + n_u))
    S[..., :, :n_x] = np.eye(n_x)
    h = cfg.dt / cfg.substeps

    def stage(xs, S_in):
        A, B = model.rhs_jacobians(xs, u)
        K = A @ S_in
        K[..., :, n_x:] += B
        return K

    for s1, s2, s3, s4 in stages:
        K1 = stage(s1, S)
        K2 = stage(s2, S + 0.5 * h * K1)
        K3 = stage(s3, S + 0.5 * h * K2)
        K4 = stage(s4, S + h * K3)
        S = S + (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
    return x_end, S


def adjoint_batch(model: ModelSpec, x, u, cfg: IntegratorConfig, seeds):
    """Adjoint directional sensitivities ``seed^T d(end state)/d(x0, u)``.

    Parameters
    ----------
    seeds : ndarray, shape (..., k, n_x)
        Any number of seed covectors per node; the reverse sweep is shared.

    Returns
    -------
    rows : ndarray, shape (..., k, n_x + n_u)
    """
    u = np.asarray(u, dtype=float)
    seeds = np.asarray(seeds, dtype=float)
    x_end, stages = _rk4(model, x, u, cfg)
    h = cfg.dt / cfg.substeps
    batch = np.broadcast_shapes(seeds[..., 0, 0].shape, x_end[..., 0].shape)
    lam = np.array(np.broadcast_to(seeds, batch + seeds.shape[-2:]))
    lu = np.zeros(lam.shape[:-1] + (model.n_u,))
    c_end, c_mid = h / 6.0, h / 3.0
    for s1, s2, s3, s4 in reversed(stages):
        A1, B1 = model.rhs_jacobians(s1, u)
        A2, B2 = model.rhs_jacobians(s2, u)
        A3, B3 = model.rhs_jacobians(s3, u)
        A4, B4 = model.rhs_jacobians(s4, u)
        w4 = c_end * lam
        t4 = w4 @ A4
        w3 = c_mid * lam + h * t4
        t3 = w3 @ A3
        w2 = c_mid * lam + 0.5 * h * t3
        t2 = w2 @ A2
        w1 = c_end * lam + 0.5 * h * t2
        t1 = w1 @ A1
        lu = lu + w1 @ B1 + w2 @ B2 + w3 @ B3 + w4 @ B4
        lam = lam + t1 + t2 + t3 + t4
    return np.concatenate([lam, lu], axis=-1)
