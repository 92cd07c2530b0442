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


def _finite_or_blowup(x):
    if not np.all(np.isfinite(x)):
        raise IntegrationBlowupError("state became non-finite during integration")


def _validate_entry(x, u):
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(u))):
        raise ModelEvaluationError("non-finite integrator input")


class _blowup_guard:
    """Convert model evaluation failures on intermediates into blowups.

    Geometry errors keep their own type; entry inputs are validated
    beforehand, so anything caught here happened mid-integration.
    """

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        from .errors import SingularGeometryError
        if exc_type is not None and issubclass(exc_type, ModelEvaluationError) \
                and not issubclass(exc_type, SingularGeometryError):
            raise IntegrationBlowupError(
                "model evaluation failed mid-integration") from exc
        return False


def integrate_batch(model: ModelSpec, x, u, cfg: IntegratorConfig):
    """Propagate a batch of nodes through one shooting interval."""
    x = np.array(x, dtype=float)
    u = np.asarray(u, dtype=float)
    _validate_entry(x, u)
    h = cfg.dt / cfg.substeps
    with _blowup_guard():
        for _ in range(cfg.substeps):
            k1 = model.rhs(x, u)
            k2 = model.rhs(x + 0.5 * h * k1, u)
            k3 = model.rhs(x + 0.5 * h * k2, u)
            k4 = model.rhs(x + h * k3, u)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            _finite_or_blowup(x)
    return x


def forward_sensitivity_batch(model: ModelSpec, x, u, cfg: IntegratorConfig):
    """End states and forward sensitivities for a batch of nodes.

    Returns
    -------
    x_end : ndarray, shape (..., n_x)
    sens : ndarray, shape (..., n_x, n_x + n_u)
        Exact Jacobian of the discrete shooting map w.r.t. ``(x0, u)``.
    """
    x = np.array(x, dtype=float)
    u = np.asarray(u, dtype=float)
    _validate_entry(x, u)
    n_x, n_u = model.n_x, model.n_u
    batch = np.broadcast_shapes(x[..., 0].shape, u[..., 0].shape)
    S = np.zeros(batch + (n_x, n_x + n_u))
    S[..., :, :n_x] = np.eye(n_x)
    h = cfg.dt / cfg.substeps

    def stage(xs, S_in):
        A, B = model.rhs_jacobians(xs, u)
        K = A @ S_in
        K[..., :, n_x:] += B
        return model.rhs(xs, u), K

    with _blowup_guard():
        for _ in range(cfg.substeps):
            k1, K1 = stage(x, S)
            k2, K2 = stage(x + 0.5 * h * k1, S + 0.5 * h * K1)
            k3, K3 = stage(x + 0.5 * h * k2, S + 0.5 * h * K2)
            k4, K4 = stage(x + h * k3, S + h * K3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            S = S + (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
            _finite_or_blowup(x)
    return x, S


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
    x = np.array(x, dtype=float)
    u = np.asarray(u, dtype=float)
    seeds = np.asarray(seeds, dtype=float)
    _validate_entry(x, u)
    n_x, n_u = model.n_x, model.n_u
    h = cfg.dt / cfg.substeps
    # forward pass records the stage states of every step
    stages = []
    with _blowup_guard():
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
            _finite_or_blowup(x)
            stages.append((s1, s2, s3, s4))

    batch = np.broadcast_shapes(seeds[..., 0, 0].shape, x[..., 0].shape)
    lam = np.array(np.broadcast_to(seeds, batch + seeds.shape[-2:]))
    lu = np.zeros(lam.shape[:-1] + (n_u,))
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
