"""Fixed-step RK4 integration with discrete forward and adjoint sensitivities.

The shooting map of one interval is a fixed number of classical Runge-Kutta
steps with the control held constant. Sensitivities differentiate the
discrete scheme itself (variational RK4), so forward and adjoint products
agree with each other to rounding and with the integrator map exactly.

One stage record is shared by all kernels: :func:`integrate_batch`
returns the states the right-hand side was evaluated at, one
:func:`stage_jacobians` call adds the model Jacobians at all of them, and
both sensitivity sweeps read those, or a node subset of them, instead of
evaluating the model. All kernels are batched over leading node dimensions.
The reverse sweep carries only the state adjoint; the control rows are
linear in its stage weights, so one contraction gives them after the loop.
Each seed is a batch item of its own, so its rows round alike whichever
seeds or nodes share the sweep.
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


def integrate_batch(model: ModelSpec, x, u, cfg: IntegratorConfig):
    """Propagate a batch of nodes through one shooting interval.

    The RK4 recurrence and only finiteness check of all three kernels:
    non-finite ``x`` or ``u`` raises :class:`ModelEvaluationError`, a
    substep that ends non-finite :class:`IntegrationBlowupError`. Returns
    the end states ``(..., n_x)`` and the stage states ``(..., 4 *
    substeps, n_x)``, the states the right-hand side was evaluated at.
    """
    x = np.array(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(u).all()):
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
        if not np.isfinite(x).all():
            raise IntegrationBlowupError(
                "state became non-finite during integration")
        stages += (s1, s2, s3, s4)
    return x, np.stack(stages, axis=-2)


def stage_jacobians(model: ModelSpec, stages, u):
    """Model Jacobians at every stage state of :func:`integrate_batch`, in
    one call: ``(..., 4 * substeps, n_x, n_x)`` and ``(..., 4 * substeps,
    n_x, n_u)``, the record both sensitivity sweeps read."""
    u = np.asarray(u, dtype=float)
    return model.rhs_jacobians(stages, u[..., None, :])


def node_subset(jacs, mask):
    """The stage Jacobians ``jacs`` at the masked nodes, without a copy
    when every node is masked."""
    return jacs if np.all(mask) else tuple(a[mask] for a in jacs)


def forward_sensitivity_batch(model: ModelSpec, jac_x, jac_u,
                              cfg: IntegratorConfig):
    """Exact Jacobian ``(..., n_x, n_x + n_u)`` of the discrete shooting
    map w.r.t. ``(x0, u)``, from the record of :func:`stage_jacobians`.
    """
    n_x, n_u = model.n_x, model.n_u
    S = np.zeros(jac_x.shape[:-3] + (n_x, n_x + n_u))
    S[..., :, :n_x] = np.eye(n_x)
    h = cfg.dt / cfg.substeps

    def stage(j, S_in):
        K = jac_x[..., j, :, :] @ S_in
        K[..., :, n_x:] += jac_u[..., j, :, :]
        return K

    for j in range(0, jac_x.shape[-3], 4):
        K1 = stage(j, S)
        K2 = stage(j + 1, S + 0.5 * h * K1)
        K3 = stage(j + 2, S + 0.5 * h * K2)
        K4 = stage(j + 3, S + h * K3)
        S = S + (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
    return S


def adjoint_batch(model: ModelSpec, jac_x, jac_u, cfg: IntegratorConfig,
                  seeds):
    """Adjoint directional sensitivities ``seed^T d(end state)/d(x0, u)``
    from the record of :func:`stage_jacobians`.

    The loop carries the state adjoint and records the stage weights
    ``W``; the control rows are ``W`` contracted with ``jac_u``.

    Parameters
    ----------
    seeds : ndarray, shape (..., k, n_x)
        Any number of seed covectors per node; the reverse sweep is shared.

    Returns
    -------
    rows : ndarray, shape (..., k, n_x + n_u)
    """
    h = cfg.dt / cfg.substeps
    n_st = jac_x.shape[-3]
    # every seed a batch item: (..., k, 1, n_x) @ (..., 1, n_x, n_x)
    lam = np.array(seeds, dtype=float)[..., None, :]
    W = np.empty(lam.shape[:-2] + (n_st, model.n_x))
    c_end, c_mid = h / 6.0, h / 3.0
    for j in reversed(range(0, n_st, 4)):
        W[..., j + 3:j + 4, :] = w4 = c_end * lam
        t4 = w4 @ jac_x[..., None, j + 3, :, :]
        W[..., j + 2:j + 3, :] = w3 = c_mid * lam + h * t4
        t3 = w3 @ jac_x[..., None, j + 2, :, :]
        W[..., j + 1:j + 2, :] = w2 = c_mid * lam + 0.5 * h * t3
        t2 = w2 @ jac_x[..., None, j + 1, :, :]
        W[..., j:j + 1, :] = w1 = c_end * lam + 0.5 * h * t2
        t1 = w1 @ jac_x[..., None, j, :, :]
        lam = lam + t1 + t2 + t3 + t4
    lu = W.reshape(lam.shape[:-1] + (-1,)) @ jac_u.reshape(
        jac_u.shape[:-3] + (1, -1, model.n_u))
    return np.concatenate([lam, lu], axis=-1)[..., 0, :]
