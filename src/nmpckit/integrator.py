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
seeds or nodes share the sweep. The recurrence and the forward sweep write
into arrays allocated once per call, with every operation of the textbook
RK4 in its order, so they round exactly as an allocating implementation.
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

    The stage record is allocated once, stage-major so that each stage
    the right-hand side reads is contiguous; the recurrence writes every
    stage state and substep start straight into it, and the record is
    returned as a node-major view. Neither input is written to.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(u).all()):
        raise ModelEvaluationError("non-finite integrator input")
    h = cfg.dt / cfg.substeps
    record = np.empty((4 * cfg.substeps,) + x.shape)
    end, acc = np.empty(x.shape), np.empty(x.shape)
    record[0] = x
    rows = list(record) + [end]     # each substep's start follows its s4
    half, full, two, sixth = _coefficients(h)
    add, mul = np.add, np.multiply
    for i in range(0, len(record), 4):
        s1, s2, s3, s4, nxt = rows[i:i + 5]
        k1 = model.rhs(s1, u)
        add(s1, mul(k1, half, s2), s2)
        k2 = model.rhs(s2, u)
        add(s1, mul(k2, half, s3), s3)
        k3 = model.rhs(s3, u)
        add(s1, mul(k3, full, s4), s4)
        k4 = model.rhs(s4, u)
        # nxt = s1 + (h / 6) * (k1 + 2 k2 + 2 k3 + k4), one pass at a time
        add(k1, mul(k2, two, acc), acc)
        add(acc, mul(k3, two, nxt), acc)
        add(acc, k4, acc)
        add(s1, mul(acc, sixth, acc), nxt)
        if not np.isfinite(nxt).all():
            raise IntegrationBlowupError(
                "state became non-finite during integration")
    return end, np.moveaxis(record, 0, -2)


def _coefficients(h):
    """The RK4 coefficients ``h/2, h, 2, h/6`` as 0-d arrays, which keep
    the in-place ufunc calls on small batches cheaper than Python floats
    do; the products are the same."""
    return tuple(np.array(c) for c in (0.5 * h, h, 2.0, h / 6.0))


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

    The sweep allocates its stage products and stage input once per call
    and updates the result in place; every product and sum is the one of
    the textbook variational RK4, in the same order.
    """
    n_x, n_u = model.n_x, model.n_u
    S = np.zeros(jac_x.shape[:-3] + (n_x, n_x + n_u))
    S[..., :, :n_x] = np.eye(n_x)
    h = cfg.dt / cfg.substeps
    half, full, two, sixth = _coefficients(h)
    add, mul = np.add, np.multiply
    K1, K2, K3, K4, T = np.empty((5,) + S.shape)

    def stage(j, S_in, K):
        np.matmul(jac_x[..., j, :, :], S_in, K)
        K[..., :, n_x:] += jac_u[..., j, :, :]

    for j in range(0, jac_x.shape[-3], 4):
        stage(j, S, K1)
        stage(j + 1, add(S, mul(K1, half, T), T), K2)
        stage(j + 2, add(S, mul(K2, half, T), T), K3)
        stage(j + 3, add(S, mul(K3, full, T), T), K4)
        # S = S + (h / 6) * (K1 + 2 K2 + 2 K3 + K4)
        add(K1, mul(K2, two, K2), K1)
        add(K1, mul(K3, two, K3), K1)
        add(K1, K4, K1)
        add(S, mul(K1, sixth, K1), S)
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
