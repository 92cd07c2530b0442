"""Benchmark plant models: cart-pendulum and mass-spring chain.

Both models expose their dynamics as plain numpy callables that broadcast
over leading batch dimensions, together with hand-coded analytic Jacobians.
A :class:`ModelSpec` bundles the callables with the box bounds and
diagonal cost weights so the rest of the toolkit never needs to know which
plant it is driving.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from scipy.optimize import root

from .errors import ModelEvaluationError, SingularGeometryError


@dataclass
class ModelSpec:
    """Bundle of model callables and problem data consumed by the controller.

    Parameters
    ----------
    n_x, n_u : int
        State and control dimensions.
    rhs : callable
        ``rhs(x, u) -> xdot``; broadcasts over leading dimensions, and
        ``xdot`` has the broadcast batch shape. It must also accept inputs
        with no leading dimension, ``x`` of shape ``(n_x,)`` and ``u`` of
        shape ``(n_u,)``: the simulated plant steps the unbatched state.
    rhs_jacobians : callable
        ``rhs_jacobians(x, u, out)`` writes the analytic Jacobians into a
        C-contiguous ``out`` of shape ``batch + (n_x, n_x + n_u)``,
        ``f_x`` and ``f_u`` side by side, for the broadcast batch shape of
        ``x`` and ``u``. It writes every structurally nonzero entry,
        constant ones included, on every call, and no other: the caller
        allocates ``out`` zeroed once and reuses it, so the structural
        zeros stay zero and entries from earlier states are all
        overwritten.

        Neither callable needs to check its inputs for finiteness: the
        integrator rejects non-finite ``x`` and ``u`` on entry and checks
        the state after every RK4 substep.
    stage_weights : ndarray
        Diagonal finite nonnegative weights on the stacked ``(x, u)``
        residual.
    terminal_weights : ndarray
        Diagonal finite nonnegative weights on the terminal state residual.
    bound_index, bound_limit : array_like
        The only inequalities: ``|z_i| <= l_i`` on each stage's
        ``z = (x_k, u_k)``, one pair ``(bound_index[b], bound_limit[b])``
        per bounded component. Bound ``b`` gives the rows ``2b`` and
        ``2b + 1``, ``z_i - l_i`` and ``-z_i - l_i``, with ``<= 0``
        feasible; ``n_r`` counts them. The terminal node is unbounded.
        A limit must be finite; a negative one makes every subproblem
        infeasible.
    """

    n_x: int
    n_u: int
    rhs: Callable
    rhs_jacobians: Callable
    stage_weights: np.ndarray
    terminal_weights: np.ndarray
    bound_index: np.ndarray = ()
    bound_limit: np.ndarray = ()
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.stage_weights = np.asarray(self.stage_weights, dtype=float)
        self.terminal_weights = np.asarray(self.terminal_weights, dtype=float)
        if self.stage_weights.shape != (self.n_x + self.n_u,):
            raise ValueError("stage_weights must have length n_x + n_u")
        if self.terminal_weights.shape != (self.n_x,):
            raise ValueError("terminal_weights must have length n_x")
        weights = np.concatenate([self.stage_weights, self.terminal_weights])
        if not np.all((weights >= 0) & (weights < np.inf)):
            raise ValueError("weights must be finite and nonnegative")
        if not np.any(weights > 0):
            raise ValueError("at least one weight must be positive")
        self.bound_index = np.asarray(self.bound_index, dtype=int)
        self.bound_limit = np.asarray(self.bound_limit, dtype=float)
        if self.bound_index.ndim != 1 \
                or self.bound_limit.shape != self.bound_index.shape:
            raise ValueError("bound_index and bound_limit must pair up")
        if not np.isfinite(self.bound_limit).all():
            raise ValueError("bound limits must be finite")
        if np.unique(self.bound_index).size != self.bound_index.size \
                or np.any(self.bound_index < 0) \
                or np.any(self.bound_index >= self.n_x + self.n_u):
            raise ValueError("bounds need distinct components of (x, u)")

    @property
    def n_r(self) -> int:
        """Inequality rows per stage, two per bound."""
        return 2 * self.bound_index.size


# ---------------------------------------------------------------------------
# cart-pendulum
# ---------------------------------------------------------------------------

@dataclass
class PendulumParams:
    """Cart-pendulum parameters; angle zero is the upright position."""

    m1: float = 0.1   # pendulum mass
    m2: float = 1.0   # cart mass
    l: float = 0.8    # rod length
    g: float = 9.81


def pendulum_rhs(x, u, params: PendulumParams):
    """Continuous-time dynamics of the cart-pendulum.

    State is ``(p, theta, pdot, thetadot)``, control is the horizontal
    force on the cart. Broadcasts over leading dimensions of ``x``/``u``.
    """
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    th, pd, td, F = x[..., 1], x[..., 2], x[..., 3], u[..., 0]
    m1, m2, l, g = params.m1, params.m2, params.l, params.g
    s, c = np.sin(th), np.cos(th)
    den = m2 + m1 - m1 * c * c
    pdd = (-m1 * l * s * td ** 2 + m1 * g * c * s + F) / den
    tdd = (F * c - m1 * l * c * s * td ** 2 + (m2 + m1) * g * s) / (l * den)
    out = np.empty(np.shape(tdd) + (4,))
    out[..., 0] = pd
    out[..., 1] = td
    out[..., 2] = pdd
    out[..., 3] = tdd
    return out


def pendulum_jacobians(x, u, params: PendulumParams, out):
    """Write the analytic Jacobians ``[f_x | f_u]`` of
    :func:`pendulum_rhs` into ``out`` (see :class:`ModelSpec`)."""
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    th, td, F = x[..., 1], x[..., 3], u[..., 0]
    m1, m2, l, g = params.m1, params.m2, params.l, params.g
    s, c = np.sin(th), np.cos(th)
    s2, c2 = np.sin(2 * th), np.cos(2 * th)
    den = m2 + m1 - m1 * c * c
    dden = m1 * s2

    num_p = -m1 * l * s * td ** 2 + m1 * g * c * s + F
    dnum_p_dth = -m1 * l * c * td ** 2 + m1 * g * c2
    num_t = F * c - m1 * l * c * s * td ** 2 + (m2 + m1) * g * s
    dnum_t_dth = -F * s - m1 * l * c2 * td ** 2 + (m2 + m1) * g * c

    out[..., 0, 2] = 1.0
    out[..., 1, 3] = 1.0
    out[..., 2, 1] = (dnum_p_dth * den - num_p * dden) / den ** 2
    out[..., 2, 3] = -2.0 * m1 * l * s * td / den
    out[..., 3, 1] = (dnum_t_dth * den - num_t * dden) / (l * den ** 2)
    out[..., 3, 3] = -2.0 * m1 * l * c * s * td / (l * den)
    out[..., 2, 4] = 1.0 / den
    out[..., 3, 4] = c / (l * den)


def make_pendulum_model(params: Optional[PendulumParams] = None,
                        position_limit: float = 1.0,
                        force_limit: float = 20.0,
                        stage_weights=None,
                        terminal_weights=None) -> ModelSpec:
    """Assemble the pendulum :class:`ModelSpec` with the box bounds
    ``|p| <= position_limit`` and ``|F| <= force_limit``."""
    params = params or PendulumParams()
    if stage_weights is None:
        stage_weights = np.array([20.0, 20.0, 0.2, 0.2, 0.02])
    if terminal_weights is None:
        terminal_weights = np.array([20.0, 20.0, 0.2, 0.2])

    return ModelSpec(
        n_x=4, n_u=1,
        rhs=lambda x, u: pendulum_rhs(x, u, params),
        rhs_jacobians=lambda x, u, out: pendulum_jacobians(x, u, params, out),
        stage_weights=stage_weights,
        terminal_weights=terminal_weights,
        bound_index=[0, 4], bound_limit=[position_limit, force_limit],
        meta={"params": params},
    )


# ---------------------------------------------------------------------------
# mass-spring chain
# ---------------------------------------------------------------------------

@dataclass
class ChainParams:
    """Chain of point masses on nonlinear springs, anchored at the origin.

    ``n`` counts the springs' endpoints past the anchor: ``n - 1`` free
    masses plus a kinematically driven end point whose velocity is the
    control. The state stacks the ``n`` positions (masses then end point)
    followed by the ``n - 1`` mass velocities.
    """

    n: int = 5
    m: float = 0.45
    D: float = 1.0
    D1: float = 0.1
    L: float = 0.33
    anchor: np.ndarray = field(default_factory=lambda: np.zeros(3))
    g: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, -9.81]))

    @property
    def n_x(self) -> int:
        return 6 * (self.n - 1) + 3


def _elongations(x, u, params: ChainParams):
    """Batch shape of ``(x, u)`` and the spring vectors ``d_i = p_i -
    p_{i-1}`` from the anchor out to the driven end point, ``(..., n, 3)``."""
    n = params.n
    batch = np.broadcast(x[..., 0], u[..., 0]).shape
    allp = np.empty(batch + (n + 1, 3))
    allp[..., 0, :] = params.anchor
    allp[..., 1:, :] = x[..., :3 * n].reshape(x.shape[:-1] + (n, 3))
    return batch, allp[..., 1:, :] - allp[..., :-1, :]


def _spring_terms(d, params: ChainParams):
    # psi(r) scales the elongation direction of each spring force; r is
    # what np.linalg.norm(d, axis=-1) computes, without its Python wrapper
    r = np.sqrt(np.add.reduce(d * d, axis=-1))
    if (r < 1e-12).any():
        raise SingularGeometryError("adjacent chain points coincide")
    D, D1, L = params.D, params.D1, params.L
    return r, D * (1.0 - L / r) + D1 * (r - L) ** 3 / r


@lru_cache(maxsize=None)
def _jacobian_pattern(n: int):
    """Flat ``[f_x | f_u]`` indices of the ones (the velocity rows of
    ``f_x`` and the driven end point's rows of ``f_u``) and of the 3x3
    spring blocks, in three groups: every mass at its own point, at the
    next, and at the previous."""
    n_x, k = 6 * (n - 1) + 3, 3 * np.arange(n - 1)
    w = n_x + 3                  # row length of the joint layout
    rows = (3 * n + k) * w       # flat start of each mass's acceleration rows
    corner = np.concatenate([rows + k, rows + k + 3, rows[1:] + k[1:] - 3])
    blocks = (corner[:, None, None] + np.arange(3)[:, None] * w
              + np.arange(3)).ravel()
    end = 3 * (n - 1) + np.arange(3)
    ones = np.concatenate([np.arange(3 * (n - 1)) * (w + 1) + 3 * n,
                           end * w + n_x + np.arange(3)])
    ones.flags.writeable = blocks.flags.writeable = False
    own, nxt = 9 * (n - 1), 18 * (n - 1)
    return ones, (blocks[:own], blocks[own:nxt], blocks[nxt:])


def chain_rhs(x, u, params: ChainParams):
    """Continuous-time dynamics of the mass-spring chain.

    Velocity derivatives are ``(F_{i+1} - F_i)/m - g`` with the spring law
    ``F = D*d*(1 - L/r) + D1*d*(r - L)^3 / r`` on each elongation ``d``.
    """
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    n = params.n
    batch, d = _elongations(x, u, params)
    force = _spring_terms(d, params)[1][..., None] * d
    out = np.empty(batch + (params.n_x,))
    out[..., :3 * (n - 1)] = x[..., 3 * n:]
    out[..., 3 * (n - 1):3 * n] = u
    acc = (force[..., 1:, :] - force[..., :-1, :]) / params.m - params.g
    out[..., 3 * n:] = acc.reshape(batch + (3 * (n - 1),))
    return out


def chain_jacobians(x, u, params: ChainParams, out):
    """Write the analytic Jacobians ``[f_x | f_u]`` of :func:`chain_rhs`
    into ``out`` (see :class:`ModelSpec`)."""
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    batch, d = _elongations(x, u, params)
    r, psi = _spring_terms(d, params)
    D, D1, L = params.D, params.D1, params.L
    psip = D * L / r ** 2 + D1 * (r - L) ** 2 * (2.0 * r + L) / r ** 2
    # dF/dd = psi*I + (psip/r) d d^T for each spring; psi goes onto the
    # diagonal through a strided view
    G = d[..., :, None] * d[..., None, :]
    np.multiply((psip / r)[..., None, None], G, out=G)
    diag = np.einsum("...ii->...i", G)
    np.add(psi[..., None], diag, out=diag)

    ones, (own, nxt, prev) = _jacobian_pattern(params.n)
    flat = out.reshape(batch + (-1,), copy=False)   # raises unless a view
    # position derivatives: pdot_i = v_i, end point driven by u
    flat[..., ones] = 1.0
    # acceleration rows: mass i couples to point i+1 through G_i, to
    # point i-1 through G_{i-1}, and to itself through both
    inv_m = 1.0 / params.m
    Gm = G[..., 1:, :, :] * inv_m
    flat[..., own] = (-(G[..., 1:, :, :] + G[..., :-1, :, :])
                      * inv_m).reshape(batch + (-1,))
    flat[..., nxt] = Gm.reshape(batch + (-1,))
    flat[..., prev] = Gm[..., :-1, :, :].reshape(batch + (-1,))


def chain_steady_state(params: ChainParams, free_end_pos) -> np.ndarray:
    """Static equilibrium state for a prescribed free-end position.

    Solves the per-mass force balance, the acceleration rows of
    :func:`chain_rhs`, by root finding with their analytic Jacobian in the
    mass positions; velocities are zero. Raises
    :class:`ModelEvaluationError` if the root finder ends with a residual
    above 1e-9.
    """
    n, n_x = params.n, params.n_x
    masses, accel = slice(0, 3 * (n - 1)), slice(3 * n, n_x)
    state = np.zeros(n_x)
    state[3 * (n - 1):3 * n] = free_end_pos
    jac = np.zeros((n_x, n_x + 3))
    still = np.zeros(3)

    def balance(z):
        state[masses] = z
        return chain_rhs(state, still, params)[accel]

    def balance_jacobian(z):
        state[masses] = z
        chain_jacobians(state, still, params, jac)
        return jac[accel, masses]

    frac = np.linspace(0.0, 1.0, n + 1)[1:n, None]
    guess = params.anchor + frac * (state[3 * (n - 1):3 * n] - params.anchor)
    guess = guess + np.array([0.0, 0.0, 0.1])
    sol = root(balance, guess.ravel(), jac=balance_jacobian, tol=1e-13)
    # MINPACK can report failure at a root that rounding keeps it from
    # refining (n = 3 reaches residual 1.8e-15 so); the residual decides
    res = np.abs(balance(sol.x)).max()
    if not res <= 1e-9:
        raise ModelEvaluationError(
            f"chain equilibrium root finding failed (residual {res:.2e})")
    state[masses] = sol.x
    return state


def make_chain_model(params: Optional[ChainParams] = None,
                     control_limit: float = 1.0,
                     stage_weights=None,
                     terminal_weights=None) -> ModelSpec:
    """Assemble the chain :class:`ModelSpec` with the control bounds
    ``|u_j| <= control_limit``."""
    params = params or ChainParams()
    n_x = params.n_x
    if stage_weights is None:
        w = np.zeros(n_x + 3)
        w[:3 * (params.n - 1)] = 4.0      # mass positions
        w[3 * (params.n - 1):3 * params.n] = 10.0  # free end position
        w[3 * params.n:n_x] = 2.0         # velocities
        w[n_x:] = 0.05                    # control
        stage_weights = w
    if terminal_weights is None:
        tw = np.zeros(n_x)
        tw[:3 * (params.n - 1)] = 4.0
        tw[3 * (params.n - 1):3 * params.n] = 10.0
        tw[3 * params.n:] = 2.0
        terminal_weights = tw

    return ModelSpec(
        n_x=n_x, n_u=3,
        rhs=lambda x, u: chain_rhs(x, u, params),
        rhs_jacobians=lambda x, u, out: chain_jacobians(x, u, params, out),
        stage_weights=stage_weights,
        terminal_weights=terminal_weights,
        bound_index=n_x + np.arange(3), bound_limit=np.full(3, control_limit),
        meta={"params": params},
    )
