"""Multiple-shooting transcription and QP subproblem assembly.

The decision vector stacks ``(x_0, u_0, ..., x_{N-1}, u_{N-1}, x_N)``.
Equality rows stack the measurement embedding ``x_0 - x_hat`` followed by
the continuity residuals ``phi_k(x_k, u_k) - x_{k+1}``; their Jacobian is
block banded with an identity in the first block row and ``[dphi_k, -I]``
rows below it. Inequality rows are the per-node box bounds: each bounded
component ``z_i`` of ``z_k = (x_k, u_k)`` gives the rows ``z_i - l_i`` and
``-z_i - l_i``, so their Jacobian is a signed selection that nothing stores.

The QP objective gradient is the gradient of the problem Lagrangian with
exact sensitivities, while equality rows may carry stale Jacobian blocks;
solving the assembled QP yields the primal step and both multiplier sets
of the next iterate.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AssemblyError
from .models import ModelSpec


@dataclass
class Trajectory:
    """Shooting trajectory: node states ``xs`` (N+1, n_x), controls ``us`` (N, n_u)."""

    xs: np.ndarray
    us: np.ndarray

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.us = np.asarray(self.us, dtype=float)
        if self.xs.ndim != 2 or self.us.ndim != 2 \
                or self.xs.shape[0] != self.us.shape[0] + 1:
            raise ValueError("trajectory must hold N+1 states and N controls")

    @property
    def horizon(self) -> int:
        return self.us.shape[0]

    def nodes(self) -> np.ndarray:
        """Per-node stacked ``(x_k, u_k)`` array of shape (N, n_x + n_u)."""
        return np.concatenate([self.xs[:-1], self.us], axis=1)

    def copy(self) -> "Trajectory":
        return Trajectory(self.xs.copy(), self.us.copy())


@dataclass
class Multipliers:
    """Equality multipliers per residual row block, inequality multipliers per node."""

    lam: np.ndarray      # (N+1, n_x)
    mu: np.ndarray       # (N, n_r)

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=float)
        self.mu = np.asarray(self.mu, dtype=float)

    def copy(self) -> "Multipliers":
        return Multipliers(self.lam.copy(), self.mu.copy())

    @classmethod
    def zeros(cls, N: int, n_x: int, n_r: int) -> "Multipliers":
        return cls(np.zeros((N + 1, n_x)), np.zeros((N, n_r)))


@dataclass
class References:
    """Per-node tracking references consumed verbatim by the assembly."""

    xs: np.ndarray  # (N+1, n_x) including the terminal node
    us: np.ndarray  # (N, n_u)

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.us = np.asarray(self.us, dtype=float)


@dataclass
class QPData:
    """Everything the QP solver needs for one subproblem.

    ``gradient`` is the stacked Lagrangian gradient (exact sensitivities);
    ``jacobian_blocks`` are the per-interval blocks actually placed in the
    equality rows, which may be stale. The Gauss-Newton Hessian of the
    tracking cost is diagonal, constant along the trajectory and free of
    multipliers; ``stage_hessian`` and ``term_hessian`` hold its diagonals,
    the model's weights. ``bound_index`` names the bounded components of
    each ``(x_k, u_k)``; ``ineq_values`` holds their rows, two per bound
    (see :func:`bound_rows`). ``lam`` and ``mu`` are the current
    multipliers, which the gradient contains; the solver takes them out
    to solve for the next ones. No field is a copy: each array is the
    model's or the step's own.
    """

    stage_hessian: np.ndarray        # (n_x+n_u,) Gauss-Newton diagonal
    term_hessian: np.ndarray         # (n_x,) terminal diagonal
    gradient: np.ndarray             # (n_w,)
    continuity_residuals: np.ndarray  # (N+1, n_x); row 0 is the embedding
    jacobian_blocks: np.ndarray      # (N, n_x, n_x+n_u)
    bound_index: np.ndarray          # (n_r/2,) bounded components of w_k
    ineq_values: np.ndarray          # (N, n_r)
    lam: np.ndarray                  # (N+1, n_x) current equality multipliers
    mu: np.ndarray                   # (N, n_r)

    def __post_init__(self):
        N, n_x, nwk = self.jacobian_blocks.shape
        if self.stage_hessian.shape != (nwk,) \
                or self.term_hessian.shape != (n_x,) \
                or self.continuity_residuals.shape != (N + 1, n_x) \
                or self.gradient.shape != (N * nwk + n_x,) \
                or self.lam.shape != (N + 1, n_x) \
                or self.mu.shape != self.ineq_values.shape \
                or self.ineq_values.shape != (N, 2 * self.bound_index.size):
            raise AssemblyError("inconsistent QP block shapes")
        # the Hessians are the model's weights, which ModelSpec checks
        for arr in (self.gradient, self.continuity_residuals,
                    self.jacobian_blocks, self.ineq_values):
            if not np.all(np.isfinite(arr)):
                raise AssemblyError("non-finite entry in QP data")

    @property
    def N(self) -> int:
        return self.jacobian_blocks.shape[0]

    @property
    def n_x(self) -> int:
        return self.jacobian_blocks.shape[1]

    @property
    def n_wk(self) -> int:
        return self.jacobian_blocks.shape[2]

    @property
    def n_r(self) -> int:
        return self.ineq_values.shape[1]

    @property
    def n_w(self) -> int:
        return self.N * self.n_wk + self.n_x

    @property
    def n_eq(self) -> int:
        return (self.N + 1) * self.n_x


def split_primal(dw: np.ndarray, N: int, n_x: int, n_u: int):
    """Split a stacked primal vector into (dxs, dus) node arrays."""
    nwk = n_x + n_u
    body = dw[:N * nwk].reshape(N, nwk)
    dxs = np.vstack([body[:, :n_x], dw[N * nwk:][None, :]])
    return dxs, body[:, n_x:]


def bound_rows(bound_index: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Rows ``(z_i, -z_i)`` of each bounded component, per node: the
    product of the inequality Jacobian with ``nodes`` (N, n_x+n_u)."""
    sel = nodes[:, bound_index, None] * np.array([1.0, -1.0])
    return sel.reshape(nodes.shape[0], -1)


def bound_rows_t(rows: np.ndarray) -> np.ndarray:
    """Transposed product of :func:`bound_rows` with per-node row values
    ``rows`` (N, n_r), on the bounded components only: (N, n_r/2)."""
    return rows[:, 0::2] - rows[:, 1::2]


def exact_gradient_rows(seeds: np.ndarray, fresh_mask: np.ndarray,
                        blocks: np.ndarray,
                        swept: Optional[np.ndarray]) -> np.ndarray:
    """Rows ``seed_k^T dphi_k`` with exact sensitivities.

    Nodes flagged in ``fresh_mask`` take a plain product with ``blocks``,
    which are exact there; the rest take the rows of ``swept``, the
    step's reverse sweep over every node, which is ``None`` when every
    node is fresh.
    """
    out = np.empty((blocks.shape[0], blocks.shape[2])) if swept is None \
        else swept.copy()
    if np.any(fresh_mask):
        out[fresh_mask] = np.einsum(
            'kx,kxw->kw', seeds[fresh_mask], blocks[fresh_mask])
    return out


def lagrangian_gradient(traj: Trajectory, nodes: np.ndarray,
                        mult: Multipliers, model: ModelSpec, refs: References,
                        lam_dphi: np.ndarray) -> np.ndarray:
    """Stacked gradient of the problem Lagrangian with exact sensitivities.

    ``nodes`` is ``traj.nodes()``; ``lam_dphi`` holds the exact rows
    ``lam_{k+1}^T dphi_k``.
    """
    N, n_x = traj.horizon, model.n_x
    ref_nodes = np.concatenate([refs.xs[:-1], refs.us], axis=1)
    g_nodes = model.stage_weights * (nodes - ref_nodes) + lam_dphi
    # embedding (+lam_0 on x_0) and continuity (-lam_k on x_k)
    g_nodes[0, :n_x] += mult.lam[0]
    g_nodes[1:, :n_x] -= mult.lam[1:N]
    g_term = model.terminal_weights * (traj.xs[-1] - refs.xs[-1]) \
        - mult.lam[N]
    g_nodes[:, model.bound_index] += bound_rows_t(mult.mu)
    return np.concatenate([g_nodes.ravel(), g_term])


def build_qp(traj: Trajectory, mult: Multipliers, x_hat: np.ndarray,
             blocks: np.ndarray, model: ModelSpec, refs: References,
             phis: np.ndarray, lam_dphi: np.ndarray) -> QPData:
    """Assemble the QP subproblem at the current iterate.

    Parameters
    ----------
    blocks :
        Sensitivity blocks (N, n_x, n_x+n_u) placed in the equality rows;
        they may be stale.
    phis :
        Integration values at the trajectory nodes. They must always be
        current, only Jacobians may be stale.
    lam_dphi :
        Exact rows ``lam_{k+1}^T dphi_k`` (:func:`exact_gradient_rows`).
    """
    N, n_x = traj.horizon, model.n_x
    x_hat = np.asarray(x_hat, dtype=float)
    if x_hat.shape != (n_x,):
        raise AssemblyError("measurement has wrong dimension")
    nodes = traj.nodes()
    gradient = lagrangian_gradient(traj, nodes, mult, model, refs, lam_dphi)
    resid = np.empty((N + 1, n_x))
    resid[0] = traj.xs[0] - x_hat
    resid[1:] = phis - traj.xs[1:]
    ineq_values = bound_rows(model.bound_index, nodes) \
        - np.repeat(model.bound_limit, 2)
    return QPData(
        stage_hessian=model.stage_weights,
        term_hessian=model.terminal_weights, gradient=gradient,
        continuity_residuals=resid, jacobian_blocks=blocks,
        bound_index=model.bound_index, ineq_values=ineq_values,
        lam=mult.lam, mu=mult.mu)


def apply_step(traj: Trajectory, sol):
    """The next iterate ``(trajectory, multipliers)``: ``traj`` moved by
    the QP's primal step, and the QP's multipliers as they are."""
    dxs, dus = split_primal(sol.dw, traj.horizon, traj.xs.shape[1],
                            traj.us.shape[1])
    return (Trajectory(traj.xs + dxs, traj.us + dus),
            Multipliers(sol.lam, sol.mu))
