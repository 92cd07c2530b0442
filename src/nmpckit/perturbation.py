"""Sensitivity of the subproblem solution to Jacobian perturbations.

The subproblem's primal-dual solution, viewed as a function of the error
``P`` between stored and exact continuity Jacobian blocks, admits a
first-order expansion around the exact-Jacobian solution. This module
assembles the square matrix ``M`` (the KKT map differentiated in the
solution triple), derives from its spectrum the conditioning constants
used by the threshold rule (computed once per scenario, from its nominal
subproblem, never inside a controller instant), and measures the actual
distance to the fully-updated optimum by re-solving the subproblem with
exact blocks.

``M`` is a sparse matrix in stage order: rows and columns both run
``(lam_k, w_k, mu_k)`` for k < N, then ``(lam_N, x_N)``, so every
stage couples only to its neighbours and ``M`` is banded. Only the
singular values of ``M`` are read, and a permutation of rows or columns
leaves them unchanged, so nothing depends on the order. The spectrum
comes from the eigenvalues of the Gram matrix ``M'M``, which is banded
as well and goes to LAPACK's symmetric band eigensolver. Squaring the
spectrum costs accuracy in the smallest singular values, which the
constants need only above the Gram's rounding floor: when the smallest
eigenvalue sits at that floor, the dense ``svdvals`` decides instead.
"""

from dataclasses import replace

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.linalg.lapack import dsbev

from .errors import NearSingularMatrixError
from .qp_solver import QPSolution, solve
from .transcription import QPData, bound_rows

# the Gram route cannot resolve eigenvalues below its rounding floor,
# about eps * lambda_max; this factor keeps a margin above that floor
_GRAM_FLOOR = 100.0 * np.finfo(float).eps


def _inequality_at_solution(qp: QPData, sol: QPSolution) -> np.ndarray:
    """Values ``C_j + grad C_j . dw`` of the linearized inequalities."""
    N, nwk = qp.N, qp.n_wk
    body = sol.dw[:N * nwk].reshape(N, nwk)
    return (qp.ineq_values + bound_rows(qp.bound_index, body)).ravel()


def _dense_blocks(rows, cols, vals):
    """Triplets of the blocks ``vals[b]`` at corners ``(rows[b], cols[b])``."""
    _, r, c = vals.shape
    i = rows[:, None, None] + np.arange(r)[:, None]
    j = cols[:, None, None] + np.arange(c)
    return (np.broadcast_to(i, vals.shape).ravel(),
            np.broadcast_to(j, vals.shape).ravel(), vals.ravel())


def _entries(rows, cols, vals):
    """Triplets of single entries, broadcast to one shape."""
    rows, cols, vals = np.broadcast_arrays(rows, cols, vals)
    return rows.ravel(), cols.ravel(), vals.ravel()


def _diagonal_blocks(rows, cols, vals):
    """Triplets of the diagonal blocks ``diag(vals[b])``."""
    d = np.arange(vals.shape[1])
    return ((rows[:, None] + d).ravel(), (cols[:, None] + d).ravel(),
            vals.ravel())


def build_m(qp: QPData, sol: QPSolution) -> scipy.sparse.csr_array:
    """Square subproblem matrix at the solution, sparse, in stage order.

    Rows and columns both run ``(lam_k, w_k, mu_k)`` for k < N, then
    ``(lam_N, x_N)``. Row blocks are, per stage, the equality rows, the
    stationarity rows and the complementarity rows; column blocks the
    matching solution components. Complementarity rows carry the
    inequality multipliers at the solution and the linearized bound
    values. Only nonzero entries are stored.
    """
    N, n_x, nwk, n_r = qp.N, qp.n_x, qp.n_wk, qp.n_r
    stage = n_x + nwk + n_r
    n = N * stage + 2 * n_x
    lam = stage * np.arange(N + 1)       # block corners; w_N is x_N
    w, mu = lam + n_x, lam[:N] + n_x + nwk
    J = qp.jacobian_blocks
    # multipliers and linearized bound values at the solution
    z = qp.mu + sol.dmu.reshape(N, n_r)
    c = _inequality_at_solution(qp, sol).reshape(N, n_r)
    # bound row r of a stage reads component comp[r] with sign[r]
    comp = np.repeat(qp.bound_index, 2)
    sign = np.tile([1.0, -1.0], qp.bound_index.size)
    r = np.arange(n_r)
    t = slice(N, N + 1)                  # the terminal stage
    eye = np.full((N + 1, n_x), -1.0)    # continuity -I ...
    eye[0] = 1.0                         # ... and the embedding +I
    parts = [
        # equality rows: [J_{k-1}, -I], and +I on x_0 in the first
        _dense_blocks(lam[1:], w[:N], J),
        _diagonal_blocks(lam, w, eye),
        # stationarity rows: the diagonal H, then the transposed equality
        # and bound Jacobians
        _diagonal_blocks(w[:N], w[:N], qp.stage_hessians),
        _diagonal_blocks(w[t], w[t], qp.term_hessian[None]),
        _diagonal_blocks(w, lam, eye),
        _dense_blocks(w[:N], lam[1:], J.transpose(0, 2, 1)),
        _entries(w[:N, None] + comp, mu[:, None] + r, sign),
        # complementarity rows: -z C and -diag(c)
        _entries(mu[:, None] + r, w[:N, None] + comp, -z * sign),
        _diagonal_blocks(mu, mu, -c),
    ]
    i, j, v = (np.concatenate(p) for p in zip(*parts))
    keep = v != 0.0
    return scipy.sparse.csr_array((v[keep], (i[keep], j[keep])), shape=(n, n))


def _gram_eigenvalues(M) -> np.ndarray:
    """Eigenvalues of ``M'M``, ascending, from its lower band.

    The band width is read off the Gram's sparsity, so the stage order of
    :func:`build_m` keeps it narrow.
    """
    gram = scipy.sparse.tril(M.T @ M, format="coo")
    lag = gram.row - gram.col
    ab = np.zeros((int(lag.max()) + 1, M.shape[0]), order="F")
    ab[lag, gram.col] = gram.data
    eigs, _, info = dsbev(ab, compute_v=0, lower=1, overwrite_ab=1)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"banded Gram eigenvalues did not converge (dsbev info {info})")
    return eigs


def singular_values(M) -> np.ndarray:
    """Full spectrum of a dense or sparse square matrix, descending.

    A sparse matrix goes through the banded Gram route; the dense
    ``svdvals`` runs only when the Gram cannot tell its smallest
    eigenvalue from zero, or when ``M`` is handed in dense.
    """
    if scipy.sparse.issparse(M):
        eigs = _gram_eigenvalues(M)
        if eigs[0] > _GRAM_FLOOR * eigs[-1]:
            return np.sqrt(eigs)[::-1]
        M = M.toarray()
    return scipy.linalg.svdvals(M)


def conditioning_constants(M):
    """Constants ``(rho, gamma)`` from the subproblem spectrum; the
    automatic ``cmon`` thresholds read them, computed once per scenario
    (``schemes.subproblem_constants``).

    ``rho`` is the reciprocal smallest singular value; ``gamma`` is one
    plus the spread of the inverse spectrum. ``M`` may be dense or sparse.
    """
    sigma = singular_values(M)
    smin = float(sigma[-1])
    if smin < 1e-12:
        raise NearSingularMatrixError(
            f"subproblem matrix numerically singular (sigma_min {smin:.3e})",
            sigma_min=smin)
    rho = 1.0 / smin
    gamma = float(np.std(1.0 / sigma)) + 1.0
    return rho, gamma


def measure_dto(qp: QPData, sol: QPSolution, exact_blocks: np.ndarray,
                tol: float = 1e-8):
    """Re-solve the subproblem with exact blocks and compare solutions.

    Returns ``(e, active_match)``: the distance over the stacked ``(dw,
    dmu, dlam)`` triple, and whether both solves agree on the binding
    inequalities, which is the regime where the tolerance bound applies.
    """
    qp_exact = replace(qp, jacobian_blocks=np.asarray(exact_blocks, dtype=float))
    sol_exact = solve(qp_exact, tol=tol)
    e = float(np.linalg.norm(sol.stacked() - sol_exact.stacked()))
    match = bool(np.array_equal(sol.active_set, sol_exact.active_set))
    return e, match
