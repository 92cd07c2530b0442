"""Interior-point solver for the stage-structured QP subproblems.

A Mehrotra predictor-corrector iteration runs on the stage backend, which
keeps the variables in stage order ``[w_0, ..., w_{N-1}, x_N]`` and
eliminates them. The Gauss-Newton Hessian H is diagonal with nonnegative
weights, a block with an entry below a small floor is lifted by it, and
every inequality is a box bound on one component (its Jacobian C a signed
selection), so ``Hbar = H + C' W C`` (W the interior-point weights) is one
positive vector: H plus ``w+ + w-`` on the bounded components. Its
reciprocal eliminates the primal variables, and the dual Schur complement
``Y = A Hbar^-1 A'`` is block tridiagonal with N + 1 blocks of size n_x,
symmetric positive definite, and factored by one LAPACK banded Cholesky
with bandwidth ``2 n_x - 1``. Each KKT step is one banded solve without
refinement: the iteration measures its residuals with exact products, so
step accuracy affects the iteration count, not the answer.

Every solve opens with a polish on the empty active set: a Newton solve
on the first factor, checked for signs and feasibility. In a typical
subproblem no bound binds and that answers it; the interior point runs
only when this polish fails, and near convergence it polishes on a
guessed set. An active bound pins its component: the factor gives it an
infinite weight, so its entry of ``Hbar^-1`` is 0 and no step moves it,
and its multiplier is read off the component's stationarity row.

The stage solver consumes the Lagrangian-gradient form of the subproblem,
solves the equivalent total-multiplier QP, and returns the primal step
with the multipliers of the next iterate.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg import get_lapack_funcs

from .errors import QPInfeasibleError, QPNonconvergenceError
from .transcription import QPData, bound_rows, bound_rows_t

_HESS_REG_FLOOR = 1e-9
_ACTIVE_MU = 1e-6
_ACTIVE_SLACK = 1e-6
_MU_TRUNCATE = 1e-10
_MAX_ITER = 100


@dataclass
class QPSolution:
    """Primal step, next multipliers and diagnostics."""

    dw: np.ndarray          # (n_w,) primal step
    lam: np.ndarray         # (N+1, n_x) equality multipliers
    mu: np.ndarray          # (N, n_r) inequality multipliers, nonnegative
    active_set: np.ndarray
    iterations: int

    def stacked(self) -> np.ndarray:
        """Stacked solution triple ``(dw, mu, lam)``."""
        return np.concatenate([self.dw, self.mu.ravel(), self.lam.ravel()])


# ---------------------------------------------------------------------------
# Mehrotra driver over an abstract KKT backend
# ---------------------------------------------------------------------------

# an overflow surfaces as a non-finite residual, which ends the solve
@np.errstate(over="ignore", invalid="ignore")
def _mehrotra(backend, tol):
    """Empty-set polish, else Mehrotra; returns (x, y, z, res, iters)."""
    g, b, d = backend.g, backend.b, backend.d
    m_in = d.shape[0]

    handle0 = backend.factor(None)
    polished = _polish(backend, handle0, np.zeros(m_in, dtype=bool), tol)
    if polished is not None:
        return (*polished, 1)
    if m_in == 0:
        raise QPNonconvergenceError(
            "equality-constrained solve stalled above the tolerance")
    x, y = backend.solve2(handle0, -g, b)

    s_raw = d - backend.cmv(x)
    shift = max(1e-1, -1.5 * float(s_raw.min(initial=0.0)))
    s = s_raw + shift
    z = np.full(m_in, max(1.0, shift))

    best = np.inf
    best_iter = 0
    last_attempt = -10
    for it in range(1, _MAX_ITER + 1):
        r_d = backend.hmv(x) + g + backend.atmv(y) + backend.ctmv(z)
        r_p = backend.amv(x) - b
        r_g = backend.cmv(x) + s - d
        comp = s * z
        res = max(np.linalg.norm(r_d), np.linalg.norm(r_p),
                  np.linalg.norm(r_g), comp.max(initial=0.0))
        _check_finite(res)
        if res < 0.9 * best:
            best, best_iter = res, it
        if res <= tol:
            return x, y, z, res, it
        mu = comp.mean()
        if res <= max(1e-6, 10.0 * tol) and it - last_attempt >= 3:
            last_attempt = it
            for act in (z > s, s < np.sqrt(mu)):
                polished = _polish(backend, handle0, act, tol)
                if polished is not None:
                    xp, yp, zp, rp = polished
                    return xp, yp, zp, rp, it
        if it - best_iter > 15:
            _raise_failure(best, z, r_p, r_g)
        w = np.clip(z / s, 1e-16, 1e16)
        handle = backend.factor(w)

        # affine predictor
        rhs1 = -r_d - backend.ctmv(w * r_g - z)
        dx, dy = backend.solve2(handle, rhs1, -r_p)
        cdx = backend.cmv(dx)
        ds = -r_g - cdx
        dz = w * cdx + w * r_g - z
        a_p = _max_step(s, ds)
        a_d = _max_step(z, dz)
        mu_aff = ((s + a_p * ds) @ (z + a_d * dz)) / m_in
        sigma = (max(mu_aff, 0.0) / mu) ** 3 if mu > 0 else 0.0

        # corrector with centering
        rsz = ds * dz - sigma * mu
        rhs1 = -r_d - backend.ctmv(w * r_g - z - rsz / s)
        dx, dy = backend.solve2(handle, rhs1, -r_p)
        cdx = backend.cmv(dx)
        ds = -r_g - cdx
        dz = w * cdx + w * r_g - z - rsz / s
        tau = 0.9995 if mu < 1e-6 else 0.995
        a_p = min(1.0, tau * _max_step(s, ds))
        a_d = min(1.0, tau * _max_step(z, dz))
        x = x + a_p * dx
        s = s + a_p * ds
        y = y + a_d * dy
        z = z + a_d * dz
    _raise_failure(best, z, r_p, r_g)


def _check_finite(res):
    # finite data whose products overflow: no later iterate recovers
    if not np.isfinite(res):
        raise QPNonconvergenceError(
            "QP data overflowed: the KKT residual is not finite",
            best_residual=res)


def _raise_failure(best, z, r_p, r_g):
    if np.abs(z).max(initial=0.0) > 1e8 \
            and max(np.linalg.norm(r_p), np.linalg.norm(r_g)) > 1e-5:
        raise QPInfeasibleError(
            "interior-point iteration diverged; constraints look "
            f"inconsistent (best residual {best:.3e})", residual=best)
    raise QPNonconvergenceError(
        f"interior-point iteration stalled (best residual {best:.3e})",
        best_residual=best)


def _polish(backend, handle0, act, tol):
    """Newton solve with the active rows ``act`` pinned to their bounds.

    Each active row pins its component: one factor with an infinite weight
    on it zeroes that entry of ``Hbar^-1``, so every step from the pinned
    start keeps the component at its bound, and the row's multiplier is
    read off the component's stationarity row. Verifies signs and
    feasibility; returns None when the set is wrong or pins a singular
    system.
    """
    g, b, d = backend.g, backend.b, backend.d
    handle = handle0
    if act.any():
        try:
            handle = backend.factor(np.where(act, np.inf, 0.0))
        except QPNonconvergenceError:
            return None

    # the pinned start; y = 0, so A'y drops out of its stationarity
    x, y = backend.ctmv(np.where(act, d, 0.0)), np.zeros_like(b)
    r_d = backend.hmv(x) + g
    r_p = backend.amv(x) - b
    best = None
    for _ in range(5):
        dx, dy = backend.solve2(handle, -r_d, -r_p)
        x, y = x + dx, y + dy
        r_d = backend.hmv(x) + g + backend.atmv(y)
        r_p = backend.amv(x) - b
        cx = backend.cmv(x)
        z = np.where(act, -backend.cmv(r_d), 0.0)
        slack = d - cx
        res = _residuals(backend, r_d, r_p, cx, np.clip(z, 0.0, None),
                         np.clip(slack, 0.0, None))
        if best is None or res < best[0]:
            best = (res, x, y, z, slack)
        if best[0] <= 0.25 * tol:
            break
    res, x, y, z, slack = best

    scale = 1e-9 * (1.0 + float(np.abs(z).max(initial=0.0)))
    if z.min(initial=0.0) < -scale or slack.min(initial=0.0) < -1e-9 \
            or not res <= tol:
        return None
    return x, y, np.clip(z, 0.0, None), res


def _max_step(v, dv):
    neg = dv < 0
    if not np.any(neg):
        return 1.0
    return min(1.0, float((-v[neg] / dv[neg]).min()))


def _residuals(backend, r_d, r_p, cx, z, s):
    """KKT residual of a point with bound multipliers ``z`` and slacks
    ``s``, from its stationarity residual ``r_d`` without the bound terms,
    its equality residual ``r_p`` and its bound rows ``cx``."""
    r_d = r_d + backend.ctmv(z)
    r_g = cx + s - backend.d
    return max(np.linalg.norm(r_d), np.linalg.norm(r_p),
               np.linalg.norm(r_g), (s * z).max(initial=0.0))


# ---------------------------------------------------------------------------
# stage backend: banded Cholesky of the dual Schur complement
# ---------------------------------------------------------------------------

_pbtrf, _pbtrs = get_lapack_funcs(('pbtrf', 'pbtrs'), dtype=np.float64)


def _lower_band(cols, kd):
    """LAPACK lower band storage ``ab[i - j, j]`` of a symmetric matrix.

    ``cols`` (m, h, bs) holds the m block columns of width bs, each from
    its diagonal block down, with h >= bs + kd rows (zero-padded). The
    result is Fortran-ordered, so LAPACK takes it without a copy.
    """
    m, _, bs = cols.shape
    s_r, s_i, s_j = cols.strides
    # skewed view: diag[r, t, b] = cols[r, b + t, b]
    diag = as_strided(cols, shape=(m, kd + 1, bs),
                      strides=(s_r, s_i, s_i + s_j), writeable=False)
    return diag.transpose(0, 2, 1).reshape(m * bs, kd + 1).T


class _StageBackend:
    """KKT backend for stage-structured QP data.

    Solves through the dual Schur complement ``Y = A Hbar^-1 A'`` (see the
    module docstring). A ``Hbar`` entry that is not positive, or a ``Y``
    that is not positive definite (a nonconvex stage), raises
    :class:`QPNonconvergenceError`.
    """

    def __init__(self, qp: QPData):
        self.qp = qp
        N, n_x, nwk = qp.N, qp.n_x, qp.n_wk
        self.N, self.n_x, self.nwk = N, n_x, nwk

        # regularized Hessian diagonal: a block whose smallest entry is
        # below the floor is lifted by the floor as a whole
        stage_h, term_h = (h + _HESS_REG_FLOOR if h.min() < _HESS_REG_FLOOR
                           else h for h in (qp.stage_hessian, qp.term_hessian))
        self.h = np.concatenate([np.tile(stage_h, N), term_h])

        # objective gradient of the equivalent total-multiplier QP: the
        # Lagrangian gradient less A'lam and C'mu (negation is exact)
        self.g = qp.gradient.copy()
        self._add_atmv(self.g, -qp.lam.ravel())
        self._add_ctmv(self.g, -qp.mu.ravel())
        self.b = -qp.continuity_residuals.ravel()
        self.d = -qp.ineq_values.ravel()

    def hmv(self, x):
        return self.h * x

    def amv(self, x):
        qp = self.qp
        N, n_x, nwk = self.N, self.n_x, self.nwk
        body = x[:N * nwk].reshape(N, nwk)
        out = np.empty(qp.n_eq)
        out[:n_x] = x[:n_x]
        cont = np.einsum('kxw,kw->kx', qp.jacobian_blocks, body)
        nxt = np.vstack([body[1:, :n_x], x[N * nwk:][None, :]])
        out[n_x:] = (cont - nxt).ravel()
        return out

    def atmv(self, y):
        out = np.zeros(self.qp.n_w)
        self._add_atmv(out, y)
        return out

    def _add_atmv(self, out, y):
        """``out += A' y``."""
        N, n_x, nwk = self.N, self.n_x, self.nwk
        lam = y.reshape(N + 1, n_x)
        body = out[:N * nwk].reshape(N, nwk)
        body += np.einsum('kxw,kx->kw', self.qp.jacobian_blocks, lam[1:])
        body[0, :n_x] += lam[0]
        body[1:, :n_x] -= lam[1:N]
        out[N * nwk:] -= lam[N]

    def cmv(self, x):
        N, nwk = self.N, self.nwk
        return bound_rows(self.qp.bound_index,
                          x[:N * nwk].reshape(N, nwk)).ravel()

    def ctmv(self, z):
        out = np.zeros(self.qp.n_w)
        self._add_ctmv(out, z)
        return out

    def _add_ctmv(self, out, z):
        """``out += C' z``."""
        N, nwk = self.N, self.nwk
        out[:N * nwk].reshape(N, nwk)[:, self.qp.bound_index] += \
            bound_rows_t(z.reshape(N, -1))

    def factor(self, w):
        """Factor of ``Y`` with the weights ``w`` (None for none) in Hbar.

        An infinite weight pins its component: its entry of ``Hbar^-1``
        is 0, so no step moves it.
        """
        N, n_x, nwk = self.N, self.n_x, self.nwk
        hbar = self.h
        if w is not None and w.size:
            # C'WC is diagonal: the weights of a bound's two rows add up
            wk = w.reshape(N, -1)
            hbar = hbar.copy()
            hbar[:N * nwk].reshape(N, nwk)[:, self.qp.bound_index] += \
                wk[:, 0::2] + wk[:, 1::2]
        if not hbar.min() > 0.0:
            raise QPNonconvergenceError(
                "stage Hessian of the KKT system is not positive")
        p = 1.0 / hbar
        p_stage = p[:N * nwk].reshape(N, nwk)

        # stage k couples dual blocks k (through +-x_k) and k+1 (through
        # J_k); block column r of Y holds Y[r, r] and Y[r + 1, r]
        J = self.qp.jacobian_blocks
        pjt = np.ascontiguousarray(
            (J * p_stage[:, None, :]).transpose(0, 2, 1))
        cols = np.zeros((N + 1, 3 * n_x, n_x))
        diag = cols.reshape(N + 1, -1)[:, :n_x * n_x:n_x + 1]
        diag[:N] = p_stage[:, :n_x]
        cols[1:, :n_x] += J @ pjt
        diag[N] += p[N * nwk:]
        cols[:N, n_x:2 * n_x] = -pjt[:, :n_x].transpose(0, 2, 1)
        cols[0, n_x:2 * n_x] *= -1.0
        chol, info = _pbtrf(_lower_band(cols, 2 * n_x - 1), lower=1,
                            overwrite_ab=1)
        if info != 0:
            raise QPNonconvergenceError(
                "dual Schur complement of the KKT system is not positive "
                f"definite (banded Cholesky info {info})")
        return p, chol

    def solve2(self, handle, r1, r2):
        """KKT step ``(dx, dy)`` of ``Hbar dx + A' dy = r1``, ``A dx = r2``
        from one banded solve, unrefined (see the module docstring)."""
        p, chol = handle
        dy, _ = _pbtrs(chol, self.amv(p * r1) - r2, lower=1)
        return p * (r1 - self.atmv(dy)), dy


def solve(qp: QPData, tol: float = 1e-8) -> QPSolution:
    """Solve the stage-structured subproblem to the given KKT tolerance.

    Returns the primal step ``dw`` and the total multipliers ``lam`` and
    ``mu``; inequality multipliers below the truncation threshold are
    zeroed, so every ``mu`` is nonnegative.
    """
    backend = _StageBackend(qp)
    x, y, z, _, iters = _mehrotra(backend, tol)
    z[z < _MU_TRUNCATE] = 0.0
    slack = backend.d - backend.cmv(x)
    active = (z > _ACTIVE_MU) | (slack < _ACTIVE_SLACK)
    return QPSolution(dw=x, lam=y.reshape(qp.N + 1, qp.n_x),
                      mu=z.reshape(qp.N, qp.n_r), active_set=active,
                      iterations=iters)
