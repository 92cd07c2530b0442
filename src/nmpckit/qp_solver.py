"""Interior-point solver for the stage-structured QP subproblems.

A Mehrotra predictor-corrector iteration runs on top of a pluggable KKT
backend. The stage backend keeps the variables in stage order
``[w_0, ..., w_{N-1}, x_N]`` and eliminates them: with the block-diagonal
``Hbar = H + C' W C`` (W the interior-point weights) the dual Schur
complement ``Y = A Hbar^-1 A'`` is block tridiagonal with N + 1 blocks of
size n_x, symmetric positive definite, and factored by one LAPACK banded
Cholesky with bandwidth ``2 n_x - 1``. The stage Hessians are Gauss-Newton
blocks with nonnegative weights, lifted by a small floor where singular,
so every ``Hbar_k`` is positive definite. A dense backend serves generic
small QPs and doubles as an oracle path in tests.

The stage solver consumes the Lagrangian-gradient form of the subproblem
and returns *increments* for the primal variables and both multiplier
sets, converting internally to the equivalent total-multiplier QP.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

from .errors import QPInfeasibleError, QPNonconvergenceError
from .transcription import QPData

_HESS_REG_FLOOR = 1e-9
_ACTIVE_MU = 1e-6
_ACTIVE_SLACK = 1e-6
_MU_TRUNCATE = 1e-10


@dataclass
class QPSolution:
    """Increments for primal variables and multipliers plus diagnostics."""

    dw: np.ndarray
    dlam: np.ndarray
    dmu: np.ndarray
    active_set: np.ndarray
    kkt_residual: float
    iterations: int

    def stacked(self) -> np.ndarray:
        """Stacked increment triple ``(dw, dmu, dlam)``."""
        return np.concatenate([self.dw, self.dmu, self.dlam])


# ---------------------------------------------------------------------------
# Mehrotra driver over an abstract KKT backend
# ---------------------------------------------------------------------------

def _mehrotra(backend, tol, max_iter=100, start_scale=1.0):
    """Predictor-corrector iteration; returns (x, y, z, res, iters)."""
    g, b, d = backend.g, backend.b, backend.d
    m_in = d.shape[0]

    handle = backend.factor(None)
    dx, dy = backend.solve2(handle, -g, b)
    x, y = dx, dy
    if m_in == 0:
        res = _residuals(backend, x, y, np.zeros(0), np.zeros(0))
        for _ in range(3):
            if res <= tol:
                return x, y, np.zeros(0), res, 1
            r_d = backend.hmv(x) + g + backend.atmv(y)
            r_p = backend.amv(x) - b
            cx, cy = backend.solve2(handle, -r_d, -r_p)
            x, y = x + cx, y + cy
            res = _residuals(backend, x, y, np.zeros(0), np.zeros(0))
        if res > tol:
            raise QPNonconvergenceError(
                f"equality-constrained solve stalled at residual {res:.3e}",
                best_residual=res)
        return x, y, np.zeros(0), res, 1

    s_raw = d - backend.cmv(x)
    shift = max(1e-1, -1.5 * float(s_raw.min(initial=0.0)))
    s = (s_raw + shift) * start_scale
    z = np.full(m_in, max(1.0, shift) * start_scale)

    best = np.inf
    best_iter = 0
    handle0 = handle
    last_attempt = -10
    for it in range(1, max_iter + 1):
        r_d = backend.hmv(x) + g + backend.atmv(y) + backend.ctmv(z)
        r_p = backend.amv(x) - b
        r_g = backend.cmv(x) + s - d
        comp = s * z
        res = max(np.linalg.norm(r_d), np.linalg.norm(r_p),
                  np.linalg.norm(r_g), comp.max(initial=0.0))
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
        ds = -r_g - backend.cmv(dx)
        dz = w * backend.cmv(dx) + w * r_g - z
        a_p = _max_step(s, ds)
        a_d = _max_step(z, dz)
        mu_aff = ((s + a_p * ds) @ (z + a_d * dz)) / m_in
        sigma = (max(mu_aff, 0.0) / mu) ** 3 if mu > 0 else 0.0

        # corrector with centering
        rsz = ds * dz - sigma * mu
        rhs1 = -r_d - backend.ctmv(w * r_g - z - rsz / s)
        dx, dy = backend.solve2(handle, rhs1, -r_p)
        ds = -r_g - backend.cmv(dx)
        dz = w * backend.cmv(dx) + w * r_g - z - rsz / s
        tau = 0.9995 if mu < 1e-6 else 0.995
        a_p = min(1.0, tau * _max_step(s, ds))
        a_d = min(1.0, tau * _max_step(z, dz))
        x = x + a_p * dx
        s = s + a_p * ds
        y = y + a_d * dy
        z = z + a_d * dz
    _raise_failure(best, z, r_p, r_g)


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
    """Newton polish on a tentative active set via a Schur complement.

    Solves the equality-constrained KKT system exactly and verifies signs
    and feasibility; returns None when the tentative set is wrong.
    """
    g, b, d = backend.g, backend.b, backend.d
    idx = np.flatnonzero(act)

    if idx.size:
        vxs, vys = [], []
        for i in idx:
            e = np.zeros(d.shape[0])
            e[i] = 1.0
            vx, vy = backend.solve2(handle0, backend.ctmv(e), np.zeros_like(b))
            vxs.append(vx)
            vys.append(vy)
        vxs = np.array(vxs)
        vys = np.array(vys)
        S = np.array([backend.cmv(vx)[idx] for vx in vxs]).T

        def step(r1, r2, r3):
            vx0, vy0 = backend.solve2(handle0, r1, r2)
            rhs = backend.cmv(vx0)[idx] - r3
            try:
                dza = np.linalg.solve(S, rhs)
            except np.linalg.LinAlgError:
                dza, *_ = np.linalg.lstsq(S, rhs, rcond=None)
            return vx0 - vxs.T @ dza, vy0 - vys.T @ dza, dza
    else:
        def step(r1, r2, r3):
            vx0, vy0 = backend.solve2(handle0, r1, r2)
            return vx0, vy0, np.zeros(0)

    def full_residual(x, y, za):
        slack = d - backend.cmv(x)
        return _residuals(backend, x, y, _embed(za, idx, d.shape[0]),
                          np.clip(slack, 0.0, None))

    x, y, za = step(-g, b, d[idx])
    best = (full_residual(x, y, za), x, y, za)
    for _ in range(4):
        if best[0] <= 0.25 * tol:
            break
        r1 = -(backend.hmv(x) + g + backend.atmv(y)
               + backend.ctmv(_embed(za, idx, d.shape[0])))
        r2 = b - backend.amv(x)
        r3 = d[idx] - backend.cmv(x)[idx]
        cx, cy, cz = step(r1, r2, r3)
        x, y, za = x + cx, y + cy, za + cz
        res = full_residual(x, y, za)
        if res < best[0]:
            best = (res, x, y, za)
    res, x, y, za = best

    scale = 1e-9 * (1.0 + float(np.abs(za).max(initial=0.0)))
    if za.min(initial=0.0) < -scale:
        return None
    za = np.clip(za, 0.0, None)
    slack = d - backend.cmv(x)
    if slack.min(initial=0.0) < -1e-9:
        return None
    z = _embed(za, idx, d.shape[0])
    res = _residuals(backend, x, y, z, np.clip(slack, 0.0, None))
    if res > tol:
        return None
    return x, y, z, res


def _embed(za, idx, m):
    z = np.zeros(m)
    z[idx] = za
    return z


def _max_step(v, dv):
    neg = dv < 0
    if not np.any(neg):
        return 1.0
    return min(1.0, float((-v[neg] / dv[neg]).min()))


def _residuals(backend, x, y, z, s):
    r_d = backend.hmv(x) + backend.g + backend.atmv(y)
    if z.size:
        r_d = r_d + backend.ctmv(z)
    r_p = backend.amv(x) - backend.b
    res = max(np.linalg.norm(r_d), np.linalg.norm(r_p))
    if z.size:
        r_g = backend.cmv(x) + s - backend.d
        res = max(res, np.linalg.norm(r_g), (s * z).max(initial=0.0))
    return res


# ---------------------------------------------------------------------------
# dense backend (generic QPs, oracle path)
# ---------------------------------------------------------------------------

class _DenseBackend:
    def __init__(self, H, g, A, b, C, d):
        self.H = np.atleast_2d(np.asarray(H, dtype=float))
        self.g = np.asarray(g, dtype=float)
        n = self.g.shape[0]
        self.A = np.asarray(A, dtype=float).reshape(-1, n)
        self.b = np.asarray(b, dtype=float)
        self.C = np.asarray(C, dtype=float).reshape(-1, n)
        self.d = np.asarray(d, dtype=float)
        w_eig = np.linalg.eigvalsh(self.H)
        if n and w_eig.min() < _HESS_REG_FLOOR:
            self.H = self.H + _HESS_REG_FLOOR * np.eye(n)

    def hmv(self, x):
        return self.H @ x

    def amv(self, x):
        return self.A @ x

    def atmv(self, y):
        return self.A.T @ y

    def cmv(self, x):
        return self.C @ x

    def ctmv(self, z):
        return self.C.T @ z

    def factor(self, w):
        n, m = self.g.shape[0], self.b.shape[0]
        Hbar = self.H.copy()
        if w is not None and w.size:
            Hbar += (self.C.T * w) @ self.C
        K = np.zeros((n + m, n + m))
        K[:n, :n] = Hbar
        K[:n, n:] = self.A.T
        K[n:, :n] = self.A
        return lu_factor(K), w

    def solve2(self, handle, r1, r2):
        lu, w = handle
        n = self.g.shape[0]
        sol = lu_solve(lu, np.concatenate([r1, r2]))
        dx, dy = sol[:n], sol[n:]
        # one refinement pass against the augmented system
        res1 = r1 - self.hmv(dx) - self.atmv(dy)
        if w is not None and w.size:
            res1 -= self.ctmv(w * self.cmv(dx))
        res2 = r2 - self.amv(dx)
        corr = lu_solve(lu, np.concatenate([res1, res2]))
        return dx + corr[:n], dy + corr[n:]


def solve_dense(H, g, A, b, C, d, tol=1e-8, start_scale=1.0):
    """Solve a generic dense QP ``min 1/2 x'Hx + g'x, Ax = b, Cx <= d``.

    Returns ``(x, y, z, info)`` with equality/inequality multipliers in the
    ``+A'y + C'z`` stationarity convention and an info dict carrying the
    final residual and iteration count.
    """
    backend = _DenseBackend(H, g, A, b, C, d)
    x, y, z, res, iters = _mehrotra(backend, tol, start_scale=start_scale)
    return x, y, z, {"residual": res, "iterations": iters}


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
    module docstring). A singular ``Hbar_k``, or a ``Y`` that is not
    positive definite (a nonconvex stage), raises
    :class:`QPNonconvergenceError`.
    """

    def __init__(self, qp: QPData):
        self.qp = qp
        N, n_x, nwk = qp.N, qp.n_x, qp.n_wk
        self.N, self.n_x, self.nwk = N, n_x, nwk

        # regularized Hessian blocks
        stage_h = qp.stage_hessians
        eigs = np.linalg.eigvalsh(stage_h)
        self.stage_h = stage_h.copy()
        bad = eigs.min(axis=-1) < _HESS_REG_FLOOR
        if np.any(bad):
            self.stage_h[bad] += _HESS_REG_FLOOR * np.eye(nwk)
        self.term_h = qp.term_hessian.copy()
        if np.linalg.eigvalsh(self.term_h).min() < _HESS_REG_FLOOR:
            self.term_h = self.term_h + _HESS_REG_FLOOR * np.eye(n_x)

        self.g = _modified_gradient(qp)
        self.b = -qp.continuity_residuals.ravel()
        d_stage = -qp.ineq_values.ravel()
        self.d = np.concatenate([d_stage, -qp.term_ineq_values])

    def hmv(self, x):
        N, n_x, nwk = self.N, self.n_x, self.nwk
        body = x[:N * nwk].reshape(N, nwk)
        out = np.empty_like(x)
        out[:N * nwk] = np.einsum('kab,kb->ka', self.stage_h, body).ravel()
        out[N * nwk:] = self.term_h @ x[N * nwk:]
        return out

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
        qp = self.qp
        N, n_x, nwk = self.N, self.n_x, self.nwk
        lam = y.reshape(N + 1, n_x)
        out = np.zeros(qp.n_w)
        body = out[:N * nwk].reshape(N, nwk)
        body += np.einsum('kxw,kx->kw', qp.jacobian_blocks, lam[1:])
        body[0, :n_x] += lam[0]
        body[1:, :n_x] -= lam[1:N]
        out[N * nwk:] -= lam[N]
        return out

    def cmv(self, x):
        qp = self.qp
        N, nwk = self.N, self.nwk
        body = x[:N * nwk].reshape(N, nwk)
        vals = np.einsum('krw,kw->kr', qp.ineq_jac, body).ravel()
        if qp.n_l:
            vals = np.concatenate([vals, qp.term_ineq_jac @ x[N * nwk:]])
        return vals

    def ctmv(self, z):
        qp = self.qp
        N, n_r, nwk = self.N, qp.n_r, self.nwk
        out = np.zeros(qp.n_w)
        body = out[:N * nwk].reshape(N, nwk)
        zz = z[:N * n_r].reshape(N, n_r)
        body += np.einsum('krw,kr->kw', qp.ineq_jac, zz)
        if qp.n_l:
            out[N * nwk:] += qp.term_ineq_jac.T @ z[N * n_r:]
        return out

    def factor(self, w):
        qp = self.qp
        N, n_x = self.N, self.n_x
        stage, term = self.stage_h, self.term_h
        if w is not None and w.size:
            n_r = qp.n_r
            wk = w[:N * n_r].reshape(N, n_r)
            cjt = qp.ineq_jac.transpose(0, 2, 1)
            stage = stage + (cjt * wk[:, None, :]) @ qp.ineq_jac
            if qp.n_l:
                term = term + (qp.term_ineq_jac.T * w[N * n_r:]) \
                    @ qp.term_ineq_jac
        try:
            p_stage = np.linalg.inv(stage)
            p_term = np.linalg.inv(term)
        except np.linalg.LinAlgError:
            raise QPNonconvergenceError(
                "singular stage Hessian block in the KKT system") from None

        # stage k couples dual blocks k (through +-x_k) and k+1 (through
        # J_k); block column r of Y holds Y[r, r] and Y[r + 1, r]
        J = qp.jacobian_blocks
        pjt = p_stage @ J.transpose(0, 2, 1)
        cols = np.zeros((N + 1, 3 * n_x, n_x))
        cols[:N, :n_x] = p_stage[:, :n_x, :n_x]
        cols[1:, :n_x] += J @ pjt
        cols[N, :n_x] += p_term
        cols[:N, n_x:2 * n_x] = -pjt[:, :n_x].transpose(0, 2, 1)
        cols[0, n_x:2 * n_x] *= -1.0
        chol, info = _pbtrf(_lower_band(cols, 2 * n_x - 1), lower=1,
                            overwrite_ab=1)
        if info != 0:
            raise QPNonconvergenceError(
                "dual Schur complement of the KKT system is not positive "
                f"definite (banded Cholesky info {info})")
        return p_stage, p_term, chol, w

    def _hbar_solve(self, p_stage, p_term, r):
        N, nwk = self.N, self.nwk
        out = np.empty_like(r)
        out[:N * nwk] = np.einsum('kab,kb->ka', p_stage,
                                  r[:N * nwk].reshape(N, nwk)).ravel()
        out[N * nwk:] = p_term @ r[N * nwk:]
        return out

    def _raw_solve(self, handle, r1, r2):
        p_stage, p_term, chol, _ = handle
        t = self._hbar_solve(p_stage, p_term, r1)
        dy, _ = _pbtrs(chol, self.amv(t) - r2, lower=1)
        return self._hbar_solve(p_stage, p_term, r1 - self.atmv(dy)), dy

    def solve2(self, handle, r1, r2):
        *_, w = handle
        dx, dy = self._raw_solve(handle, r1, r2)
        res1 = r1 - self.hmv(dx) - self.atmv(dy)
        if w is not None and w.size:
            res1 -= self.ctmv(w * self.cmv(dx))
        res2 = r2 - self.amv(dx)
        cx, cy = self._raw_solve(handle, res1, res2)
        return dx + cx, dy + cy


def _modified_gradient(qp: QPData) -> np.ndarray:
    """Objective gradient of the equivalent total-multiplier QP.

    Subtracts the stale-Jacobian and inequality multiplier terms from the
    Lagrangian gradient, leaving the adjoint-corrected objective gradient.
    """
    N, n_x, nwk = qp.N, qp.n_x, qp.n_wk
    g = qp.gradient.copy()
    body = g[:N * nwk].reshape(N, nwk)
    body -= np.einsum('kxw,kx->kw', qp.jacobian_blocks, qp.lam[1:])
    body[0, :n_x] -= qp.lam[0]
    body[1:, :n_x] += qp.lam[1:N]
    g[N * nwk:] += qp.lam[N]
    if qp.n_r:
        body -= np.einsum('krw,kr->kw', qp.ineq_jac, qp.mu)
    if qp.n_l:
        g[N * nwk:] -= qp.term_ineq_jac.T @ qp.mu_term
    return g


def solve(qp: QPData, tol: float = 1e-8, start_scale: float = 1.0) -> QPSolution:
    """Solve the stage-structured subproblem to the given KKT tolerance.

    Returns increments ``(dw, dlam, dmu)`` relative to the multipliers
    stored in ``qp``; totals below the truncation threshold are zeroed
    before the increment conversion.
    """
    backend = _StageBackend(qp)
    x, y, z, res, iters = _mehrotra(backend, tol, start_scale=start_scale)
    z = z.copy()
    z[z < _MU_TRUNCATE] = 0.0
    mu_in = np.concatenate([qp.mu.ravel(), qp.mu_term])
    slack = backend.d - backend.cmv(x)
    active = (z > _ACTIVE_MU) | (slack < _ACTIVE_SLACK)
    return QPSolution(dw=x, dlam=y - qp.lam.ravel(), dmu=z - mu_in,
                      active_set=active, kkt_residual=res, iterations=iters)
