"""Shared fixtures for the test suite."""
import pathlib

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from nmpckit import integrator as intg
from nmpckit import harness, models, perturbation as pert, qp_solver
from nmpckit import transcription as trc

SCENARIO_DIR = pathlib.Path(__file__).resolve().parents[1] / "scenarios"


@pytest.fixture(scope="session")
def pendulum():
    return models.make_pendulum_model()


@pytest.fixture(scope="session")
def chain():
    return models.make_chain_model()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def jacobians(model, x, u):
    """``(f_x, f_u)`` at ``(x, u)``: views of a zeroed array that one
    ``rhs_jacobians`` call filled."""
    batch = np.broadcast_shapes(np.shape(x)[:-1], np.shape(u)[:-1])
    out = np.zeros(batch + (model.n_x, model.n_x + model.n_u))
    model.rhs_jacobians(x, u, out)
    return split(model, out)


def split(model, record):
    """The ``f_x`` and ``f_u`` views of a stage-Jacobian record."""
    return record[..., :model.n_x], record[..., model.n_x:]


def stage_record(model, x, u, cfg):
    """End states and the stage-Jacobian record, zeroed before
    ``stage_jacobians`` filled it, from one RK4 pass."""
    phi, stages = intg.integrate_batch(model, x, u, cfg)
    out = np.zeros(stages.shape[:-1] + (model.n_x, model.n_x + model.n_u))
    return phi, intg.stage_jacobians(model, stages, u, out)


def sensitivities(model, x, u, cfg):
    """End states and forward sensitivity blocks from one RK4 pass."""
    phi, record = stage_record(model, x, u, cfg)
    return phi, intg.forward_sensitivity_batch(model, record, cfg)


def adjoint(model, x, u, cfg, seeds):
    """Adjoint rows ``seed^T dphi`` from one RK4 pass."""
    record = stage_record(model, x, u, cfg)[1]
    return sweep(model, record, cfg, seeds)


def sweep(model, record, cfg, seeds):
    """``integrator.adjoint_batch`` over ``record`` into a fresh array."""
    seeds = np.asarray(seeds, dtype=float)
    out = np.empty(seeds.shape[:-1] + (model.n_x + model.n_u,))
    return intg.adjoint_batch(model, record, cfg, out, seeds)


def reference_integrate(model, x, u, cfg):
    """Textbook RK4 recurrence with a fresh array per operation: the end
    states and the stacked stage states, as ``integrate_batch`` returns
    them."""
    x = np.array(x, dtype=float)
    u = np.asarray(u, dtype=float)
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
        stages += (s1, s2, s3, s4)
    return x, np.stack(stages, axis=-2)


def reference_forward_sensitivity(model, jac_x, jac_u, cfg):
    """Textbook variational RK4 over a stage Jacobian record, with a fresh
    array per operation."""
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


def reference_adjoint(model, jac_x, jac_u, cfg, seeds):
    """The reverse sweep over separate ``f_x`` and ``f_u`` records that
    ``integrator.adjoint_batch`` ran before the joint record, with a fresh
    array per operation; every seed a batch item of its own."""
    h = cfg.dt / cfg.substeps
    n_st = jac_x.shape[-3]
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


def reference_augmented_adjoint(model, record, cfg, seeds):
    """Textbook reverse RK4 of the augmented state ``(x, u)`` with ``u' =
    0``, with a fresh array per operation; every seed a batch item of its
    own. The augmented stage Jacobian's control rows are zero, so each
    stage weight enters only through its state part, times the stage's
    ``[f_x | f_u]`` rows of the record."""
    n_x, h = model.n_x, cfg.dt / cfg.substeps
    seeds = np.asarray(seeds, dtype=float)[..., None, :]
    lam = np.concatenate(
        [seeds, np.zeros(seeds.shape[:-1] + (model.n_u,))], axis=-1)

    def stage(j, w):
        return w @ record[..., None, j, :, :]

    for j in reversed(range(0, record.shape[-3], 4)):
        lam_x = lam[..., :n_x]
        t4 = stage(j + 3, (h / 6.0) * lam_x)
        t3 = stage(j + 2, (h / 3.0) * lam_x + h * t4[..., :n_x])
        t2 = stage(j + 1, (h / 3.0) * lam_x + 0.5 * h * t3[..., :n_x])
        t1 = stage(j, (h / 6.0) * lam_x + 0.5 * h * t2[..., :n_x])
        lam = lam + t1 + t2 + t3 + t4
    return lam[..., 0, :]


def assemble_qp(model, traj, mult, x_hat, refs, cfg, fresh=True):
    """Subproblem at ``traj`` with exact blocks in the equality rows.

    The gradient rows ``lam_{k+1}^T dphi_k`` come from those blocks, or
    with ``fresh=False`` from an adjoint sweep at every node.
    """
    N = traj.horizon
    phis, record = stage_record(model, traj.xs[:-1], traj.us, cfg)
    blocks = intg.forward_sensitivity_batch(model, record, cfg)
    swept = None if fresh else sweep(model, record, cfg,
                                     mult.lam[1:, None])[:, 0]
    lam_dphi = trc.exact_gradient_rows(mult.lam[1:], np.full(N, fresh),
                                       blocks, swept)
    return trc.build_qp(traj, mult, x_hat, blocks, model, refs, phis,
                        lam_dphi)


def dense_equality_jacobian(qp):
    """Dense ``(n_eq, n_w)`` equality Jacobian with the stored blocks."""
    N, n_x, nwk = qp.N, qp.n_x, qp.n_wk
    A = np.zeros((qp.n_eq, qp.n_w))
    A[:n_x, :n_x] = np.eye(n_x)
    for k in range(N):
        rows = slice((k + 1) * n_x, (k + 2) * n_x)
        A[rows, k * nwk:(k + 1) * nwk] = qp.jacobian_blocks[k]
        nxt = (k + 1) * nwk if k + 1 < N else N * nwk
        A[rows, nxt:nxt + n_x] = -np.eye(n_x)
    return A


def dense_inequality_jacobian(qp):
    """Dense ``(n_in, n_w)`` inequality Jacobian: bound ``b`` of stage k
    gives the rows ``+e_i`` and ``-e_i`` on component ``bound_index[b]``."""
    N, n_r, nwk = qp.N, qp.n_r, qp.n_wk
    C = np.zeros((qp.n_in, qp.n_w))
    for k in range(N):
        for b, i in enumerate(qp.bound_index):
            C[k * n_r + 2 * b, k * nwk + i] = 1.0
            C[k * n_r + 2 * b + 1, k * nwk + i] = -1.0
    return C


def dense_kkt_matrix(qp, sol):
    """Dense oracle of ``perturbation.build_m`` in (w, mu, lam) ordering."""
    n_w, n_in, n_eq = qp.n_w, qp.n_in, qp.n_eq
    n = n_w + n_in + n_eq
    H = np.diag(np.concatenate([qp.stage_hessians.ravel(), qp.term_hessian]))
    A = dense_equality_jacobian(qp)
    C = dense_inequality_jacobian(qp)
    z_tot = sol.dmu + qp.mu.ravel()
    c_sol = pert._inequality_at_solution(qp, sol)

    M = np.zeros((n, n))
    M[:n_w, :n_w] = H
    M[:n_w, n_w:n_w + n_in] = C.T
    M[:n_w, n_w + n_in:] = A.T
    M[n_w:n_w + n_in, :n_w] = -z_tot[:, None] * C
    M[n_w:n_w + n_in, n_w:n_w + n_in] = np.diag(-c_sol)
    M[n_w + n_in:, :n_w] = A
    return M


class _DenseBackend:
    """Dense LU of the augmented KKT matrix, one refinement pass per solve;
    the oracle backend of :func:`solve_dense`.

    An infinite weight pins its row: the LU is bordered with that row of C
    as an extra equality row with a zero right-hand side, and the row's
    multiplier is dropped from the step.
    """

    def __init__(self, H, g, A, b, C, d):
        self.H = np.atleast_2d(np.asarray(H, dtype=float))
        self.g = np.asarray(g, dtype=float)
        n = self.g.shape[0]
        self.A = np.asarray(A, dtype=float).reshape(-1, n)
        self.b = np.asarray(b, dtype=float)
        self.C = np.asarray(C, dtype=float).reshape(-1, n)
        self.d = np.asarray(d, dtype=float)
        w_eig = np.linalg.eigvalsh(self.H)
        if n and w_eig.min() < qp_solver._HESS_REG_FLOOR:
            self.H = self.H + qp_solver._HESS_REG_FLOOR * np.eye(n)

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
        n = self.g.shape[0]
        Hbar = self.H.copy()
        pinned = np.zeros(self.d.shape[0], dtype=bool)
        if w is not None and w.size:
            pinned = np.isinf(w)
            w = np.where(pinned, 0.0, w)
            Hbar += (self.C.T * w) @ self.C
        # border rows: the equalities, then the pinned rows of C
        B = np.vstack([self.A, self.C[pinned]])
        m = B.shape[0]
        K = np.zeros((n + m, n + m))
        K[:n, :n] = Hbar
        K[:n, n:] = B.T
        K[n:, :n] = B
        return lu_factor(K), w, self.C[pinned]

    def solve2(self, handle, r1, r2):
        lu, w, P = handle
        n, m = self.g.shape[0], self.b.shape[0]
        sol = lu_solve(lu, np.concatenate([r1, r2, np.zeros(P.shape[0])]))
        dx, dy, dz = sol[:n], sol[n:n + m], sol[n + m:]
        # one refinement pass against the bordered system
        res1 = r1 - self.hmv(dx) - self.atmv(dy) - P.T @ dz
        if w is not None and w.size:
            res1 -= self.ctmv(w * self.cmv(dx))
        res2 = r2 - self.amv(dx)
        corr = lu_solve(lu, np.concatenate([res1, res2, -P @ dx]))
        return dx + corr[:n], dy + corr[n:n + m]


def solve_dense(H, g, A, b, C, d, tol=1e-8):
    """Solve a generic dense QP ``min 1/2 x'Hx + g'x, Ax = b, Cx <= d``.

    Returns ``(x, y, z, info)`` with equality/inequality multipliers in the
    ``+A'y + C'z`` stationarity convention and an info dict carrying the
    final residual and iteration count.
    """
    backend = _DenseBackend(H, g, A, b, C, d)
    x, y, z, res, iters = qp_solver._mehrotra(backend, tol)
    return x, y, z, {"residual": res, "iterations": iters}


def stage_permutation(qp):
    """Index ``p`` such that the stage-ordered ``build_m(qp, sol)`` equals
    ``dense_kkt_matrix(qp, sol)[p][:, p]``.

    Stage order runs ``(lam_k, w_k, mu_k)`` for k < N, then
    ``(lam_N, x_N)``.
    """
    N, n_x, nwk, n_r = qp.N, qp.n_x, qp.n_wk, qp.n_r
    lam0 = qp.n_w + qp.n_in
    parts = []
    for k in range(N + 1):
        n_wk, n_mu = (nwk, n_r) if k < N else (n_x, 0)
        parts += [lam0 + k * n_x + np.arange(n_x),
                  k * nwk + np.arange(n_wk),
                  qp.n_w + k * n_r + np.arange(n_mu)]
    return np.concatenate(parts)


def wml_order(qp, M):
    """Dense copy of the stage-ordered ``M`` in (w, mu, lam) ordering."""
    inv = np.argsort(stage_permutation(qp))
    return M.toarray()[np.ix_(inv, inv)]


def parse_log_csv(path):
    """Inverse of ``harness.export_log_csv`` (round-trip exact)."""
    lines = pathlib.Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    n_x = sum(1 for h in header if h.startswith("x") and h[1:].isdigit())
    n_u = sum(1 for h in header if h.startswith("u") and h[1:].isdigit())
    body = [ln.split(",") for ln in lines[1:]]
    inst = body[:-1]
    times = np.array([float(r[0]) for r in inst])
    states = np.array([[float(v) for v in r[1:1 + n_x]]
                       for r in body])
    controls = np.array([[float(v) for v in r[1 + n_x:1 + n_x + n_u]]
                         for r in inst]).reshape(len(inst), n_u)
    diag = {}
    for j, cname in enumerate(harness._DIAG_COLUMNS):
        col = 1 + n_x + n_u + j
        diag[cname] = np.array([float(r[col]) for r in inst])
    t_s = times[1] - times[0] if times.size > 1 else (
        float(body[-1][0]) - times[0] if times.size else 0.0)
    return harness.SimulationLog(t_s=t_s, times=times, states=states,
                                 controls=controls, diag=diag,
                                 ref_windows=np.zeros((len(inst), 0, n_x)))


def build_n(qp, sol):
    """Derivative of the KKT map in the stacked perturbation entries.

    Rows are in (w, mu, lam) ordering. The perturbation stacks row-major
    per-interval blocks, interval index ascending. Multiplying by such a
    stacked perturbation ``p`` yields ``(-P^T dlam, 0, -P dw)`` for the
    corresponding block matrix ``P``.
    """
    N, n_x, nwk = qp.N, qp.n_x, qp.n_wk
    n_w, n_in, n_eq = qp.n_w, qp.n_in, qp.n_eq
    n_p = N * n_x * nwk
    out = np.zeros((n_w + n_in + n_eq, n_p))
    body = sol.dw[:N * nwk].reshape(N, nwk)
    dlam = sol.dlam.reshape(N + 1, n_x)
    eye = np.eye(nwk)
    for k in range(N):
        pcols = slice(k * n_x * nwk, (k + 1) * n_x * nwk)
        # stationarity rows of node k: -(P_k^T dlam_{k+1})
        out[k * nwk:(k + 1) * nwk, pcols] = -np.kron(dlam[k + 1], eye)
        # continuity rows k+1: -(P_k dw_k)
        rows = slice(n_w + n_in + (k + 1) * n_x, n_w + n_in + (k + 2) * n_x)
        out[rows, pcols] = -np.kron(np.eye(n_x), body[k])
    return out


def stack_perturbation(P_blocks):
    """Row-major stacking of per-interval perturbation blocks."""
    return np.asarray(P_blocks, dtype=float).ravel()
