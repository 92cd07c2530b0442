"""Interior-point QP solver vs a brute-force active-set enumeration oracle."""
import itertools

import numpy as np
import numpy.testing as npt
import pytest

from nmpckit import integrator as intg
from nmpckit import models, qp_solver, transcription as trc
from nmpckit.cmon import SensitivityStore
from nmpckit.errors import QPInfeasibleError, QPNonconvergenceError


def _enumerate_qp(H, g, A, b, C, d):
    """Reference solution by trying every subset of active inequalities.

    Exponential in the constraint count; only for small test problems.
    Returns ``(x, y, z)`` in the ``Hx + g + A'y + C'z = 0`` convention.
    """
    n = H.shape[0]
    m_eq, m_in = A.shape[0], C.shape[0]
    best = None
    for bits in itertools.product([False, True], repeat=m_in):
        act = np.flatnonzero(bits)
        KA = np.vstack([A, C[act]])
        K = np.block([[H, KA.T],
                      [KA, np.zeros((KA.shape[0], KA.shape[0]))]])
        rhs = np.concatenate([-g, b, d[act]])
        try:
            sol = np.linalg.solve(K, rhs)
        except np.linalg.LinAlgError:
            continue
        x = sol[:n]
        z = np.zeros(m_in)
        z[act] = sol[n + m_eq:]
        if np.any(C @ x - d > 1e-9) or np.any(z[act] < -1e-9):
            continue
        val = 0.5 * x @ H @ x + g @ x
        if best is None or val < best[3] - 1e-12:
            best = (x, sol[n:n + m_eq], z, val)
    assert best is not None, "oracle found no optimum"
    return best[:3]


def _random_qp(rng, n, m_eq, m_in):
    Q = rng.standard_normal((n, n))
    H = Q.T @ Q + n * np.eye(n)
    g = rng.standard_normal(n)
    A = rng.standard_normal((m_eq, n))
    C = rng.standard_normal((m_in, n))
    x_feas = rng.standard_normal(n)
    b = A @ x_feas
    d = C @ x_feas + rng.uniform(0.05, 1.0, m_in)
    return H, g, A, b, C, d


@pytest.mark.parametrize("seed", range(20))
def test_dense_solver_matches_enumeration(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    m_eq = int(rng.integers(0, 2))
    m_in = int(rng.integers(3, 7))
    H, g, A, b, C, d = _random_qp(rng, n, m_eq, m_in)
    x_ref, y_ref, z_ref = _enumerate_qp(H, g, A, b, C, d)
    x, y, z, info = qp_solver.solve_dense(H, g, A, b, C, d, tol=1e-10)
    scale = 1.0 + np.linalg.norm(x_ref)
    assert np.linalg.norm(x - x_ref) <= 1e-7 * scale
    assert np.linalg.norm(y - y_ref) <= 1e-6 * (1.0 + np.linalg.norm(y_ref))
    assert np.linalg.norm(z - z_ref) <= 1e-6 * (1.0 + np.linalg.norm(z_ref))
    assert info["residual"] <= 1e-10


def test_dense_solver_unconstrained_inequalities_inactive():
    rng = np.random.default_rng(7)
    H, g, A, b, C, d = _random_qp(rng, 4, 0, 3)
    d = d + 100.0          # push every inequality far away
    x, y, z, info = qp_solver.solve_dense(H, g, A, b, C, d, tol=1e-10)
    npt.assert_allclose(x, np.linalg.solve(H, -g), atol=1e-8)
    npt.assert_allclose(z, 0.0, atol=1e-8)


def test_dense_solver_detects_infeasible():
    # x <= -1 and -x <= -1 cannot both hold
    H = np.eye(1)
    g = np.zeros(1)
    A = np.zeros((0, 1))
    b = np.zeros(0)
    C = np.array([[1.0], [-1.0]])
    d = np.array([-1.0, -1.0])
    with pytest.raises(QPInfeasibleError):
        qp_solver.solve_dense(H, g, A, b, C, d, tol=1e-8)


def _stage_qp(model, xs0, us, rng, ref_x=None):
    """Subproblem of a rollout from ``xs0`` with a perturbed measurement."""
    N, n_x = us.shape[0], model.n_x
    cfg = intg.IntegratorConfig(dt=0.05, substeps=4)
    xs = np.empty((N + 1, n_x))
    xs[0] = xs0
    for k in range(N):
        xs[k + 1] = intg.integrate_batch(model, xs[k], us[k], cfg)
    traj = trc.Trajectory(xs, us)
    mult = trc.Multipliers.zeros(N, n_x, model.n_r)
    ref_x = np.zeros(n_x) if ref_x is None else ref_x
    refs = trc.References(np.tile(ref_x, (N + 1, 1)), np.zeros((N, model.n_u)))
    store = SensitivityStore.empty(N, n_x, model.n_u)
    store.refresh(model, traj, cfg)
    x_hat = xs[0] + rng.uniform(-0.02, 0.02, n_x)
    return trc.build_qp(traj, mult, x_hat, store, model, cfg, refs)


def _pendulum_qp(pendulum, rng, N=8):
    us = rng.uniform(-3.0, 3.0, (N, 1))
    return _stage_qp(pendulum, np.array([0.0, 0.4, 0.0, 0.0]), us, rng)


def _chain_qp(rng, N=4):
    # start the chain well away from its rest shape so that the end-point
    # velocities want to exceed their bounds
    chain = models.make_chain_model()
    params = chain.meta["params"]
    rest = models.chain_steady_state(params, np.array([1.0, 0.0, 0.0]))
    x0 = rest.copy()
    x0[:3 * params.n] += rng.uniform(-0.3, 0.3, 3 * params.n)
    us = rng.uniform(-0.9, 0.9, (N, chain.n_u))
    return _stage_qp(chain, x0, us, rng, ref_x=rest)


def _oracle_case(name, pendulum, rng):
    if name == "pendulum":
        return _pendulum_qp(pendulum, rng)
    if name == "pendulum-zero-state-weights":
        model = models.make_pendulum_model(stage_weights=[0, 0, 0, 0, 0.1])
        return _pendulum_qp(model, rng)
    return _chain_qp(rng)


@pytest.mark.parametrize(
    "case", ["pendulum", "pendulum-zero-state-weights", "chain"])
def test_stage_solver_matches_dense_backend(case, pendulum, rng):
    """Dual-route check: block-structured backend vs the generic dense one."""
    qp = _oracle_case(case, pendulum, rng)
    sol = qp_solver.solve(qp, tol=1e-10)

    n_w = qp.n_w
    H = np.zeros((n_w, n_w))
    for k in range(qp.N):
        sl = slice(k * qp.n_wk, (k + 1) * qp.n_wk)
        H[sl, sl] = qp.stage_hessians[k]
    H[qp.N * qp.n_wk:, qp.N * qp.n_wk:] = qp.term_hessian
    A = trc.dense_equality_jacobian(qp)
    C = trc.dense_inequality_jacobian(qp)
    lam_flat = qp.lam.ravel()
    mu_flat = np.concatenate([qp.mu.ravel(), qp.mu_term])
    g_obj = qp.gradient - A.T @ lam_flat - C.T @ mu_flat
    b = -qp.continuity_residuals.ravel()
    d = -np.concatenate([qp.ineq_values.ravel(), qp.term_ineq_values])
    x, y, z, info = qp_solver.solve_dense(H, g_obj, A, b, C, d, tol=1e-10)

    if case == "chain":
        assert qp.n_x == 27 and sol.active_set.any()
    npt.assert_allclose(sol.dw, x, atol=1e-6)
    npt.assert_allclose(sol.dlam, y - lam_flat, atol=1e-5)
    npt.assert_allclose(sol.dmu, z - mu_flat, atol=1e-5)


def test_stage_solution_satisfies_kkt(pendulum, rng):
    qp = _pendulum_qp(pendulum, rng)
    sol = qp_solver.solve(qp, tol=1e-10)
    A = trc.dense_equality_jacobian(qp)
    C = trc.dense_inequality_jacobian(qp)
    # primal feasibility of the increments
    npt.assert_allclose(A @ sol.dw, -qp.continuity_residuals.ravel(),
                        atol=1e-8)
    slack = C @ sol.dw + np.concatenate([qp.ineq_values.ravel(),
                                         qp.term_ineq_values])
    assert slack.max() <= 1e-8
    # multiplier totals stay nonnegative
    mu_tot = sol.dmu + np.concatenate([qp.mu.ravel(), qp.mu_term])
    assert mu_tot.min() >= -1e-10
    # complementarity
    assert np.abs(mu_tot * slack).max() <= 1e-7


def test_stage_solver_deterministic(pendulum):
    rng1 = np.random.default_rng(0)
    rng2 = np.random.default_rng(0)
    s1 = qp_solver.solve(_pendulum_qp(pendulum, rng1), tol=1e-8)
    s2 = qp_solver.solve(_pendulum_qp(pendulum, rng2), tol=1e-8)
    npt.assert_array_equal(s1.dw, s2.dw)
    npt.assert_array_equal(s1.dlam, s2.dlam)
    npt.assert_array_equal(s1.dmu, s2.dmu)
    assert s1.iterations == s2.iterations


def test_solution_invariant_to_start_point(pendulum, rng):
    # strictly convex subproblem: the interior-point start must not matter
    qp = _pendulum_qp(pendulum, rng)
    a = qp_solver.solve(qp, tol=1e-10, start_scale=1.0)
    b = qp_solver.solve(qp, tol=1e-10, start_scale=3.0)
    assert np.array_equal(a.active_set, b.active_set)
    npt.assert_allclose(b.stacked(), a.stacked(), rtol=0, atol=1e-8)


def test_solutions_independent_of_previous_shapes(pendulum):
    # a solve of another (N, n_x) in between must not change the result
    first = qp_solver.solve(_pendulum_qp(pendulum, np.random.default_rng(5)))
    qp_solver.solve(_pendulum_qp(pendulum, np.random.default_rng(6), N=5))
    qp_solver.solve(_chain_qp(np.random.default_rng(7), N=3))
    again = qp_solver.solve(_pendulum_qp(pendulum, np.random.default_rng(5)))
    npt.assert_array_equal(again.dw, first.dw)
    npt.assert_array_equal(again.dlam, first.dlam)
    npt.assert_array_equal(again.dmu, first.dmu)


@pytest.mark.parametrize("block", [
    "negative-definite",      # the dual Schur complement is indefinite
    "singular-after-floor",   # the stage block has no inverse
])
def test_nonconvex_stage_raises_qp_error(block, pendulum, rng):
    qp = _pendulum_qp(pendulum, rng)
    floor = qp_solver._HESS_REG_FLOOR
    qp.stage_hessians[3] = (-np.diag([20.0, 20.0, 0.2, 0.2, 0.1])
                            if block == "negative-definite"
                            else -floor * np.eye(qp.n_wk))
    with pytest.raises(QPNonconvergenceError):
        qp_solver.solve(qp, tol=1e-10)
