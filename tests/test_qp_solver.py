"""Interior-point QP solver vs a brute-force active-set enumeration oracle."""
import dataclasses
import itertools

import numpy as np
import numpy.testing as npt
import pytest

from conftest import assemble_qp, dense_equality_jacobian, \
    dense_inequality_jacobian, solve_dense
from nmpckit import integrator as intg
from nmpckit import models, qp_solver, transcription as trc
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
    x, y, z, info = solve_dense(H, g, A, b, C, d, tol=1e-10)
    scale = 1.0 + np.linalg.norm(x_ref)
    assert np.linalg.norm(x - x_ref) <= 1e-7 * scale
    assert np.linalg.norm(y - y_ref) <= 1e-6 * (1.0 + np.linalg.norm(y_ref))
    assert np.linalg.norm(z - z_ref) <= 1e-6 * (1.0 + np.linalg.norm(z_ref))
    assert info["residual"] <= 1e-10


def test_dense_solver_unconstrained_inequalities_inactive():
    rng = np.random.default_rng(7)
    H, g, A, b, C, d = _random_qp(rng, 4, 0, 3)
    d = d + 100.0          # push every inequality far away
    x, y, z, info = solve_dense(H, g, A, b, C, d, tol=1e-10)
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
        solve_dense(H, g, A, b, C, d, tol=1e-8)


def _stage_qp(model, xs0, us, rng, ref_x=None):
    """Subproblem of a rollout from ``xs0`` with a perturbed measurement."""
    N, n_x = us.shape[0], model.n_x
    cfg = intg.IntegratorConfig(dt=0.05, substeps=4)
    xs = np.empty((N + 1, n_x))
    xs[0] = xs0
    for k in range(N):
        xs[k + 1] = intg.integrate_batch(model, xs[k], us[k], cfg)[0]
    traj = trc.Trajectory(xs, us)
    mult = trc.Multipliers.zeros(N, n_x, model.n_r)
    ref_x = np.zeros(n_x) if ref_x is None else ref_x
    refs = trc.References(np.tile(ref_x, (N + 1, 1)), np.zeros((N, model.n_u)))
    x_hat = xs[0] + rng.uniform(-0.02, 0.02, n_x)
    return assemble_qp(model, traj, mult, x_hat, refs, cfg)


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


def _dense_oracle(qp):
    """Dense-backend totals ``(x, y, z)`` of the stage subproblem."""
    A = dense_equality_jacobian(qp)
    C = dense_inequality_jacobian(qp)
    H = np.diag(np.concatenate([qp.stage_hessians.ravel(), qp.term_hessian]))
    g_obj = qp.gradient - A.T @ qp.lam.ravel() - C.T @ qp.mu.ravel()
    x, y, z, _ = solve_dense(H, g_obj, A, -qp.continuity_residuals.ravel(),
                             C, -qp.ineq_values.ravel(), tol=1e-10)
    return x, y, z


@pytest.mark.parametrize(
    "case", ["pendulum", "pendulum-zero-state-weights", "chain"])
def test_stage_solver_matches_dense_backend(case, pendulum, rng):
    """Dual-route check: block-structured backend vs the generic dense one."""
    qp = _oracle_case(case, pendulum, rng)
    sol = qp_solver.solve(qp, tol=1e-10)
    x, y, z = _dense_oracle(qp)

    if case == "chain":
        # bounds bind, so the empty-set polish fails and the interior
        # point runs
        assert qp.n_x == 27 and sol.active_set.any() and sol.iterations > 1
    npt.assert_allclose(sol.dw, x, atol=1e-6)
    npt.assert_allclose(sol.dlam, y - qp.lam.ravel(), atol=1e-5)
    npt.assert_allclose(sol.dmu, z - qp.mu.ravel(), atol=1e-5)


@pytest.mark.parametrize(
    "case", ["pendulum", "pendulum-zero-state-weights", "chain"])
def test_stage_solution_satisfies_kkt(case, pendulum, rng):
    qp = _oracle_case(case, pendulum, rng)
    sol = qp_solver.solve(qp, tol=1e-10)
    A = dense_equality_jacobian(qp)
    C = dense_inequality_jacobian(qp)
    # stationarity, with the Hessian the solver lifts by its floor
    floor = qp_solver._HESS_REG_FLOOR
    H = np.diag(np.concatenate([h + floor if h.min() < floor else h
                                for h in (*qp.stage_hessians,
                                          qp.term_hessian)]))
    lam_flat = qp.lam.ravel()
    mu_flat = qp.mu.ravel()
    g_obj = qp.gradient - A.T @ lam_flat - C.T @ mu_flat
    stat = H @ sol.dw + g_obj + A.T @ (lam_flat + sol.dlam) \
        + C.T @ (mu_flat + sol.dmu)
    assert np.abs(stat).max() <= 1e-8
    # primal feasibility of the increments
    npt.assert_allclose(A @ sol.dw, -qp.continuity_residuals.ravel(),
                        atol=1e-8)
    slack = C @ sol.dw + qp.ineq_values.ravel()
    assert slack.max() <= 1e-8
    # multiplier totals stay nonnegative
    mu_tot = sol.dmu + qp.mu.ravel()
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


def test_each_kkt_step_is_one_banded_solve(pendulum, rng, monkeypatch):
    calls = {"solve2": 0, "pbtrs": 0, "pbtrf": 0}
    pinned = []
    solve2, pbtrs = qp_solver._StageBackend.solve2, qp_solver._pbtrs
    pbtrf, polish = qp_solver._pbtrf, qp_solver._polish

    def counted_solve2(self, *args):
        calls["solve2"] += 1
        return solve2(self, *args)

    def counted_pbtrs(*args, **kwargs):
        calls["pbtrs"] += 1
        return pbtrs(*args, **kwargs)

    def counted_pbtrf(*args, **kwargs):
        calls["pbtrf"] += 1
        return pbtrf(*args, **kwargs)

    def counted_polish(backend, handle0, act, tol):
        pinned.append(bool(act.any()))
        return polish(backend, handle0, act, tol)

    monkeypatch.setattr(qp_solver._StageBackend, "solve2", counted_solve2)
    monkeypatch.setattr(qp_solver, "_pbtrs", counted_pbtrs)
    monkeypatch.setattr(qp_solver, "_pbtrf", counted_pbtrf)
    monkeypatch.setattr(qp_solver, "_polish", counted_polish)
    # the chain subproblem ends in a polish that pins bounds, the pendulum
    # one in a polish on the empty set
    for case, pins in (("chain", True), ("pendulum", False)):
        calls.update(solve2=0, pbtrs=0, pbtrf=0)
        pinned.clear()
        sol = qp_solver.solve(_oracle_case(case, pendulum, rng), tol=1e-10)
        assert calls["solve2"] > 0
        assert calls["pbtrs"] == calls["solve2"]
        assert pinned and any(pinned) == pins
        # one factor for the start, one per interior-point step taken and
        # one per polish that pins a bound; the empty set reuses the first
        assert calls["pbtrf"] == sol.iterations + sum(pinned)


def test_verified_polish_evaluates_each_product_once(pendulum, rng,
                                                    monkeypatch):
    # a pendulum QP that the opening polish verifies in one Newton step:
    # the start, the step and its residual take each product once, the
    # step's own solve one more amv, and solve reads the slack once more
    calls = dict.fromkeys(("amv", "cmv", "ctmv", "solve2"), 0)
    for name in calls:
        method = getattr(qp_solver._StageBackend, name)

        def counted(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(qp_solver._StageBackend, name, counted)
    sol = qp_solver.solve(_pendulum_qp(pendulum, rng), tol=1e-8)
    assert sol.iterations == 1 and calls["solve2"] == 1
    assert calls["amv"] <= 3 and calls["cmv"] <= 3 and calls["ctmv"] <= 2


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
    qp.stage_hessians[3] = (-np.array([20.0, 20.0, 0.2, 0.2, 0.1])
                            if block == "negative-definite" else -floor)
    with pytest.raises(QPNonconvergenceError):
        qp_solver.solve(qp, tol=1e-10)


def _fresh_polish(qp, act, tol=1e-10):
    backend = qp_solver._StageBackend(qp)
    return qp_solver._polish(backend, backend.factor(None), act, tol)


def test_polish_on_the_active_set_matches_dense_backend(rng):
    qp = _chain_qp(rng)
    x_ref, y_ref, z_ref = _dense_oracle(qp)
    act = z_ref > qp_solver._ACTIVE_MU
    assert act.any()
    x, y, z, res = _fresh_polish(qp, act)
    assert res <= 1e-10
    npt.assert_allclose(x, x_ref, atol=1e-6)
    npt.assert_allclose(y, y_ref, atol=1e-5)
    npt.assert_allclose(z, z_ref, atol=1e-5)
    npt.assert_array_equal(z > 0, act)


def _wrong_set(case, qp):
    if case == "pins-x0":
        # the upper bound of the cart position x_0[0]: the measurement
        # embedding fixes x_0, so Y is singular
        act = np.zeros(qp.ineq_values.size, dtype=bool)
        act[0] = True
        return act
    act = _dense_oracle(qp)[2] > qp_solver._ACTIVE_MU
    if case == "extra-row":
        act[np.flatnonzero(~act)[0]] = True
    else:
        act[np.flatnonzero(act)[0]] = False
    return act


@pytest.mark.parametrize("case", ["extra-row", "missing-row", "pins-x0"])
def test_polish_on_a_wrong_set_returns_none(case, pendulum, rng,
                                            monkeypatch):
    qp = _pendulum_qp(pendulum, rng) if case == "pins-x0" else _chain_qp(rng)
    act = _wrong_set(case, qp)
    if case == "pins-x0":
        with pytest.raises(QPNonconvergenceError):
            qp_solver._StageBackend(qp).factor(np.where(act, np.inf, 0.0))
    assert _fresh_polish(qp, act) is None

    # a failed polish before each real one leaves the answer unchanged
    ref = qp_solver.solve(qp, tol=1e-10)
    polish = qp_solver._polish
    tried = []

    def wrong_first(backend, handle0, act_now, tol):
        tried.append(polish(backend, handle0, act, tol))
        return polish(backend, handle0, act_now, tol)

    monkeypatch.setattr(qp_solver, "_polish", wrong_first)
    sol = qp_solver.solve(qp, tol=1e-10)
    assert tried and all(t is None for t in tried)
    npt.assert_array_equal(sol.dw, ref.dw)
    npt.assert_array_equal(sol.dlam, ref.dlam)
    npt.assert_array_equal(sol.dmu, ref.dmu)
    assert sol.iterations == ref.iterations


def test_unbounded_model_solves_in_one_iteration(pendulum, rng):
    model = dataclasses.replace(pendulum, bound_index=(), bound_limit=())
    qp = _pendulum_qp(model, rng)
    assert qp.ineq_values.size == 0
    sol = qp_solver.solve(qp, tol=1e-10)
    assert sol.iterations == 1
    x_ref, y_ref, _ = _dense_oracle(qp)
    npt.assert_allclose(sol.dw, x_ref, atol=1e-6)
    npt.assert_allclose(sol.dlam, y_ref - qp.lam.ravel(), atol=1e-5)
