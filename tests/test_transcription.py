"""Horizon-problem assembly tests: residuals, gradients, step application."""
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from conftest import assemble_qp, dense_equality_jacobian, \
    dense_inequality_jacobian, sensitivities, stage_record, sweep
from nmpckit import integrator as intg
from nmpckit import transcription as trc
from nmpckit.errors import AssemblyError, ContractViolationError

N = 10
CFG = intg.IntegratorConfig(dt=0.05, substeps=4)


def _rollout(model, x0, us):
    xs = np.empty((len(us) + 1, model.n_x))
    xs[0] = x0
    for k, u in enumerate(us):
        xs[k + 1] = intg.integrate_batch(model, xs[k], u, CFG)[0]
    return trc.Trajectory(xs, np.asarray(us, dtype=float))


@pytest.fixture
def setup(pendulum, rng):
    us = rng.uniform(-2.0, 2.0, (N, 1))
    traj = _rollout(pendulum, np.array([0.0, 0.3, 0.0, 0.0]), us)
    mult = trc.Multipliers.zeros(N, 4, pendulum.n_r)
    refs = trc.References(np.zeros((N + 1, 4)), np.zeros((N, 1)))
    blocks = sensitivities(pendulum, traj.xs[:-1], traj.us, CFG)[1]
    return pendulum, traj, mult, refs, blocks


def test_continuity_residuals_vanish_on_rollout(setup):
    model, traj, mult, refs, blocks = setup
    qp = assemble_qp(model, traj, mult, traj.xs[0], refs, CFG)
    npt.assert_allclose(qp.continuity_residuals, 0.0, atol=1e-12)


def test_embedding_row_carries_measurement(setup):
    model, traj, mult, refs, blocks = setup
    x_hat = traj.xs[0] + np.array([0.01, -0.02, 0.0, 0.03])
    qp = assemble_qp(model, traj, mult, x_hat, refs, CFG)
    npt.assert_allclose(qp.continuity_residuals[0], traj.xs[0] - x_hat,
                        atol=1e-15)


def _objective(traj, model, refs):
    sw, tw = model.stage_weights, model.terminal_weights
    val = 0.0
    for k in range(traj.horizon):
        z = np.concatenate([traj.xs[k] - refs.xs[k],
                            traj.us[k] - refs.us[k]])
        val += 0.5 * z @ (sw * z)
    e = traj.xs[-1] - refs.xs[-1]
    return val + 0.5 * e @ (tw * e)


def test_gradient_matches_fd_of_objective(pendulum, rng):
    # with zero multipliers the assembled gradient is the objective gradient
    us = rng.uniform(-2.0, 2.0, (N, 1))
    traj = _rollout(pendulum, np.array([0.0, 0.3, 0.0, 0.0]), us)
    mult = trc.Multipliers.zeros(N, 4, pendulum.n_r)
    refs = trc.References(rng.uniform(-0.3, 0.3, (N + 1, 4)),
                          rng.uniform(-0.3, 0.3, (N, 1)))
    qp = assemble_qp(pendulum, traj, mult, traj.xs[0], refs, CFG)

    def perturbed(j, eps):
        xs, us2 = traj.xs.copy(), traj.us.copy()
        if j >= N * 5:
            xs[N, j - N * 5] += eps
        else:
            k, off = divmod(j, 5)
            if off < 4:
                xs[k, off] += eps
            else:
                us2[k, 0] += eps
        return _objective(trc.Trajectory(xs, us2), pendulum, refs)

    h = 1e-6
    fd = np.array([(perturbed(j, h) - perturbed(j, -h)) / (2 * h)
                   for j in range(qp.gradient.size)])
    npt.assert_allclose(qp.gradient, fd, rtol=1e-6, atol=1e-6)


def test_gradient_includes_multiplier_rows(setup, rng):
    # nonzero equality multipliers add lam^T dphi rows computed with exact
    # sensitivities, whether from fresh blocks or an all-stale adjoint sweep
    model, traj, mult, refs, blocks = setup
    mult.lam = rng.standard_normal(mult.lam.shape)
    qp_fresh = assemble_qp(model, traj, mult, traj.xs[0], refs, CFG)
    qp_stale = assemble_qp(model, traj, mult, traj.xs[0], refs, CFG,
                           fresh=False)
    npt.assert_allclose(qp_fresh.gradient, qp_stale.gradient, atol=1e-10)


def test_exact_gradient_rows_fresh_equals_product(setup, rng):
    model, traj, mult, refs, blocks = setup
    seeds = rng.standard_normal((N, 4))
    record = stage_record(model, traj.xs[:-1], traj.us, CFG)[1]
    expect = np.einsum('kx,kxw->kw', seeds, blocks)
    rows_fresh = trc.exact_gradient_rows(seeds, np.ones(N, dtype=bool),
                                         blocks, None)
    npt.assert_array_equal(rows_fresh, expect)
    swept = sweep(model, record, CFG, seeds[:, None])[:, 0]
    npt.assert_allclose(swept, expect, atol=1e-10)
    # fresh nodes take the product, the others the swept rows
    mask = np.arange(N) % 2 == 0
    rows = trc.exact_gradient_rows(seeds, mask, blocks, swept)
    npt.assert_array_equal(rows[mask], expect[mask])
    npt.assert_array_equal(rows[~mask], swept[~mask])


def test_apply_step_adds_increments(setup, rng):
    model, traj, mult, refs, blocks = setup
    n_w = N * 5 + 4
    sol = SimpleNamespace(dw=rng.standard_normal(n_w),
                          dlam=rng.standard_normal((N + 1) * 4),
                          dmu=rng.uniform(0.0, 1.0, N * model.n_r))
    new_traj, new_mult = trc.apply_step(traj, mult, sol)
    dxs, dus = trc.split_primal(sol.dw, N, 4, 1)
    npt.assert_array_equal(new_traj.xs, traj.xs + dxs)
    npt.assert_array_equal(new_traj.us, traj.us + dus)
    npt.assert_array_equal(new_mult.lam, mult.lam + sol.dlam.reshape(N + 1, 4))
    npt.assert_array_equal(new_mult.mu, sol.dmu.reshape(N, model.n_r))


def test_apply_step_clamps_roundoff_negative_multiplier(setup):
    model, traj, mult, refs, blocks = setup
    n_w = N * 5 + 4
    dmu = np.zeros(N * model.n_r)
    dmu[3] = -5e-9                     # inside the roundoff slack
    sol = SimpleNamespace(dw=np.zeros(n_w), dlam=np.zeros((N + 1) * 4),
                          dmu=dmu)
    _, new_mult = trc.apply_step(traj, mult, sol)
    assert new_mult.mu.min() == 0.0


def test_apply_step_rejects_negative_multiplier(setup):
    model, traj, mult, refs, blocks = setup
    n_w = N * 5 + 4
    dmu = np.zeros(N * model.n_r)
    dmu[3] = -1e-3
    sol = SimpleNamespace(dw=np.zeros(n_w), dlam=np.zeros((N + 1) * 4),
                          dmu=dmu)
    with pytest.raises(ContractViolationError):
        trc.apply_step(traj, mult, sol)


def test_build_qp_rejects_bad_measurement(setup):
    model, traj, mult, refs, blocks = setup
    with pytest.raises(AssemblyError):
        assemble_qp(model, traj, mult, np.zeros(3), refs, CFG)


def test_dense_jacobian_shapes(setup):
    model, traj, mult, refs, blocks = setup
    qp = assemble_qp(model, traj, mult, traj.xs[0], refs, CFG)
    A = dense_equality_jacobian(qp)
    C = dense_inequality_jacobian(qp)
    assert A.shape == (qp.n_eq, qp.n_w)
    assert C.shape == (qp.ineq_values.size, qp.n_w)
    # embedding block is the identity on x_0
    npt.assert_array_equal(A[:4, :4], np.eye(4))
    npt.assert_array_equal(A[:4, 4:], np.zeros((4, qp.n_w - 4)))
