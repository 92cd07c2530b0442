"""Subproblem perturbation analysis: KKT matrices, constants, DtO oracle."""
import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
import scipy.sparse

from conftest import SCENARIO_DIR, assemble_qp, build_n, \
    dense_equality_jacobian, dense_inequality_jacobian, dense_kkt_matrix, \
    stack_perturbation, stage_permutation, wml_order
from nmpckit import harness, schemes
from nmpckit import integrator as intg
from nmpckit import perturbation as pert
from nmpckit import qp_solver, transcription as trc
from nmpckit.errors import NearSingularMatrixError


def _pendulum_qp_sol(pendulum, rng, N=8, tol=1e-10):
    cfg = intg.IntegratorConfig(dt=0.05, substeps=4)
    xs = np.empty((N + 1, 4))
    xs[0] = [0.0, 0.4, 0.0, 0.0]
    us = rng.uniform(-2.0, 2.0, (N, 1))
    for k in range(N):
        xs[k + 1] = intg.integrate_batch(pendulum, xs[k], us[k], cfg)[0]
    traj = trc.Trajectory(xs, us)
    mult = trc.Multipliers.zeros(N, 4, pendulum.n_r)
    refs = trc.References(np.zeros((N + 1, 4)), np.zeros((N, 1)))
    x_hat = xs[0] + rng.uniform(-0.01, 0.01, 4)
    qp = assemble_qp(pendulum, traj, mult, x_hat, refs, cfg)
    return qp, qp_solver.solve(qp, tol=tol)


def test_perturbation_matrix_action_identity(pendulum, rng):
    """N(p) applied to the stacked blocks reproduces the algebraic
    expression (-P^T dlam, 0, -P dw) entry for entry."""
    qp, sol = _pendulum_qp_sol(pendulum, rng)
    Nmat = build_n(qp, sol)
    P = rng.standard_normal((qp.N, qp.n_x, qp.n_wk))
    p = stack_perturbation(P)

    dw_nodes = sol.dw[:qp.N * qp.n_wk].reshape(qp.N, qp.n_wk)
    dlam = sol.dlam.reshape(qp.N + 1, qp.n_x)
    expect = np.zeros(qp.n_w + qp.n_in + qp.n_eq)
    for k in range(qp.N):
        rows = slice(k * qp.n_wk, (k + 1) * qp.n_wk)
        expect[rows] = -P[k].T @ dlam[k + 1]
        eqrows = slice(qp.n_w + qp.n_in + (k + 1) * qp.n_x,
                       qp.n_w + qp.n_in + (k + 2) * qp.n_x)
        expect[eqrows] = -P[k] @ dw_nodes[k]
    npt.assert_allclose(Nmat @ p, expect, atol=1e-12)


def test_first_order_prediction_slope(pendulum, rng):
    """Residual of the first-order solution-change prediction decays with
    order two in the perturbation size (active set held fixed)."""
    qp, sol = _pendulum_qp_sol(pendulum, rng, tol=1e-12)
    M = wml_order(qp, pert.build_m(qp, sol))
    Nmat = build_n(qp, sol)
    P0 = rng.standard_normal((qp.N, qp.n_x, qp.n_wk))
    P0 /= np.abs(P0).max()
    p0 = stack_perturbation(P0)

    scales, resids = [], []
    for s in np.logspace(-4.0, -2.0, 6):
        qp_s = dataclasses.replace(
            qp, jacobian_blocks=qp.jacobian_blocks + s * P0)
        sol_s = qp_solver.solve(qp_s, tol=1e-12)
        if not np.array_equal(sol_s.active_set, sol.active_set):
            continue
        predicted = np.linalg.solve(M, Nmat @ (s * p0))
        resid = np.linalg.norm(sol_s.stacked() - sol.stacked() - predicted)
        scales.append(s)
        resids.append(resid)
    assert len(scales) >= 4
    slope = np.polyfit(np.log(scales), np.log(resids), 1)[0]
    assert slope >= 1.9


def test_conditioning_constants_definition(rng):
    M = rng.standard_normal((12, 12)) + 3.0 * np.eye(12)
    rho, gamma = pert.conditioning_constants(M)
    sigma = scipy.linalg.svdvals(M)
    assert rho == pytest.approx(1.0 / sigma[-1], rel=1e-12)
    assert gamma == pytest.approx(np.std(1.0 / sigma) + 1.0, rel=1e-12)


def test_conditioning_constants_reject_singular():
    M = np.eye(5)
    M[3, 3] = 0.0
    with pytest.raises(NearSingularMatrixError):
        pert.conditioning_constants(M)


def test_singular_values_descending(rng):
    M = rng.standard_normal((9, 9))
    sigma = pert.singular_values(M)
    assert np.all(np.diff(sigma) <= 0)
    npt.assert_allclose(sigma, scipy.linalg.svdvals(M), atol=1e-12)


def test_kkt_matrix_blocks(pendulum, rng):
    qp, sol = _pendulum_qp_sol(pendulum, rng)
    M = pert.build_m(qp, sol)
    n = qp.n_w + qp.n_in + qp.n_eq
    assert M.shape == (n, n)
    M = wml_order(qp, M)
    A = dense_equality_jacobian(qp)
    npt.assert_array_equal(M[qp.n_w + qp.n_in:, :qp.n_w], A)
    npt.assert_array_equal(M[:qp.n_w, qp.n_w + qp.n_in:], A.T)
    # no active inequality here: complementarity rows are diagonal in the
    # (negated) constraint values
    C = dense_inequality_jacobian(qp)
    npt.assert_array_equal(M[:qp.n_w, qp.n_w:qp.n_w + qp.n_in], C.T)


def test_measure_dto_zero_for_exact_blocks(pendulum, rng):
    qp, sol = _pendulum_qp_sol(pendulum, rng)
    e, active_match = pert.measure_dto(qp, sol, qp.jacobian_blocks,
                                       tol=1e-10)
    assert e <= 1e-12
    assert active_match


def test_measure_dto_detects_stale_blocks(pendulum, rng):
    qp, sol = _pendulum_qp_sol(pendulum, rng)
    wrong = qp.jacobian_blocks * 1.05
    qp_stale = dataclasses.replace(qp, jacobian_blocks=wrong)
    sol_stale = qp_solver.solve(qp_stale, tol=1e-10)
    e, _ = pert.measure_dto(qp_stale, sol_stale, qp.jacobian_blocks,
                            tol=1e-10)
    assert e > 1e-6


def test_conditioning_bound_on_solution_distance(pendulum, rng):
    # the exact solution moves by at most rho * ||N(p) p|| to first order,
    # and the distance scales linearly in the perturbation size
    qp, sol = _pendulum_qp_sol(pendulum, rng)
    M = pert.build_m(qp, sol)
    Nmat = build_n(qp, sol)
    rho, _ = pert.conditioning_constants(M)
    P = rng.standard_normal(qp.jacobian_blocks.shape)
    P /= np.abs(P).max()
    p = stack_perturbation(P)
    ratios = []
    for s in (1e-4, 1e-3, 1e-2):
        qp_s = dataclasses.replace(
            qp, jacobian_blocks=qp.jacobian_blocks + s * P)
        sol_s = qp_solver.solve(qp_s, tol=1e-12)
        if not np.array_equal(sol_s.active_set, sol.active_set):
            continue
        e = np.linalg.norm(sol_s.stacked() - sol.stacked())
        assert e <= rho * np.linalg.norm(Nmat @ (s * p))
        ratios.append(e / s)
    assert len(ratios) >= 2
    assert max(ratios) <= 2.0 * min(ratios)


def _first_subproblem(s, traj0, mult0, x_hat0):
    """Subproblem and solution from which ``schemes.subproblem_constants``
    takes the conditioning constants of the scenario ``s``, from the
    horizon ``traj0``, ``mult0`` and the measurement ``x_hat0``."""
    captured = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schemes, "build_m",
                   lambda qp, sol: captured.append((qp, sol)))
        mp.setattr(schemes, "conditioning_constants", lambda M: (1.0, 1.0))
        schemes.subproblem_constants(
            s.model, s.integrator(), s.scheme, traj0, mult0, x_hat0,
            s.schedule.window(0.0, s.horizon, s.t_s))
    (qp, sol), = captured
    return qp, sol


@pytest.fixture(scope="module")
def chain_first_subproblem():
    """First ``cmon`` subproblem and solution of chain_n40 from the
    trial-0 start (n = 2574, two active bounds)."""
    s = harness.load_scenario(SCENARIO_DIR / "chain_n40.yaml")
    return _first_subproblem(
        s, harness.steady_horizon(s),
        trc.Multipliers.zeros(s.horizon, s.model.n_x, s.model.n_r),
        harness.perturbed_chain_state(s, 0))


@pytest.mark.parametrize("case", ["pendulum", "chain"])
def test_sparse_m_equals_permuted_dense_oracle(case, pendulum, rng, request):
    if case == "chain":
        qp, sol = request.getfixturevalue("chain_first_subproblem")
        assert sol.active_set.any()
    else:
        qp, sol = _pendulum_qp_sol(pendulum, rng)
    M = pert.build_m(qp, sol)
    assert scipy.sparse.issparse(M)
    p = stage_permutation(qp)
    npt.assert_array_equal(np.sort(p), np.arange(M.shape[0]))
    oracle = dense_kkt_matrix(qp, sol)
    npt.assert_array_equal(M.toarray(), oracle[np.ix_(p, p)])


def _block_banded(rng, blocks=20, size=3):
    """Well-conditioned random matrix with dense blocks on three block
    diagonals."""
    n = blocks * size
    B = 4.0 * np.eye(n)
    for k in range(blocks):
        for j in range(max(k - 1, 0), min(k + 2, blocks)):
            B[k * size:(k + 1) * size, j * size:(j + 1) * size] += \
                rng.standard_normal((size, size))
    return B


def test_gram_route_matches_svdvals(pendulum, rng):
    """The banded Gram route on a pendulum M and on a block-banded
    matrix, both sparse."""
    qp, sol = _pendulum_qp_sol(pendulum, rng)
    cases = [(pert.build_m(qp, sol), 1e-5),
             (scipy.sparse.csr_array(_block_banded(rng)), 1e-12)]
    for M, rtol in cases:
        sigma = scipy.linalg.svdvals(M.toarray())
        npt.assert_allclose(pert.singular_values(M), sigma, rtol=rtol)
        rho, gamma = pert.conditioning_constants(M)
        assert rho == pytest.approx(1.0 / sigma[-1], rel=rtol)
        assert gamma == pytest.approx(np.std(1.0 / sigma) + 1.0, rel=rtol)


def test_chain_preparation_constants_match_svdvals(chain_first_subproblem):
    qp, sol = chain_first_subproblem
    M = pert.build_m(qp, sol)
    rho, gamma = pert.conditioning_constants(M)
    sigma = scipy.linalg.svdvals(M.toarray())
    assert rho == pytest.approx(1.0 / sigma[-1], rel=1e-6)
    assert gamma == pytest.approx(np.std(1.0 / sigma) + 1.0, rel=1e-6)


def test_pendulum_preparation_spectrum_needs_no_dense_svd(monkeypatch):
    """The pendulum_n40 first-instant M (n = 528) takes the Gram route: its
    smallest eigenvalue sits far above the Gram's rounding floor."""
    s = harness.load_scenario(SCENARIO_DIR / "pendulum_n40.yaml")
    x0 = s.schedule.states[0]
    qp, sol = _first_subproblem(s, *harness.perfect_horizon(s, x0), x0)
    M = pert.build_m(qp, sol)
    assert M.shape[0] == 528

    def forbidden(*args, **kwargs):
        raise AssertionError("dense svdvals called")

    monkeypatch.setattr(scipy.linalg, "svdvals", forbidden)
    rho, gamma = pert.conditioning_constants(M)
    assert np.isfinite(rho) and gamma >= 1.0


def test_gram_route_rejects_rank_deficient_chain_m(chain_first_subproblem):
    # columns of x_0[5] and x_0[7] made equal: the Gram's smallest
    # eigenvalue is rounding noise (about 4e-16 lambda_max), which an
    # absolute threshold on the Gram's sigma_min lets through; the dense
    # SVD the Gram route falls back to resolves it as singular
    qp, sol = chain_first_subproblem
    col = np.argsort(stage_permutation(qp))
    M = pert.build_m(qp, sol).toarray()
    M[:, col[5]] = M[:, col[7]]
    with pytest.raises(NearSingularMatrixError) as err:
        pert.conditioning_constants(scipy.sparse.csr_array(M))
    assert err.value.sigma_min < 1e-6


def test_gram_floor_falls_back_to_svdvals():
    """A chain_n40 start whose first-step M (sigma_min 1.1e-6, condition
    9.5e6) puts the Gram's smallest eigenvalue at its rounding floor: the
    constants there are those of the dense SVD, and the loop from that
    start completes."""
    s = harness.load_scenario(SCENARIO_DIR / "chain_n40.yaml")
    s.seed = 303
    s.duration = 2.0
    x0 = harness.perturbed_chain_state(s, 3)
    captured = []
    with pytest.MonkeyPatch.context() as mp:
        build, constants = schemes.build_m, schemes.conditioning_constants
        mp.setattr(schemes, "build_m",
                   lambda qp, sol: captured.append(build(qp, sol))
                   or captured[-1])
        mp.setattr(schemes, "conditioning_constants",
                   lambda M: captured.append(constants(M)) or captured[-1])
        schemes.subproblem_constants(
            s.model, s.integrator(), s.scheme, harness.steady_horizon(s),
            trc.Multipliers.zeros(s.horizon, s.model.n_x, s.model.n_r), x0,
            s.schedule.window(0.0, s.horizon, s.t_s))
    log = harness.closed_loop_simulate(s, x0)
    assert not log.failed and log.n_instants == s.n_instants
    M, (rho, gamma) = captured
    eigs = pert._gram_eigenvalues(M)
    assert eigs[0] <= pert._GRAM_FLOOR * eigs[-1]
    sigma = scipy.linalg.svdvals(M.toarray())
    assert sigma[-1] == pytest.approx(1.14e-6, rel=0.01)
    assert rho == 1.0 / sigma[-1]
    assert gamma == float(np.std(1.0 / sigma)) + 1.0
