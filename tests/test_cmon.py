"""Nonlinearity-measure tests: the measures, thresholds and update rule."""
import math

import numpy as np
import numpy.testing as npt
import pytest

from conftest import sensitivities, stage_record
from nmpckit import cmon, integrator as intg, models
from nmpckit.cmon import CMoNConfig
from nmpckit.errors import ConfigError
from nmpckit.transcription import Trajectory


def _linear_model(rng):
    A = rng.uniform(-0.6, 0.6, (3, 3))
    B = rng.uniform(-0.5, 0.5, (3, 2))

    def rhs(x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        return x @ A.T + u @ B.T

    def jacs(x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        batch = np.broadcast_shapes(x[..., 0].shape, u[..., 0].shape)
        return (np.broadcast_to(A, batch + A.shape).copy(),
                np.broadcast_to(B, batch + B.shape).copy())

    return models.ModelSpec(n_x=3, n_u=2, rhs=rhs, rhs_jacobians=jacs,
                            stage_weights=np.ones(5),
                            terminal_weights=np.ones(3))


def test_kappa_zero_on_linear_model(rng):
    """The discrete map of linear dynamics is linear, so the primal measure
    vanishes to machine precision whatever the step."""
    model = _linear_model(rng)
    cfg = intg.IntegratorConfig(dt=0.1, substeps=3)
    x0 = rng.standard_normal((6, 3))
    u0 = rng.standard_normal((6, 2))
    phi0, S = sensitivities(model, x0, u0, cfg)
    q = rng.standard_normal((6, 5))
    phi1 = intg.integrate_batch(model, x0 + q[:, :3], u0 + q[:, 3:], cfg)[0]
    dir_pri = np.einsum('kxw,kw->kx', S, q)
    kappa = cmon.primal_cmon(phi1, phi0, dir_pri)
    assert kappa.max() <= 1e-12

    seeds = rng.standard_normal((6, 3))
    rows0 = np.einsum('kx,kxw->kw', seeds, S)
    _, jacs1 = stage_record(model, x0 + q[:, :3], u0 + q[:, 3:], cfg)
    rows1, = cmon.adjoint_rows(model, jacs1, cfg, seeds)
    kappa_dual = cmon.dual_cmon(rows1, rows0)
    assert kappa_dual.max() <= 1e-12


def test_kappa_scales_linearly_with_step(pendulum):
    # quadratic numerator over linear denominator: kappa(eps*q) ~ eps
    cfg = intg.IntegratorConfig(dt=0.05, substeps=4)
    x0 = np.array([[0.1, 0.7, -0.2, 0.6]])
    u0 = np.array([[2.0]])
    phi0, S = sensitivities(pendulum, x0, u0, cfg)
    q = np.array([[0.05, -0.08, 0.03, 0.06, 0.4]])
    vals = []
    for eps in (0.1, 1e-4):
        qe = eps * q
        phi1 = intg.integrate_batch(pendulum, x0 + qe[:, :4], u0 + qe[:, 4:],
                                    cfg)[0]
        dir_pri = np.einsum('kxw,kw->kx', S, qe)
        vals.append(cmon.primal_cmon(phi1, phi0, dir_pri)[0])
    ratio = vals[0] / vals[1]
    assert vals[0] > 0
    npt.assert_allclose(ratio, 1e3, rtol=0.05)


def test_zero_direction_gives_zero_measure():
    kappa = cmon.primal_cmon(np.ones((2, 3)), np.ones((2, 3)),
                             np.zeros((2, 3)))
    npt.assert_array_equal(kappa, np.zeros(2))


def test_update_decision_threshold_rule():
    kappa = np.array([0.5, 2.0, 0.1, 0.2])
    kappa_dual = np.array([0.1, 0.1, 5.0, 0.2])
    refresh = cmon.update_decision(kappa, kappa_dual, 1.0, 1.0)
    npt.assert_array_equal(refresh, [False, True, True, False])
    # a NaN measure is never at or below its threshold
    refresh = cmon.update_decision(np.array([np.nan, 0.1, 5.0]),
                                   np.array([0.0, np.nan, 0.0]), 1.0, 1.0)
    npt.assert_array_equal(refresh, [True, True, True])


def test_update_decision_invalid_forces_refresh():
    kappa = np.zeros(3)
    refresh = cmon.update_decision(kappa, kappa, 1.0, 1.0,
                                   invalid=np.array([True, False, False]))
    npt.assert_array_equal(refresh, [True, False, False])


def test_update_decision_floor_tops_up_by_largest_kappa():
    kappa = np.array([0.3, 0.1, 0.5, 0.5, 0.2])
    kappa_dual = np.zeros(5)
    refresh = cmon.update_decision(kappa, kappa_dual, 1.0, 1.0,
                                   floor_count=3)
    # largest measures win; the tie at 0.5 resolves to the lower index
    npt.assert_array_equal(refresh, [True, False, True, True, False])


def test_update_decision_floor_counts_existing_refreshes():
    kappa = np.array([0.3, 9.0, 0.5])
    kappa_dual = np.zeros(3)
    refresh = cmon.update_decision(kappa, kappa_dual, 1.0, 1.0,
                                   floor_count=2)
    npt.assert_array_equal(refresh, [False, True, True])


def test_floor_count_rounds_up():
    assert CMoNConfig(min_update_fraction=0.1).floor_count(41) == 5
    assert CMoNConfig(min_update_fraction=0.1).floor_count(40) == 4
    assert CMoNConfig(min_update_fraction=0.0).floor_count(40) == 0
    assert CMoNConfig(min_update_fraction=1.0).floor_count(7) == 7


def test_dto_tolerance_formula():
    cfg = CMoNConfig(eps_abs=0.1, eps_rel=0.2)
    assert cmon.dto_tolerance(cfg, 100, 3.0) == pytest.approx(1.0 + 0.6)
    assert cmon.dto_tolerance(CMoNConfig(eps_abs=0.0, eps_rel=0.0), 999,
                              5.0) == 0.0


def test_threshold_formulas():
    e_bar, rho0, gamma0 = 2.0, 4.0, 3.0
    cfg = CMoNConfig(c1=0.1, alpha=1.0, beta=1.0, rho0=rho0, gamma0=gamma0)
    eta_pri, eta_dual = cmon.thresholds(cfg, e_bar, 5.0, 7.0)
    scale = gamma0 * e_bar / rho0
    assert eta_pri == pytest.approx(scale * math.sqrt(0.1) / (2 * 5.0))
    assert eta_dual == pytest.approx(scale * math.sqrt(0.9) / 7.0)
    # doubling the direction norm halves the threshold
    eta_pri2, _ = cmon.thresholds(cfg, e_bar, 10.0, 7.0)
    assert eta_pri2 == pytest.approx(eta_pri / 2)


def test_threshold_edge_cases():
    cfg = CMoNConfig(rho0=1.0, gamma0=1.0)
    assert cmon.thresholds(cfg, 0.0, 5.0, 5.0) == (0.0, 0.0)
    eta_pri, eta_dual = cmon.thresholds(cfg, 1.0, 0.0, 0.0)
    assert math.isinf(eta_pri) and math.isinf(eta_dual)
    fixed = CMoNConfig(threshold_mode="fixed", fixed_eta_pri=0.25,
                       fixed_eta_dual=0.75)
    assert cmon.thresholds(fixed, 1.0, 5.0, 5.0) == (0.25, 0.75)


def test_config_validation():
    with pytest.raises(ConfigError):
        CMoNConfig(c1=0.0)
    with pytest.raises(ConfigError):
        CMoNConfig(c1=1.0)
    with pytest.raises(ConfigError):
        CMoNConfig(min_update_fraction=1.5)
    with pytest.raises(ConfigError):
        CMoNConfig(threshold_mode="sometimes")
    for bad in ({"alpha": 0.0}, {"beta": 0.0}, {"eps_abs": -0.1},
                {"eps_rel": math.inf}, {"eps_abs": math.nan}):
        with pytest.raises(ConfigError):
            CMoNConfig(**bad)
    # a zero tolerance is legal: it forces full updates
    CMoNConfig(eps_abs=0.0, eps_rel=0.0)


def test_direction_vectors_shapes(rng):
    blocks = rng.standard_normal((4, 3, 5))
    dw = rng.standard_normal((4, 5))
    seeds = rng.standard_normal((4, 3))
    dir_pri, dir_dual = cmon.direction_vectors(blocks, dw, seeds)
    npt.assert_allclose(dir_pri, np.einsum('kxw,kw->kx', blocks, dw))
    npt.assert_allclose(dir_dual, np.einsum('kx,kxw->kw', seeds, blocks))


def test_stacked_norm_bound_on_kept_blocks(pendulum, rng):
    # a kept block's update error along the step is controlled by its
    # measure: over any kept set, ||stack(P_k q_k)|| <= 2 eta ||stack(V_k)||
    cfg = intg.IntegratorConfig(dt=0.05, substeps=4)
    N = 6
    xs = np.empty((N + 1, 4))
    xs[0] = [0.0, 0.5, 0.0, 0.0]
    us = rng.uniform(-2.0, 2.0, (N, 1))
    for k in range(N):
        xs[k + 1] = intg.integrate_batch(pendulum, xs[k], us[k], cfg)[0]
    q = 1e-3 * rng.standard_normal((N, 5))
    xs_b = xs.copy()
    xs_b[:-1] += q[:, :4]
    us_b = us + q[:, 4:]
    phi_a, S_a = sensitivities(pendulum, xs[:-1], us, cfg)
    phi_b, S_b = sensitivities(pendulum, xs_b[:-1], us_b, cfg)
    V = np.einsum('kxw,kw->kx', S_a, q)
    kappa = cmon.primal_cmon(phi_b, phi_a, V)
    assert np.all(kappa > 0)
    Pq = np.einsum('kxw,kw->kx', S_b - S_a, q)
    for eta in (1.05 * kappa.max(), 1.01 * np.median(kappa)):
        kept = kappa <= eta
        assert kept.any()
        lhs = np.linalg.norm(Pq[kept])
        rhs = 2.0 * eta * np.linalg.norm(V[kept])
        assert lhs <= rhs


def test_refresh_count_monotone_in_tolerance():
    cfg = cmon.CMoNConfig(rho0=2.0, gamma0=1.5)
    kappa = np.array([0.02, 0.4, 0.11, 0.27, 0.9, 0.005])
    kdual = np.array([0.3, 0.01, 0.22, 0.15, 0.08, 0.4])
    counts = []
    for e_bar in (0.0, 0.05, 0.2, 0.8, 3.0, 1e6):
        ep, ed = cmon.thresholds(cfg, e_bar, v_pri_norm=0.7,
                                 v_dual_norm=1.3)
        counts.append(int(cmon.update_decision(kappa, kdual, ep, ed).sum()))
    assert counts == sorted(counts, reverse=True)
    assert counts[0] == 6     # zero tolerance refreshes every block
    assert counts[-1] == 0    # huge tolerance keeps every block


def test_refresh_set_stable_between_measure_gaps():
    # the decision only depends on how the threshold orders the measures,
    # so moving it inside a gap changes nothing
    kappa = np.array([0.1, 0.3, 0.5, 0.7])
    kdual = np.zeros(4)
    base = cmon.update_decision(kappa, kdual, 0.4, np.inf)
    npt.assert_array_equal(base, [False, False, True, True])
    for eta in (0.301, 0.35, 0.45, 0.499):
        npt.assert_array_equal(
            cmon.update_decision(kappa, kdual, eta, np.inf), base)
