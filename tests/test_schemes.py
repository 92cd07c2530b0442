"""Scheme-level tests: solver loops, controller stepping, counters."""
import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from conftest import SCENARIO_DIR
from nmpckit import harness, integrator as intg, schemes
from nmpckit.cmon import CMoNConfig
from nmpckit.errors import ConfigError, DivergenceError
from nmpckit.models import ChainParams, chain_steady_state, make_chain_model
from nmpckit.perturbation import build_m, conditioning_constants
from nmpckit.schemes import (OCProblem, SchemeConfig, controller_step,
                             initialize_controller, sqp_solve,
                             subproblem_constants)
from nmpckit.transcription import Multipliers, References, Trajectory

N = 10
CFG = intg.IntegratorConfig(dt=0.05, substeps=4)


def _pendulum_ocp(pendulum, x_hat=(0.0, 0.4, 0.0, 0.0)):
    refs = References(np.zeros((N + 1, 4)), np.zeros((N, 1)))
    return OCProblem(model=pendulum, integ=CFG,
                     x_hat=np.asarray(x_hat, dtype=float), refs=refs)


def _steady_guess(pendulum, x_hat):
    xs = np.repeat(np.asarray(x_hat, dtype=float)[None], N + 1, axis=0)
    us = np.zeros((N, 1))
    return Trajectory(xs, us), Multipliers.zeros(N, 4, pendulum.n_r)


def _resolved(cfg, model, traj0, mult0, x_hat, refs, integ=CFG):
    """``cfg`` with the conditioning constants of the subproblem a first
    step solves at this point, where its thresholds need them; this is
    what ``sqp_solve`` does from its start point."""
    if not cfg.lacks_constants:
        return cfg
    return cfg.with_constants(*subproblem_constants(
        model, integ, cfg, traj0, mult0, x_hat, refs))


def test_exact_sqp_converges(pendulum):
    ocp = _pendulum_ocp(pendulum)
    traj0, mult0 = _steady_guess(pendulum, ocp.x_hat)
    res = sqp_solve(ocp, traj0, mult0, SchemeConfig("rti", qp_tol=1e-10),
                    tol=1e-8)
    assert res.converged
    assert res.kkt_trace[-1] <= 1e-8
    assert res.iterations < 50
    # every iteration computes every block; the first computes them for
    # the first time, which is no refresh
    assert res.sens_blocks == res.iterations * N + N
    assert res.refresh_counts == [0] + [N] * (res.iterations - 1)


def test_zero_tolerance_partial_update_matches_exact(pendulum):
    ocp = _pendulum_ocp(pendulum)
    traj0, mult0 = _steady_guess(pendulum, ocp.x_hat)
    exact = sqp_solve(ocp, traj0, mult0, SchemeConfig("rti", qp_tol=1e-8),
                      tol=1e-8)
    zero = sqp_solve(ocp, traj0.copy(), mult0.copy(),
                     SchemeConfig("cmon", qp_tol=1e-8,
                                  cmon=CMoNConfig(eps_abs=0.0, eps_rel=0.0)),
                     tol=1e-8)
    assert zero.converged
    assert zero.iterations == exact.iterations
    npt.assert_array_equal(zero.traj.xs, exact.traj.xs)
    npt.assert_array_equal(zero.traj.us, exact.traj.us)
    npt.assert_array_equal(zero.mult.lam, exact.mult.lam)
    npt.assert_array_equal(zero.kkt_trace, exact.kkt_trace)


def test_partial_update_solver_saves_evaluations(pendulum):
    ocp = _pendulum_ocp(pendulum, x_hat=(0.0, 0.9, 0.0, 0.0))
    traj0, mult0 = _steady_guess(pendulum, ocp.x_hat)
    exact = sqp_solve(ocp, traj0, mult0, SchemeConfig("rti", qp_tol=1e-8),
                      tol=1e-6)
    part = sqp_solve(ocp, traj0.copy(), mult0.copy(),
                     SchemeConfig("cmon", qp_tol=1e-8,
                                  cmon=CMoNConfig(eps_abs=0.1, eps_rel=0.1)),
                     tol=1e-6)
    assert exact.converged and part.converged
    assert part.sens_blocks < exact.sens_blocks


def test_divergence_guard_raises_with_trace(pendulum, monkeypatch):
    ocp = _pendulum_ocp(pendulum)
    traj0, mult0 = _steady_guess(pendulum, ocp.x_hat)
    bogus = iter(float(v) for v in range(1, 100))
    monkeypatch.setattr(schemes, "_sqp_residual",
                        lambda qp: next(bogus))
    with pytest.raises(DivergenceError) as exc:
        sqp_solve(ocp, traj0, mult0, SchemeConfig("cmon", qp_tol=1e-10),
                  tol=1e-12, max_iter=50)
    assert exc.value.log is not None
    assert len(exc.value.log) >= 6


def test_initialize_controller_auto_constants(pendulum):
    cfg = SchemeConfig(scheme="cmon")
    x_hat = np.array([0.0, 0.3, 0.0, 0.0])
    traj0, mult0 = _steady_guess(pendulum, x_hat)
    refs0 = References(np.zeros((N + 1, 4)), np.zeros((N, 1)))
    # automatic thresholds cannot start without the constants, and no
    # step computes them
    with pytest.raises(ConfigError):
        initialize_controller(pendulum, CFG, cfg, traj0, mult0)
    cfg = _resolved(cfg, pendulum, traj0, mult0, x_hat, refs0)
    assert np.isfinite(cfg.cmon.rho0) and cfg.cmon.rho0 > 0
    assert cfg.cmon.gamma0 >= 1.0
    state = initialize_controller(pendulum, CFG, cfg, traj0, mult0)
    n_w = N * 5 + 4
    assert state.n_dim == n_w + 4 * N + (N + 1) * 4
    assert state.e_bar >= 0.1 * np.sqrt(state.n_dim)
    controller_step(state, x_hat, refs0)


def _forbidden(*args, **kwargs):
    raise AssertionError("set-up evaluated a kernel")


@pytest.mark.parametrize("kind", ["rti", "ml", "adj", "cmon"])
def test_initialize_controller_evaluates_nothing(pendulum, kind,
                                                 monkeypatch):
    # set-up only copies the iterate; the first step computes every block,
    # for the first time, so it refreshes none
    cfg = SchemeConfig(scheme=kind, ml_interval=2)
    x_hat = np.array([0.0, 0.3, 0.0, 0.0])
    traj0, mult0 = _steady_guess(pendulum, x_hat)
    refs = References(np.zeros((N + 1, 4)), np.zeros((N, 1)))
    cfg = _resolved(cfg, pendulum, traj0, mult0, x_hat, refs)
    with monkeypatch.context() as mp:
        for name in ("integrate_batch", "stage_jacobians",
                     "forward_sensitivity_batch"):
            mp.setattr(intg, name, _forbidden)
        state = initialize_controller(pendulum, CFG, cfg, traj0, mult0)
    d = controller_step(state, x_hat, refs)
    assert (d.sens_blocks, d.refreshed, d.refresh_fraction) == (N, 0, 0.0)


@pytest.mark.parametrize("plant", ["pendulum", "chain"])
def test_preparation_constants_match_first_subproblem(pendulum, plant,
                                                      monkeypatch):
    # the constants computed at a point are those of the one subproblem
    # that the first instant from that point solves
    if plant == "pendulum":
        model, ref = pendulum, np.zeros(4)
        x_hat = np.array([0.05, 0.3, 0.0, 0.0])
    else:
        params = ChainParams(n=3)
        model = make_chain_model(params)
        ref = chain_steady_state(params, [0.6, 0.0, 0.0])
        x_hat = ref.copy()
        x_hat[:6] += 0.05
    traj0 = Trajectory(np.tile(ref, (N + 1, 1)), np.zeros((N, model.n_u)))
    mult0 = Multipliers.zeros(N, model.n_x, model.n_r)
    refs = References(np.tile(ref, (N + 1, 1)), np.zeros((N, model.n_u)))
    solved = []
    solve = schemes.solve

    def recording(qp, *args, **kwargs):
        sol = solve(qp, *args, **kwargs)
        solved.append((qp, sol))
        return sol

    cfg = _resolved(SchemeConfig(scheme="cmon"), model, traj0, mult0, x_hat,
                    refs)
    monkeypatch.setattr(schemes, "solve", recording)
    state = initialize_controller(model, CFG, cfg, traj0, mult0)
    controller_step(state, x_hat, refs)
    assert len(solved) == 1
    qp, sol = solved[0]
    assert (cfg.cmon.rho0, cfg.cmon.gamma0) == \
        conditioning_constants(build_m(qp, sol))


def test_rti_step_counters(pendulum):
    cfg = SchemeConfig(scheme="rti")
    x_hat = np.array([0.0, 0.3, 0.0, 0.0])
    traj0, mult0 = _steady_guess(pendulum, x_hat)
    state = initialize_controller(pendulum, CFG, cfg, traj0, mult0)
    for i in range(3):
        d = controller_step(state, x_hat, References(np.zeros((N + 1, 4)),
                                                     np.zeros((N, 1))))
        # instant 0 computes every block for the first time: no refresh
        assert d.refreshed == (N if i else 0)
        assert d.refresh_fraction == (1.0 if i else 0.0)
        assert d.sens_blocks == N
        assert d.adjoint_seeds == 0
        assert d.instant == i


def test_adj_step_counters(pendulum):
    cfg = SchemeConfig(scheme="adj")
    x_hat = np.array([0.0, 0.3, 0.0, 0.0])
    traj0, mult0 = _steady_guess(pendulum, x_hat)
    state = initialize_controller(pendulum, CFG, cfg, traj0, mult0)
    seen = []
    for _ in range(3):
        d = controller_step(state, x_hat + [0.01, 0.0, 0.0, 0.0],
                            References(np.zeros((N + 1, 4)),
                                       np.zeros((N, 1))))
        assert d.refreshed == 0
        seen.append(d.adjoint_seeds)
    # blocks stay frozen where the first step computed them, and every
    # later instant sweeps every gradient row
    assert seen[0] == 0
    assert seen[1] == N and seen[2] == N


@pytest.mark.parametrize("kind, interval", [("adj", 1), ("ml", 2)])
def test_kept_blocks_are_swept_at_rest(kind, interval):
    # a block counts as exact only at the instant that computes it: an
    # instant that computes none sweeps a gradient row at every node, even
    # when the plant rests where the blocks were computed
    s = harness.load_scenario(SCENARIO_DIR / "pendulum_n40.yaml")
    s.duration = 0.5
    s.scheme = dataclasses.replace(s.scheme, scheme=kind,
                                   ml_interval=interval)
    log = harness.closed_loop_simulate(s)
    assert not log.failed and log.n_instants == 10
    npt.assert_array_equal(log.states, 0.0)
    npt.assert_array_equal(log.controls, 0.0)
    computes = np.arange(10) % interval == 0 if kind == "ml" \
        else np.arange(10) == 0
    npt.assert_array_equal(log.diag["sens_blocks"],
                           np.where(computes, s.horizon, 0))
    npt.assert_array_equal(log.diag["adjoint_seeds"],
                           np.where(computes, 0, s.horizon))
    npt.assert_array_equal(log.diag["integration_calls"],
                           np.where(computes, 1, 2))


def test_step_recomputes_only_masked_blocks(pendulum, monkeypatch):
    # a step writes the blocks of the nodes its decision masks, from the
    # trajectory it linearizes at, and leaves every other block as it was
    x_hat = np.array([0.0, 0.3, 0.0, 0.0])
    refs = References(np.zeros((N + 1, 4)), np.zeros((N, 1)))
    traj0, mult0 = _steady_guess(pendulum, x_hat)
    cfg = _resolved(SchemeConfig(scheme="cmon"), pendulum, traj0, mult0,
                    x_hat, refs)
    state = initialize_controller(pendulum, CFG, cfg, traj0, mult0)
    controller_step(state, x_hat, refs)
    mask = np.arange(N) % 3 == 1
    monkeypatch.setattr(schemes, "update_decision",
                        lambda *args, **kwargs: mask.copy())
    before, traj = state.blocks.copy(), state.traj.copy()
    d = controller_step(state, x_hat, refs)
    assert (d.sens_blocks, d.refreshed) == (mask.sum(), mask.sum())
    _, stages = intg.integrate_batch(pendulum, traj.xs[:-1], traj.us, CFG)
    exact = intg.forward_sensitivity_batch(
        pendulum, intg.stage_jacobians(pendulum, stages, traj.us,
                                       np.zeros((N, 16, 4, 5))), CFG)
    npt.assert_array_equal(state.blocks[mask], exact[mask])
    npt.assert_array_equal(state.blocks[~mask], before[~mask])
    assert not np.array_equal(before[mask], exact[mask])


def test_ml_interval_two_alternates(pendulum):
    cfg = SchemeConfig(scheme="ml", ml_interval=2)
    x_hat = np.array([0.0, 0.3, 0.0, 0.0])
    traj0, mult0 = _steady_guess(pendulum, x_hat)
    state = initialize_controller(pendulum, CFG, cfg, traj0, mult0)
    refs = References(np.zeros((N + 1, 4)), np.zeros((N, 1)))
    steps = [controller_step(state, x_hat, refs) for _ in range(4)]
    assert [d.sens_blocks for d in steps] == [N, 0, N, 0]
    # the first computation of a block is no refresh
    assert [d.refreshed for d in steps] == [0, 0, N, 0]


def test_ml_interval_one_matches_rti_stepwise(pendulum):
    x_hat = np.array([0.0, 0.3, 0.0, 0.0])
    refs = References(np.zeros((N + 1, 4)), np.zeros((N, 1)))
    states = {}
    for kind, interval in (("rti", 1), ("ml", 1)):
        cfg = SchemeConfig(scheme=kind, ml_interval=interval)
        traj0, mult0 = _steady_guess(pendulum, x_hat)
        states[kind] = initialize_controller(pendulum, CFG, cfg, traj0,
                                             mult0)
    for _ in range(5):
        d_rti = controller_step(states["rti"], x_hat, refs)
        d_ml = controller_step(states["ml"], x_hat, refs)
        assert d_rti.dy_norm == d_ml.dy_norm
    npt.assert_array_equal(states["rti"].traj.xs, states["ml"].traj.xs)
    npt.assert_array_equal(states["rti"].mult.lam, states["ml"].mult.lam)


def test_cmon_step_quiets_down(pendulum):
    # constant measurement and reference: the partial scheme stops
    # refreshing once the iterate settles
    x_hat = np.array([0.0, 0.3, 0.0, 0.0])
    traj0, mult0 = _steady_guess(pendulum, x_hat)
    refs0 = References(np.zeros((N + 1, 4)), np.zeros((N, 1)))
    cfg = _resolved(SchemeConfig(scheme="cmon"), pendulum, traj0, mult0,
                    x_hat, refs0)
    state = initialize_controller(pendulum, CFG, cfg, traj0, mult0)
    fracs = [controller_step(state, x_hat, refs0).refresh_fraction
             for _ in range(12)]
    assert fracs[-1] == 0.0
    assert sum(fracs) < 12.0


def test_linear_plant_schemes_coincide(rng):
    # on a linear plant every scheme's kept sensitivities stay exact, so
    # all four controllers produce identical closed-loop trajectories
    from nmpckit.models import ModelSpec

    A = rng.uniform(-0.6, 0.6, (3, 3))
    B = rng.uniform(-0.5, 0.5, (3, 2))

    def rhs(x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        return x @ A.T + u @ B.T

    def jac(x, u, out):
        out[..., :3] = A
        out[..., 3:] = B

    model = ModelSpec(n_x=3, n_u=2, rhs=rhs, rhs_jacobians=jac,
                      stage_weights=np.ones(5), terminal_weights=np.ones(3))
    horizon = 8
    integ = intg.IntegratorConfig(dt=0.1, substeps=2)
    refs = References(np.zeros((horizon + 1, 3)), np.zeros((horizon, 2)))
    x0 = np.array([0.8, -0.5, 0.3])
    logs = {}
    for kind, m in (("rti", 1), ("ml", 2), ("adj", 1), ("cmon", 1)):
        traj0 = Trajectory(np.tile(x0, (horizon + 1, 1)),
                           np.zeros((horizon, 2)))
        mult0 = Multipliers.zeros(horizon, 3, 0)
        cfg = _resolved(SchemeConfig(scheme=kind, ml_interval=m,
                                     qp_tol=1e-10),
                        model, traj0, mult0, x0, refs, integ=integ)
        state = initialize_controller(model, integ, cfg, traj0, mult0)
        x = x0.copy()
        xs_log = [x.copy()]
        for _ in range(10):
            controller_step(state, x, refs)
            u0 = state.traj.us[0].copy()
            x = intg.integrate_batch(model, x[None], u0[None], integ)[0][0]
            xs_log.append(x.copy())
        logs[kind] = np.array(xs_log)
    for kind in ("ml", "adj", "cmon"):
        npt.assert_allclose(logs[kind], logs["rti"], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("kind", ["rti", "cmon"])
def test_offline_iteration_matches_controller_step(pendulum, kind):
    # the offline loop and the closed loop take the same step: one
    # iteration of one equals one instant of the other, bit for bit
    ocp = _pendulum_ocp(pendulum, x_hat=(0.05, 0.5, 0.0, 0.0))
    traj0, mult0 = _steady_guess(pendulum, (0.0, 0.3, 0.0, 0.0))
    cfg = SchemeConfig(scheme=kind)
    res = sqp_solve(ocp, traj0, mult0, cfg, tol=0.0, max_iter=1)
    assert res.iterations == 1
    # sqp_solve takes the constants from its own start point
    cfg = _resolved(cfg, pendulum, traj0, mult0, ocp.x_hat, ocp.refs)
    state = initialize_controller(pendulum, CFG, cfg, traj0, mult0)
    controller_step(state, ocp.x_hat, ocp.refs)
    npt.assert_array_equal(res.traj.xs, state.traj.xs)
    npt.assert_array_equal(res.traj.us, state.traj.us)
    npt.assert_array_equal(res.mult.lam, state.mult.lam)
    npt.assert_array_equal(res.mult.mu, state.mult.mu)


@pytest.mark.parametrize("kind, interval",
                         [("rti", 1), ("ml", 2), ("adj", 1), ("cmon", 1)])
def test_closed_loop_work_counts(kind, interval, monkeypatch):
    # per controller instant: one RK4 pass (four rhs calls per substep),
    # then one forward sweep if any block is refreshed and one reverse
    # sweep if any adjoint row is needed; every node is one or the other,
    # so every instant evaluates the Jacobians once, at all N x 4·substeps
    # stage states; the logged adjoint workload is nodes x seeds of the
    # reverse sweep
    s = harness.load_scenario(SCENARIO_DIR / "pendulum_n40.yaml")
    s.duration = 0.3
    s.scheme = dataclasses.replace(s.scheme, scheme=kind,
                                   ml_interval=interval)
    model, N = s.model, s.horizon
    calls = dict(rhs=0, jac=0, integrate=0, forward=0, adjoint=0, seeds=0,
                 blocks=0)
    jac_batches = []

    def counted(fn, name, work=None):
        # work: (counter, count taken from the positional arguments)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if work is not None:
                calls[work[0]] += work[1](args)
            return fn(*args, **kwargs)
        return wrapper

    model.rhs = counted(model.rhs, "rhs")
    jacobians = counted(model.rhs_jacobians, "jac")

    def recorded(x, u, out):
        jac_batches.append(np.shape(x)[:-1])
        return jacobians(x, u, out)

    model.rhs_jacobians = recorded
    for attr, name, work in (
            ("integrate_batch", "integrate", None),
            ("forward_sensitivity_batch", "forward",
             ("blocks", lambda a: a[1].shape[0])),
            ("adjoint_batch", "adjoint",
             ("seeds", lambda a: a[4].shape[0] * a[4].shape[1]))):
        monkeypatch.setattr(intg, attr,
                            counted(getattr(intg, attr), name, work))
    steps = []
    step = harness.controller_step

    def stepping(*args):
        before = dict(calls)
        d = step(*args)
        steps.append((d, {k: calls[k] - before[k] for k in calls}))
        return d

    monkeypatch.setattr(harness, "controller_step", stepping)
    x0 = s.schedule.states[0] + np.array([0.05, 0.05, 0.0, 0.0])
    log = harness.closed_loop_simulate(s, x0)
    assert not log.failed and len(steps) == s.n_instants
    per_sweep = 4 * s.integrator().substeps
    assert set(jac_batches) == {(N, per_sweep)}
    for i, (d, c) in enumerate(steps):
        swept = d.adjoint_seeds > 0
        assert c["rhs"] == per_sweep
        assert c["jac"] == 1
        assert c["integrate"] == 1 and c["adjoint"] == swept
        assert c["seeds"] == d.adjoint_seeds
        assert c["blocks"] == d.sens_blocks
        assert d.integration_calls == 1 + swept
        if i == 0:
            # every scheme computes every block at the first instant, which
            # refreshes none of them, and needs no adjoint row
            assert (d.sens_blocks, d.adjoint_seeds, d.refreshed) == (N, 0, 0)
        elif kind == "rti" or (kind == "ml" and i % 2 == 0):
            assert (d.sens_blocks, d.adjoint_seeds) == (N, 0)
        elif kind in ("ml", "adj"):
            assert (d.sens_blocks, d.adjoint_seeds) == (0, N)
        else:
            # the dual-measure seeds and the gradient seeds share a sweep
            assert d.adjoint_seeds == 2 * N


def test_fixed_thresholds_skip_conditioning_constants(monkeypatch):
    # fixed thresholds never read the constants, so neither the first
    # instant of a closed loop nor the first iteration of sqp_solve
    # computes them
    def forbidden(*args, **kwargs):
        raise AssertionError("conditioning constants computed")

    monkeypatch.setattr(schemes, "conditioning_constants", forbidden)
    monkeypatch.setattr(schemes, "build_m", forbidden)
    s = harness.load_scenario(SCENARIO_DIR / "pendulum_n40.yaml")
    s.duration = 0.2
    s.scheme = dataclasses.replace(s.scheme, cmon=dataclasses.replace(
        s.scheme.cmon, threshold_mode="fixed", fixed_eta_pri=0.5,
        fixed_eta_dual=0.5, rho0=np.nan, gamma0=np.nan))
    log = harness.closed_loop_simulate(
        s, s.schedule.states[0] + np.array([0.05, 0.05, 0.0, 0.0]))
    assert not log.failed and log.n_instants == s.n_instants
    ocp = OCProblem(model=s.model, integ=s.integrator(),
                    x_hat=np.array([0.0, 0.3, 0.0, 0.0]),
                    refs=s.schedule.window(0.0, s.horizon, s.t_s))
    traj0 = Trajectory(np.tile(ocp.x_hat, (s.horizon + 1, 1)),
                       np.zeros((s.horizon, 1)))
    mult0 = Multipliers.zeros(s.horizon, 4, s.model.n_r)
    res = sqp_solve(ocp, traj0, mult0, s.scheme, tol=0.0, max_iter=3)
    assert res.iterations == 3


def _chain_controller():
    """A chain_n40 ``cmon`` controller at a noisy start, its measurement
    and its reference window."""
    s = harness.load_scenario(SCENARIO_DIR / "chain_n40.yaml")
    mult = Multipliers.zeros(s.horizon, s.model.n_x, s.model.n_r)
    state = initialize_controller(s.model, s.integrator(), s.scheme,
                                  harness.steady_horizon(s), mult)
    return (state, harness.perturbed_chain_state(s, 0),
            s.schedule.window(0.0, s.horizon, s.t_s))


def test_controller_reuses_its_stage_record(monkeypatch):
    # every step writes the same record, and every forward sweep reads it
    # or the state's gather buffer
    state, x, refs = _chain_controller()
    record, gathered = state.record, state.gathered
    assert record.shape == (40, 16, 27, 30) and not record.any()
    swept = []
    forward = intg.forward_sensitivity_batch

    def recorded(model, rec, cfg):
        swept.append(rec is record or (np.shares_memory(rec, gathered)
                                       and rec.shape[0] < 40))
        return forward(model, rec, cfg)

    monkeypatch.setattr(intg, "forward_sensitivity_batch", recorded)
    blocks = 0
    for _ in range(4):
        blocks += controller_step(state, x, refs).sens_blocks
        assert state.record is record and state.gathered is gathered
    assert all(swept) and 0 < len(swept) and blocks < 4 * 40


def test_controller_step_allocates_less_than_its_record():
    # after two warm-up steps no step allocates an array the size of the
    # stage record: the model writes into it and refreshed nodes are
    # gathered into a buffer the state owns
    import tracemalloc

    state, x, refs = _chain_controller()
    for _ in range(2):
        controller_step(state, x, refs)
    tracemalloc.start()
    try:
        controller_step(state, x, refs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < state.record.nbytes
