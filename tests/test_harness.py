"""Benchmark harness tests: config loading, logging, trials, CLI."""
import dataclasses
import json

import numpy as np
import numpy.testing as npt
import pytest
import yaml

from conftest import SCENARIO_DIR
from nmpckit import cli, harness, transcription as trc
from nmpckit.errors import ConfigError
from nmpckit.harness import (SimulationLog, closed_loop_simulate,
                             export_log_csv, load_scenario, parse_log_csv,
                             perturbed_chain_state, randomized_chain_trials,
                             stabilizing_time, write_manifest)

ALL_SCENARIOS = ["pendulum_n40.yaml", "pendulum_n120.yaml",
                 "chain_n40.yaml", "chain_n80.yaml"]


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_shipped_scenarios_load(name):
    s = load_scenario(SCENARIO_DIR / name)
    assert s.horizon >= 2
    assert s.model.n_x in (4, 27)
    assert s.scheme.scheme == "cmon"
    assert s.raw_text    # byte-exact echo retained for the manifest


def test_unknown_scenario_keys_rejected(tmp_path):
    doc = yaml.safe_load((SCENARIO_DIR / "pendulum_n40.yaml").read_text())
    doc["surprise"] = 1
    p = tmp_path / "bad.yaml"
    p.write_text(yaml.safe_dump(doc))
    with pytest.raises(ConfigError):
        load_scenario(p)


def test_missing_file_raises_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_scenario(tmp_path / "nope.yaml")


def _short_pendulum(duration=0.5, scheme=None, **kw):
    s = load_scenario(SCENARIO_DIR / "pendulum_n40.yaml")
    s.duration = duration
    if scheme is not None:
        s.scheme = dataclasses.replace(s.scheme, scheme=scheme)
    for k, v in kw.items():
        setattr(s, k, v)
    return s


def test_closed_loop_log_shapes():
    s = _short_pendulum(duration=0.5)
    log = closed_loop_simulate(s)
    n = s.n_instants
    assert log.times.shape == (n,)
    assert log.states.shape == (n + 1, 4)
    assert log.controls.shape == (n, 1)
    assert log.ref_windows.shape == (n, s.horizon + 1, 4)
    assert not log.failed
    for col in log.diag.values():
        assert col.shape == (n,)
    # horizon passes per instant: the nominal integration, plus one
    # adjoint sweep once stale blocks need exact gradient rows
    x0 = np.array([0.05, 0.1, 0.0, 0.0])
    for scheme, expect in (("rti", [1, 1, 1]), ("adj", [1, 2, 2])):
        log = closed_loop_simulate(_short_pendulum(duration=0.15,
                                                   scheme=scheme, x0=x0))
        npt.assert_array_equal(log.diag["integration_calls"], expect)


def test_reference_windows_shift_by_one():
    s = _short_pendulum(duration=1.0)
    log = closed_loop_simulate(s)
    Nh = s.horizon
    for i in range(1, log.n_instants):
        npt.assert_array_equal(log.ref_windows[i, :Nh],
                               log.ref_windows[i - 1, 1:])


def test_fixed_seed_is_bit_identical():
    a = closed_loop_simulate(_short_pendulum(duration=1.0))
    b = closed_loop_simulate(_short_pendulum(duration=1.0))
    npt.assert_array_equal(a.states, b.states)
    npt.assert_array_equal(a.controls, b.controls)
    for col in a.diag:
        npt.assert_array_equal(a.diag[col], b.diag[col],
                               err_msg=col)


def test_dto_oracle_is_passive():
    # the oracle re-solves on the side; the closed loop must not change
    base = closed_loop_simulate(_short_pendulum(duration=1.0))
    s = _short_pendulum(duration=1.0)
    s.scheme = dataclasses.replace(s.scheme, track_dto=True)
    tracked = closed_loop_simulate(s)
    npt.assert_array_equal(base.states, tracked.states)
    npt.assert_array_equal(base.controls, tracked.controls)
    assert np.isfinite(tracked.diag["dto_e"]).all()
    assert np.isnan(base.diag["dto_e"]).all()


def test_nonconvex_subproblem_ends_loop_as_recorded_failure(monkeypatch):
    # from the third subproblem on, one stage Hessian is negative definite;
    # the KKT factorization fails and the loop records a QP failure
    builds = []
    gauss_newton = trc.gauss_newton_hessian

    def poisoned(traj, model):
        stage, term = gauss_newton(traj, model)
        builds.append(1)
        if len(builds) >= 3:
            stage[3] = -stage[3]
        return stage, term

    monkeypatch.setattr(trc, "gauss_newton_hessian", poisoned)
    log = closed_loop_simulate(_short_pendulum(
        duration=0.5, scheme="rti", init_mode="steady"))
    assert log.failed
    assert log.failure_reason.startswith("QPNonconvergenceError")
    assert log.n_instants == 2
    assert log.states.shape == (3, 4)


def _synthetic_log(norms, t_s=0.2):
    n = len(norms)
    return SimulationLog(
        t_s=t_s, times=np.arange(n) * t_s,
        states=np.zeros((n + 1, 2)),
        controls=np.asarray(norms, dtype=float)[:, None],
        diag={}, ref_windows=np.zeros((n, 0, 2)))


def test_stabilizing_time_examples():
    assert stabilizing_time(_synthetic_log([0.0] * 5), 0.1, 50.0) == 0.0
    assert stabilizing_time(_synthetic_log([1.0] * 5), 0.1, 50.0) == 50.0
    log = _synthetic_log([0.5, 0.05, 0.2, 0.05, 0.05])
    assert stabilizing_time(log, 0.1, 50.0) == pytest.approx(0.6)


def test_stabilizing_time_failure_is_cap():
    log = _synthetic_log([0.0] * 3)
    log.failed = True
    assert stabilizing_time(log, 0.1, 15.0) == 15.0


def test_csv_round_trip_is_exact(tmp_path):
    s = _short_pendulum(duration=0.5)
    s.scheme = dataclasses.replace(s.scheme, track_dto=True)
    log = closed_loop_simulate(s)
    path = tmp_path / "log.csv"
    export_log_csv(log, path)
    back = parse_log_csv(path)
    npt.assert_array_equal(back.times, log.times)
    npt.assert_array_equal(back.states, log.states)
    npt.assert_array_equal(back.controls, log.controls)
    for col in log.diag:
        npt.assert_array_equal(back.diag[col], log.diag[col], err_msg=col)
    assert back.t_s == log.t_s


def test_export_empty_log_header_only(tmp_path):
    s = _short_pendulum(duration=0.0)
    log = closed_loop_simulate(s)
    assert log.n_instants == 0
    path = tmp_path / "empty.csv"
    export_log_csv(log, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("time,x0")
    assert len(lines) == 2      # header plus the initial-state row


def test_chain_trials_deterministic_and_scheme_independent():
    s = load_scenario(SCENARIO_DIR / "chain_n40.yaml")
    x_a = perturbed_chain_state(s, 3)
    x_b = perturbed_chain_state(s, 3)
    npt.assert_array_equal(x_a, x_b)
    # the perturbation never depends on the scheme
    s_rti = dataclasses.replace(s, scheme=dataclasses.replace(
        s.scheme, scheme="rti"))
    npt.assert_array_equal(perturbed_chain_state(s_rti, 3), x_a)
    assert not np.array_equal(perturbed_chain_state(s, 4), x_a)
    # amplitudes bound the perturbation
    par = s.model.meta["params"]
    x_ss = s.schedule.states[0]
    dev = np.abs(x_a - x_ss)
    assert dev[:3 * par.n].max() <= s.noise_pos
    assert dev[3 * par.n:].max() <= s.noise_vel


def test_chain_trials_steady_start_stabilizes_immediately():
    s = load_scenario(SCENARIO_DIR / "chain_n40.yaml")
    s.noise_pos = 0.0
    s.noise_vel = 0.0
    s.duration = 2.0
    s.stabilize_cap = 2.0
    summary = randomized_chain_trials(s, trials=1)
    assert summary.n_failures == 0
    assert summary.t_st[0] == 0.0


def test_trials_rejected_for_pendulum():
    s = _short_pendulum()
    with pytest.raises(ConfigError):
        randomized_chain_trials(s, trials=2)


def test_manifest_echoes_config(tmp_path):
    s = load_scenario(SCENARIO_DIR / "pendulum_n40.yaml")
    path = tmp_path / "manifest.json"
    write_manifest(s, path, extra={"note": 1})
    doc = json.loads(path.read_text())
    assert doc["config_echo"] == (SCENARIO_DIR / "pendulum_n40.yaml").read_text()
    assert doc["seed"] == s.seed
    assert doc["scheme"] == "cmon"
    assert doc["note"] == 1


def test_cli_single_run(tmp_path):
    scen = tmp_path / "short.yaml"
    doc = yaml.safe_load((SCENARIO_DIR / "pendulum_n40.yaml").read_text())
    doc["duration"] = 0.5
    scen.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    rc = cli.main([str(scen), "--scheme", "rti", "--out", str(out)])
    assert rc == 0
    logs = list(out.glob("*_log.csv"))
    assert len(logs) == 1
    manifest = json.loads(next(out.glob("*_manifest.json")).read_text())
    assert manifest["scheme"] == "rti"
    parsed = parse_log_csv(logs[0])
    assert parsed.n_instants == 10


def test_cli_bad_config_exit_code(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("model: {kind: pendulum}\n")
    assert cli.main([str(bad)]) == 2
    assert cli.main([str(tmp_path / "missing.yaml")]) == 2


def test_cli_rejects_bad_trial_count(tmp_path):
    scen = SCENARIO_DIR / "pendulum_n40.yaml"
    assert cli.main([str(scen), "--trials", "0"]) == 2


def test_plant_matches_model_without_mismatch():
    # with the substep factor at 1 the plant is exactly the controller's
    # predictor, so replaying the logged controls reproduces the log
    from nmpckit import integrator as intg

    s = _short_pendulum(duration=1.0, scheme="rti")
    s.plant_substep_factor = 1
    log = closed_loop_simulate(s)
    pred = intg.integrate_batch(s.model, log.states[:-1], log.controls,
                                s.integrator())
    npt.assert_array_equal(pred, log.states[1:])


def test_plant_mismatch_is_refinement_only():
    # the default plant only refines the integration grid; the gap between
    # the controller predictor and the plant is within the predictor's own
    # discretization error against a much finer reference
    from nmpckit import integrator as intg

    s = _short_pendulum(duration=1.0, scheme="rti")
    assert s.plant_substep_factor == 4
    log = closed_loop_simulate(s)
    cfg = s.integrator()
    pred = intg.integrate_batch(s.model, log.states[:-1], log.controls, cfg)
    fine = intg.IntegratorConfig(dt=cfg.dt, substeps=cfg.substeps * 16)
    ref = intg.integrate_batch(s.model, log.states[:-1], log.controls, fine)
    gap = np.abs(pred - log.states[1:]).max()
    assert gap <= 1.5 * np.abs(pred - ref).max() + 1e-12
