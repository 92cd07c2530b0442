"""Benchmark harness tests: config loading, logging, trials, CLI."""
import dataclasses
import json
import re

import numpy as np
import numpy.testing as npt
import pytest
import yaml

from conftest import SCENARIO_DIR, parse_log_csv
from nmpckit import cli, errors, harness, integrator as intg, schemes
from nmpckit.errors import ConfigError
from nmpckit.harness import (SimulationLog, closed_loop_simulate,
                             export_log_csv, load_scenario,
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


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                    reason="PyYAML built without libyaml")
@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_libyaml_parses_shipped_scenarios_alike(name):
    raw = (SCENARIO_DIR / name).read_text()
    assert yaml.load(raw, Loader=yaml.CSafeLoader) \
        == yaml.load(raw, Loader=yaml.SafeLoader)


@pytest.mark.parametrize("loader", ["CSafeLoader", "SafeLoader"])
def test_malformed_scenario_yaml_is_config_error(tmp_path, monkeypatch,
                                                 loader):
    if not hasattr(yaml, loader):
        pytest.skip("PyYAML built without libyaml")
    monkeypatch.setattr(harness, "_YAML_LOADER", getattr(yaml, loader))
    bad = tmp_path / "bad.yaml"
    bad.write_text("model: {kind: pendulum\nhorizon: [40\n")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_scenario(bad)
    assert cli.main([str(bad)]) == 2


def test_unknown_scenario_keys_rejected(tmp_path):
    doc = yaml.safe_load((SCENARIO_DIR / "pendulum_n40.yaml").read_text())
    doc["surprise"] = 1
    p = tmp_path / "bad.yaml"
    p.write_text(yaml.safe_dump(doc))
    with pytest.raises(ConfigError):
        load_scenario(p)


@pytest.mark.parametrize("block, key", [
    ("noise", "position_amplitud"), ("stabilize", "treshold"),
    ("reference", "control"), ("model", "forse_limit"),
    ("model", "control_limit"),
])
def test_unknown_nested_keys_rejected(tmp_path, block, key):
    # a typo in a nested block is an error, as at the top level; the
    # chain's control_limit is no pendulum key
    doc = yaml.safe_load((SCENARIO_DIR / "pendulum_n40.yaml").read_text())
    doc.setdefault(block, {})[key] = 1.0
    p = tmp_path / "bad.yaml"
    p.write_text(yaml.safe_dump(doc))
    with pytest.raises(ConfigError, match=f"unknown {block} keys.*{key}"):
        load_scenario(p)


def _reader_keys():
    """Every dotted key the scenario reader takes, over both model kinds;
    a block key is no key of its own."""
    def keys(prefix, table):
        for key, entry in table.items():
            if isinstance(entry, dict):
                yield from keys(f"{prefix}{key}.", entry)
            elif entry[1] is not dict:
                yield prefix + key

    found = {*keys("", harness._SCENARIO), *keys("scheme.", harness._SCHEME),
             *keys("scheme.cmon.", harness._CMON)}
    for kind in harness._MODELS:
        found.update(keys("model.", harness._MODEL[kind]),
                     keys("model.params.", harness._PARAMS[kind]),
                     keys("reference.", harness._REFERENCE[kind]))
    return found


def _readme_keys():
    """The keys README's "Scenario files" section documents: its table,
    with the ``model.params`` names in their row, and the ``scheme.cmon``
    bullets."""
    text = (SCENARIO_DIR.parent / "README.md").read_text()
    section = text.split("## Scenario files")[1].split("\n## ")[0]
    found = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            names, meaning = line.split("|")[1:3]
            for key in re.findall(r"`([^`]+)`", names):
                if key == "model.params":
                    found.update(f"{key}.{name}" for name
                                 in re.findall(r"`([^`]+)`", meaning))
                elif key != "scheme.cmon.*":
                    found.add(key)
        elif line.startswith("* `"):
            found.update(f"scheme.cmon.{name}" for name
                         in re.findall(r"`([^`]+)`", line.split(":")[0]))
    return found


def test_readme_documents_exactly_the_scenario_keys():
    # the reader takes its keys from dataclass fields, so a new field is
    # a new key; README's table has to follow
    assert _readme_keys() == _reader_keys()


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
                                                   scheme=scheme), x0)
        npt.assert_array_equal(log.diag["integration_calls"], expect)


@pytest.mark.parametrize("scheme", ["rti", "cmon"])
def test_step_norm_columns_split_dy_norm(scheme):
    # dw_norm and dlam_norm are parts of the stacked step that dy_norm
    # measures (the inequality-multiplier part makes up the rest)
    d = closed_loop_simulate(_short_pendulum(duration=0.5, scheme=scheme)).diag
    assert np.all(np.isfinite(d["dw_norm"]))
    assert np.all(np.isfinite(d["dlam_norm"]))
    assert np.all(d["dw_norm"] ** 2 + d["dlam_norm"] ** 2
                  <= d["dy_norm"] ** 2 * (1.0 + 1e-12))


@pytest.mark.parametrize("scheme", ["rti", "cmon"])
def test_pendulum_loop_qps_skip_the_interior_point(scheme):
    # no bound binds along the shipped pendulum loop, so the opening
    # empty-set polish answers every subproblem
    log = closed_loop_simulate(_short_pendulum(duration=3.0, scheme=scheme))
    assert not log.failed
    npt.assert_array_equal(log.diag["qp_iterations"], 1)


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


@pytest.mark.parametrize("kind", ["rti", "cmon"])
def test_dto_oracle_reuses_the_step_blocks(monkeypatch, kind):
    # the oracle takes the blocks the step computed as they are and
    # sweeps only the others, so each instant computes N blocks in all;
    # under rti the step's own sweep is the only one
    s = _short_pendulum(duration=0.5, scheme=kind)
    s.scheme = dataclasses.replace(s.scheme, track_dto=True)
    nodes, per_instant = [], []
    forward, step = intg.forward_sensitivity_batch, harness.controller_step

    def counted(model, record, cfg):
        nodes.append(record.shape[0])
        return forward(model, record, cfg)

    def stepping(*args):
        nodes.clear()
        d = step(*args)
        per_instant.append(list(nodes))
        return d

    monkeypatch.setattr(intg, "forward_sensitivity_batch", counted)
    monkeypatch.setattr(harness, "controller_step", stepping)
    log = closed_loop_simulate(s)
    assert not log.failed and len(per_instant) == log.n_instants
    for calls in per_instant:
        assert sum(calls) == s.horizon
        if kind == "rti":
            assert calls == [s.horizon]


def test_nonconvex_subproblem_ends_loop_as_recorded_failure(monkeypatch):
    # from the third subproblem on, one stage Hessian is negative definite;
    # the KKT factorization fails and the loop records a QP failure
    builds = []
    build_qp = schemes.build_qp

    def poisoned(*args):
        qp = build_qp(*args)
        builds.append(1)
        if len(builds) >= 3:
            qp.stage_hessians[3] = -qp.stage_hessians[3]
        return qp

    monkeypatch.setattr(schemes, "build_qp", poisoned)
    log = closed_loop_simulate(_short_pendulum(
        duration=0.5, scheme="rti", init_mode="steady"))
    assert log.failed
    assert log.failure_reason.startswith("QPNonconvergenceError")
    assert log.n_instants == 2
    assert log.states.shape == (3, 4)


def _unreachable(*args, **kwargs):
    raise AssertionError("the loop got past the failing call")


def test_setup_failure_ends_loop_as_recorded_failure(monkeypatch):
    # every subproblem gets a negative definite stage Hessian, so the first
    # QP of the perfect start's SQP fails before the controller is set up
    # (an offset start: at the reference the SQP solves no QP)
    build_qp = schemes.build_qp

    def poisoned(*args):
        qp = build_qp(*args)
        qp.stage_hessians[3] = -qp.stage_hessians[3]
        return qp

    monkeypatch.setattr(schemes, "build_qp", poisoned)
    monkeypatch.setattr(harness, "initialize_controller", _unreachable)
    s = _short_pendulum(duration=0.5, scheme="cmon", init_mode="perfect")
    x0 = s.schedule.states[0] + [0.05, 0.1, 0.0, 0.0]
    log = closed_loop_simulate(s, x0)
    assert log.failed
    assert log.failure_reason.startswith("QPNonconvergenceError")
    assert log.n_instants == 0
    npt.assert_array_equal(log.states, x0[None])


def test_lapack_failure_in_setup_ends_loop_as_recorded_failure():
    # a LAPACK routine that fails (dsbev in the Gram spectrum, say) raises
    # numpy's LinAlgError, not an NMPCError; the loop still records it when
    # it fails in instant 0, which computes every sensitivity block, or
    # before it, while the cmon conditioning constants of a scenario that
    # does not store them are computed
    def failing(*args):
        raise np.linalg.LinAlgError("LAPACK routine did not converge")

    for module, name in ((intg, "stage_jacobians"),
                         (schemes, "conditioning_constants")):
        s = _short_pendulum(duration=0.5, scheme="cmon", init_mode="steady")
        s.scheme = s.scheme.with_constants(None, None)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(module, name, failing)
            log = closed_loop_simulate(s)
        assert log.failed
        assert log.failure_reason.startswith("LinAlgError")
        assert log.n_instants == 0
        assert log.states.shape == (1, 4)


@pytest.mark.parametrize("scheme", ["rti", "cmon"])
@pytest.mark.parametrize("init_mode", ["perfect", "steady"])
def test_nan_measurement_ends_loop_as_recorded_failure(init_mode, scheme):
    x0 = np.array([np.nan, 0.0, 0.0, 0.0])
    log = closed_loop_simulate(
        _short_pendulum(duration=0.5, scheme=scheme, init_mode=init_mode),
        x0=x0)
    assert log.failed
    assert log.failure_reason.startswith("AssemblyError")
    assert log.n_instants == 0
    npt.assert_array_equal(log.states, x0[None])


def test_coincident_chain_masses_end_loop_as_recorded_failure():
    s = load_scenario(SCENARIO_DIR / "chain_n40.yaml")
    s.scheme = dataclasses.replace(s.scheme, scheme="rti")
    s.duration = 0.4
    x0 = s.schedule.states[0].copy()
    x0[3:6] = x0[0:3]       # second mass on top of the first
    log = closed_loop_simulate(s, x0=x0)
    assert log.failed
    assert log.failure_reason.startswith("SingularGeometryError")


# a copy that changes the horizon drops the stored pair and its dimension
_NO_CONSTANTS = {"scheme.cmon.rho0": None, "scheme.cmon.gamma0": None,
                 "scheme.cmon.n_dim": None}


def _write_yaml(tmp_path, name, base, **changes):
    # a None value drops the key from the file
    doc = yaml.safe_load((SCENARIO_DIR / base).read_text())
    for key, value in changes.items():
        *path, leaf = key.split(".")
        node = doc
        for part in path:
            node = node[part]
        if value is None:
            del node[leaf]
        else:
            node[leaf] = value
    scen = tmp_path / f"{name}.yaml"
    scen.write_text(yaml.safe_dump(doc))
    return scen


def _inconsistent_bounds(tmp_path):
    # |p| <= -0.5 has no solution: every subproblem is infeasible
    return _write_yaml(tmp_path, "bounds", "pendulum_n40.yaml",
                       **{"model.position_limit": -0.5, "horizon": 10,
                          "duration": 0.2}, **_NO_CONSTANTS)


@pytest.mark.parametrize("scheme", ["rti", "cmon"])
@pytest.mark.parametrize("init_mode", ["perfect", "steady"])
def test_inconsistent_bounds_end_loop_as_recorded_failure(tmp_path,
                                                          init_mode, scheme):
    s = load_scenario(_inconsistent_bounds(tmp_path))
    s.init_mode = init_mode
    s.scheme = dataclasses.replace(s.scheme, scheme=scheme)
    log = closed_loop_simulate(s)
    assert log.failed
    assert log.failure_reason.startswith("QPInfeasibleError")


@pytest.mark.parametrize("scheme", ["rti", "cmon"])
def test_integrator_blowup_ends_loop_as_recorded_failure(monkeypatch,
                                                         scheme):
    # a huge measured state only enters the embedding row and never the
    # integrator, so the model itself turns non-finite from instant 1 on
    s = _short_pendulum(duration=0.5, scheme=scheme, init_mode="steady")
    rhs, step = s.model.rhs, harness.controller_step
    blown = []

    def blowing_rhs(x, u):
        return np.full(np.shape(x), np.inf) if blown else rhs(x, u)

    def step_then_blow(state, x_hat, refs):
        if state.instant == 1:
            blown.append(True)
        return step(state, x_hat, refs)

    monkeypatch.setattr(s.model, "rhs", blowing_rhs)
    monkeypatch.setattr(harness, "controller_step", step_then_blow)
    log = closed_loop_simulate(s)
    assert log.failed
    assert log.failure_reason.startswith("IntegrationBlowupError")
    assert log.n_instants == 1


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
    # the documented columns, in StepDiagnostics field order
    assert lines[0] == (
        "time,x0,x1,x2,x3,u0,kkt,dy_norm,dw_norm,dlam_norm,refreshed,"
        "refresh_fraction,qp_iterations,integration_calls,sens_blocks,"
        "adjoint_seeds,kappa_max,kappa_dual_max,eta_pri,eta_dual,e_bar,"
        "dto_e,dto_ebar,dto_active_match")
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
    assert doc["trials"] == 1
    assert doc["track_dto"] is False
    assert (doc["rho0"], doc["gamma0"]) == (s.scheme.cmon.rho0,
                                            s.scheme.cmon.gamma0)
    assert doc["note"] == 1
    # overrides leave the echo as it was; the manifest records them
    s = load_scenario(SCENARIO_DIR / "chain_n40.yaml")
    s.trials = 2
    s.scheme = dataclasses.replace(s.scheme, track_dto=True)
    write_manifest(s, path)
    doc = json.loads(path.read_text())
    assert "trials: 10" in doc["config_echo"]
    assert doc["trials"] == 2
    assert doc["track_dto"] is True


def test_manifest_of_config_built_in_code_has_no_echo(tmp_path):
    # no file text to echo: the manifest says so instead of guessing one
    doc = yaml.safe_load((SCENARIO_DIR / "pendulum_n40.yaml").read_text())
    s = harness.scenario_from_dict(doc, name="in_code")
    assert s.raw_text == ""
    path = tmp_path / "manifest.json"
    write_manifest(s, path)
    manifest = json.loads(path.read_text())
    assert manifest["config_echo"] is None
    assert manifest["scenario"] == "in_code"
    assert manifest["scheme"] == "cmon"
    assert manifest["seed"] == 0


def test_cli_single_run(tmp_path):
    scen = tmp_path / "short.yaml"
    doc = yaml.safe_load((SCENARIO_DIR / "pendulum_n40.yaml").read_text())
    doc["duration"] = 0.5
    scen.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    rc = cli.main([str(scen), "--scheme", "rti", "--dto", "--out", str(out)])
    assert rc == 0
    logs = list(out.glob("*_log.csv"))
    assert len(logs) == 1
    manifest = json.loads(next(out.glob("*_manifest.json")).read_text())
    assert manifest["scheme"] == "rti"
    assert manifest["track_dto"] is True
    assert manifest["trials"] == 1
    # rti thresholds read no conditioning constants
    assert manifest["rho0"] is None and manifest["gamma0"] is None
    parsed = parse_log_csv(logs[0])
    assert parsed.n_instants == 10


def test_cli_nan_measurement_writes_failed_run(tmp_path):
    # a NaN start state fails the first assembly: the failed log keeps
    # no instant, and it exports like any other
    s = load_scenario(SCENARIO_DIR / "pendulum_n40.yaml")
    log = closed_loop_simulate(s, x0=[np.nan, 0.0, 0.0, 0.0])
    assert log.failed
    assert log.failure_reason.startswith("AssemblyError")
    export_log_csv(log, tmp_path / "nan_log.csv")
    assert parse_log_csv(tmp_path / "nan_log.csv").n_instants == 0


def test_cli_inconsistent_bounds_writes_failed_run(tmp_path):
    out = tmp_path / "out"
    assert cli.main([str(_inconsistent_bounds(tmp_path)), "--out",
                     str(out)]) == 3
    assert parse_log_csv(out / "bounds_cmon_log.csv").n_instants == 0
    manifest = json.loads((out / "bounds_cmon_manifest.json").read_text())
    assert manifest["failed"] is True
    assert manifest["failure_reason"].startswith("QPInfeasibleError")


def test_cli_multi_trial_controller_failure(tmp_path):
    scen = _write_yaml(tmp_path, "huge", "chain_n40.yaml",
                       **{"noise.position_amplitude": 1e300, "trials": 2,
                          "horizon": 10, "duration": 0.4}, **_NO_CONSTANTS)
    out = tmp_path / "out"
    assert cli.main([str(scen), "--out", str(out)]) == 3
    for i in range(2):
        assert (out / f"huge_cmon_trial{i}.csv").exists()
    manifest = json.loads((out / "huge_cmon_manifest.json").read_text())
    assert manifest["n_failures"] == 2
    assert manifest["failed"] is True
    assert [f["trial"] for f in manifest["failures"]] == [0, 1]
    for f in manifest["failures"]:
        name, _, message = f["reason"].partition(": ")
        assert issubclass(getattr(errors, name), errors.NMPCError)
        assert message


@pytest.mark.parametrize("scheme", ["rti", "cmon"])
def test_overflowing_qp_data_ends_loop_without_warnings(tmp_path, capfd,
                                                        scheme):
    # 1e300 start positions are finite, but the QP products overflow: the
    # solver stops at the first non-finite residual and says why, and no
    # numpy warning reaches stderr
    import warnings

    scen = _write_yaml(tmp_path, "huge", "chain_n40.yaml",
                       **{"noise.position_amplitude": 1e300, "horizon": 10,
                          "duration": 0.4, "scheme.kind": scheme},
                       **_NO_CONSTANTS)
    s = load_scenario(scen)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log = closed_loop_simulate(s, x0=perturbed_chain_state(s, 0))
    assert log.failed
    assert log.failure_reason.startswith("QPNonconvergenceError")
    assert "overflow" in log.failure_reason
    assert capfd.readouterr().err == ""


def test_cli_multi_trial_unsettled_trials_are_not_failures(tmp_path):
    # two 0.4 s trials end before the control settles: both count in
    # n_failures, but no controller failed
    scen = _write_yaml(tmp_path, "short", "chain_n40.yaml",
                       **{"trials": 2, "horizon": 10, "duration": 0.4},
                       **_NO_CONSTANTS)
    out = tmp_path / "out"
    assert cli.main([str(scen), "--out", str(out)]) == 0
    manifest = json.loads((out / "short_cmon_manifest.json").read_text())
    assert manifest["n_failures"] == 2
    assert manifest["failed"] is False
    assert manifest["failures"] == []


def test_cli_bad_config_exit_code(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("model: {kind: pendulum}\n")
    assert cli.main([str(bad)]) == 2
    assert cli.main([str(tmp_path / "missing.yaml")]) == 2


def test_cli_rejects_bad_trial_count(tmp_path):
    scen = SCENARIO_DIR / "pendulum_n40.yaml"
    assert cli.main([str(scen), "--trials", "0"]) == 2


# two pendulum segments; the cases below give them bad reference controls
_PENDULUM_REF = {"times": [0.0, 5.0],
                 "states": [[0.0, 0.0, 0.0, 0.0], [0.6, 1.2, 0.0, 0.0]]}
_PENDULUM = yaml.safe_load((SCENARIO_DIR / "pendulum_n40.yaml").read_text())
_NAN, _INF = float("nan"), float("inf")


def _pendulum_model(**changes):
    return dict(_PENDULUM["model"], **changes)


def _pendulum_ref(key, row, value):
    """The pendulum file's five-segment reference, zero controls given,
    with ``key[row][0]`` set to ``value``."""
    ref = dict(_PENDULUM["reference"], controls=[[0.0]] * 5)
    ref[key] = [list(r) for r in ref[key]]
    ref[key][row][0] = value
    return ref


# the pendulum's stored pair does not fit a chain
_DROP_CONSTANTS = {"rho0": None, "gamma0": None, "n_dim": None}


def _chain(**ref):
    return {"model": {"kind": "chain", "params": {"n": 5}},
            "reference": dict({"times": [0.0]}, **ref)}


@pytest.mark.parametrize("cmon, top, args", [
    ({"c1": 1.5}, {}, []),
    ({"threshold_mode": "sometimes"}, {}, []),
    ({"min_update_fraction": 1.5}, {}, []),
    ({"alpha": 0.0}, {}, []),
    ({"beta": -1.0}, {}, []),
    ({"eps_abs": -0.1}, {}, []),
    ({"eps_rel": float("inf")}, {}, []),
    ({}, {"seed": -1}, []),
    ({}, {}, ["--seed", "-1"]),
    ({}, {"reference": dict(_PENDULUM_REF, controls=[0.0, 0.0])}, []),
    ({}, {"reference": dict(_PENDULUM_REF, controls=[[0.0, 0.0]] * 2)}, []),
    ({}, {"stabilize": {"threshold": 0.1, "cap": 15.0}}, []),
    ({}, {"stabilize": {"threshold": 0.0}}, []),
    ({}, {"stabilize": {"threshold": _INF}}, []),
    ({}, {"noise": {"position_amplitude": -0.1}}, []),
    ({}, {"noise": {"velocity_amplitude": -0.1}}, []),
    ({}, {"t_s": float("nan")}, []),
    ({}, {"t_s": True}, []),
    ({}, {"t_s": "0.05"}, []),
    ({}, {"t_s": float("inf")}, []),
    ({}, {"duration": float("nan")}, []),
    ({}, {"duration": float("inf")}, []),
    ({}, {"duration": 1e308, "t_s": 1e-300}, []),
    ({}, {"horizon": 40.7}, []),
    ({}, {"substeps": 2.5}, []),
    ({}, {"plant_substep_factor": 1.5}, []),
    ({}, {"seed": 1.9}, []),
    ({}, {"trials": True}, []),
    ({}, {"scheme": {"kind": "ml", "ml_interval": 2.9}}, []),
    ({}, {"scheme": {"kind": "ml", "ml_interval": True}}, []),
    ({}, {"scheme": {"kind": "rti", "track_dto": "no"}}, []),
    ({}, {"scheme": {"kind": "rti", "track_dto": 0.5}}, []),
    ({}, {"model": {"kind": "chain", "params": {"n": 5.5}},
          "reference": {"times": [0.0], "free_end": [[1.0, 0.0, 0.0]]}},
     []),
    ({"rho0": -1.0}, {}, []),
    ({"rho0": float("nan")}, {}, []),
    ({"gamma0": 0.5}, {}, []),
    ({"rho0": 9000.0, "gamma0": None}, {}, []),
    ({}, {"reference": dict(_PENDULUM["reference"],
                            times=[0.0, _NAN, 10.0, 15.0, 20.0])}, []),
    ({}, {"reference": _pendulum_ref("states", 1, _NAN)}, []),
    ({}, {"reference": _pendulum_ref("states", 0, _INF)}, []),
    ({}, {"reference": _pendulum_ref("controls", 2, -_INF)}, []),
    ({}, {"model": _pendulum_model(stage_weights=[_INF, 20, .2, .2, .1])},
     []),
    ({}, {"model": _pendulum_model(terminal_weights=[20, 20, _NAN, .2])},
     []),
    ({}, {"model": _pendulum_model(force_limit=_NAN)}, []),
    ({}, {"model": _pendulum_model(position_limit=_INF)}, []),
    ({}, {"model": _pendulum_model(params=dict(
        _PENDULUM["model"]["params"], l=_NAN))}, []),
    (_DROP_CONSTANTS, _chain(free_end=[[_NAN, 0.0, 0.0]]), []),
    (_DROP_CONSTANTS, dict(_chain(free_end=[[1.0, 0.0, 0.0]]),
                           model={"kind": "chain", "control_limit": _INF}),
     []),
    ({}, {"scheme": {"kind": "rti", "qp_tol": _INF}}, []),
    ({}, {"scheme": {"kind": "rti", "qp_tol": True}}, []),
    ({"eps_abs": True}, {}, []),
    ({}, {"model": _pendulum_model(params=[1, 2])}, []),
    ({}, {"model": _pendulum_model(stage_weights=[True, 20, .2, .2, .1])},
     []),
    ({}, {"reference": dict(_PENDULUM["reference"],
                            times=[False, 5.0, 10.0, 15.0, 20.0])}, []),
    ({}, {"x0": [0.0, 0.0, 0.0, 0.0]}, []),
    ({"threshold_mode": "fixed", "fixed_eta_pri": _NAN}, {}, []),
    ({"threshold_mode": "fixed", "fixed_eta_dual": -1.0}, {}, []),
    ({"alpha": _INF}, {}, []),
    ({"beta": _INF}, {}, []),
], ids=["c1", "threshold_mode", "min_update_fraction", "alpha", "beta",
        "eps_abs", "eps_rel", "seed", "cli_seed", "controls_1d",
        "controls_width", "stabilize_cap", "stabilize_threshold",
        "stabilize_threshold_inf", "noise_pos", "noise_vel", "t_s_nan",
        "t_s_bool", "t_s_string", "t_s_inf", "duration_nan",
        "duration_inf", "instant_count_overflow", "horizon_float",
        "substeps_float", "plant_substep_factor_float", "seed_float",
        "trials_bool", "ml_interval_float", "ml_interval_bool",
        "track_dto_string", "track_dto_float", "chain_n_float",
        "rho0_negative", "rho0_nan", "gamma0_below_one", "rho0_only",
        "ref_times_nan", "ref_states_nan", "ref_states_inf",
        "ref_controls_inf", "stage_weights_inf", "terminal_weights_nan",
        "force_limit_nan", "position_limit_inf", "param_l_nan",
        "free_end_nan", "control_limit_inf", "qp_tol_inf", "qp_tol_bool",
        "eps_abs_bool", "params_list", "stage_weights_bool",
        "ref_times_bool", "x0",
        "fixed_eta_pri_nan", "fixed_eta_dual_negative", "alpha_inf",
        "beta_inf"])
def test_cli_out_of_range_values_exit_code(tmp_path, capsys, cmon, top,
                                           args):
    doc = yaml.safe_load((SCENARIO_DIR / "pendulum_n40.yaml").read_text())
    doc["duration"] = 0.5
    doc["scheme"]["cmon"].update(cmon)
    # a None value drops the key from the file
    doc["scheme"]["cmon"] = {k: v for k, v in doc["scheme"]["cmon"].items()
                             if v is not None}
    doc.update(top)
    scen = tmp_path / "bad.yaml"
    scen.write_text(yaml.safe_dump(doc))
    assert cli.main([str(scen), "--out", str(tmp_path / "out")] + args) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_bad_model_constant_names_the_model_block(tmp_path, capsys):
    scen = _write_yaml(tmp_path, "bad", "pendulum_n40.yaml",
                       **{"model.force_limit": _NAN})
    assert cli.main([str(scen), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "model" in err


def test_cli_failed_chain_equilibrium_is_config_error(tmp_path, capsys,
                                                      monkeypatch):
    # a reference whose chain equilibrium the root finder cannot find is a
    # bad scenario: exit 2, not a traceback
    def no_root(params, free_end_pos):
        raise errors.ModelEvaluationError("root finder did not converge")

    monkeypatch.setattr(harness, "chain_steady_state", no_root)
    scen = _write_yaml(tmp_path, "noroot", "chain_n40.yaml", **_NO_CONSTANTS)
    assert cli.main([str(scen), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "ModelEvaluationError" in err


def test_plant_matches_model_without_mismatch():
    # with the substep factor at 1 the plant is exactly the controller's
    # predictor, so replaying the logged controls reproduces the log
    from nmpckit import integrator as intg

    s = _short_pendulum(duration=1.0, scheme="rti")
    s.plant_substep_factor = 1
    log = closed_loop_simulate(s)
    pred = intg.integrate_batch(s.model, log.states[:-1], log.controls,
                                s.integrator())[0]
    npt.assert_array_equal(pred, log.states[1:])


def test_chain_plant_matches_model_without_mismatch():
    # the chain twin: the plant steps the unbatched state, the predictor
    # replays all instants as one batch, and the two agree exactly
    s = load_scenario(SCENARIO_DIR / "chain_n40.yaml")
    s.duration = 2.0
    s.scheme = dataclasses.replace(s.scheme, scheme="rti")
    s.plant_substep_factor = 1
    log = closed_loop_simulate(s, x0=perturbed_chain_state(s, 0))
    assert not log.failed and log.n_instants == 10
    pred = intg.integrate_batch(s.model, log.states[:-1], log.controls,
                                s.integrator())[0]
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
    pred = intg.integrate_batch(s.model, log.states[:-1], log.controls,
                                cfg)[0]
    fine = intg.IntegratorConfig(dt=cfg.dt, substeps=cfg.substeps * 16)
    ref = intg.integrate_batch(s.model, log.states[:-1], log.controls,
                               fine)[0]
    gap = np.abs(pred - log.states[1:]).max()
    assert gap <= 1.5 * np.abs(pred - ref).max() + 1e-12


def test_cli_zero_duration_trials_are_not_failures(tmp_path):
    # the settling-time cap is the duration, 0 here; a loop with no
    # instant has nothing to settle, so no trial fails
    doc = yaml.safe_load((SCENARIO_DIR / "chain_n40.yaml").read_text())
    doc.update(duration=0, trials=2)
    scen = tmp_path / "still.yaml"
    scen.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    assert cli.main([str(scen), "--out", str(out)]) == 0
    manifest = json.loads((out / "still_cmon_manifest.json").read_text())
    assert manifest["n_failures"] == 0
    assert manifest["failed"] is False


def test_cli_unwritable_log_exits_4(tmp_path, capsys):
    # a directory where the log file goes: an output failure, not a
    # controller failure
    scen = _write_yaml(tmp_path, "pendulum_n40", "pendulum_n40.yaml",
                       duration=0.2)
    out = tmp_path / "out"
    (out / "pendulum_n40_rti_log.csv").mkdir(parents=True)
    assert cli.main([str(scen), "--scheme", "rti", "--out", str(out)]) == 4
    assert "output error" in capsys.readouterr().err


_SHIPPED = ["chain_n40", "chain_n80", "pendulum_n40", "pendulum_n120"]


def _without_constants(s):
    s.scheme = s.scheme.with_constants(None, None)
    return s


@pytest.mark.parametrize("name", _SHIPPED)
def test_stored_constants_match_nominal_subproblem(name):
    # the pair a scenario file stores is the one its nominal subproblem
    # gives; on a mismatch, paste the printed lines into the file
    s = load_scenario(SCENARIO_DIR / f"{name}.yaml")
    stored = (s.scheme.cmon.rho0, s.scheme.cmon.gamma0)
    fresh = harness._nominal_constants(_without_constants(s))
    assert fresh == pytest.approx(stored, rel=1e-6), (
        f"{name}.yaml scheme.cmon:\n    rho0: {fresh[0]!r}\n"
        f"    gamma0: {fresh[1]!r}")


@pytest.mark.parametrize("name", _SHIPPED)
def test_stored_constants_keep_the_spectrum_out_of_the_loop(name,
                                                            monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("conditioning constants computed")

    monkeypatch.setattr(schemes, "build_m", forbidden)
    monkeypatch.setattr(schemes, "conditioning_constants", forbidden)
    s = load_scenario(SCENARIO_DIR / f"{name}.yaml")
    assert s.scheme.scheme == "cmon"
    s.duration = 2 * s.t_s
    log = closed_loop_simulate(s)
    assert not log.failed and log.n_instants == 2


def test_trials_compute_missing_constants_once(monkeypatch):
    # the first loop stores the nominal constants on the scenario, and
    # every later trial reuses them
    s = _without_constants(load_scenario(SCENARIO_DIR / "chain_n40.yaml"))
    s.duration = 0.4
    calls = []
    constants = schemes.conditioning_constants
    monkeypatch.setattr(schemes, "conditioning_constants",
                        lambda M: calls.append(M) or constants(M))
    summary = randomized_chain_trials(s, trials=3, keep_logs=True)
    assert len(calls) == 1
    assert not any(log.failed for log in summary.logs)
    stored = load_scenario(SCENARIO_DIR / "chain_n40.yaml").scheme.cmon
    assert (s.scheme.cmon.rho0, s.scheme.cmon.gamma0) == pytest.approx(
        (stored.rho0, stored.gamma0), rel=1e-6)


def test_cli_manifest_records_resolved_constants(tmp_path):
    # a file without the pair runs, and its manifest carries the pair the
    # run computed, ready to be copied into the file
    doc = yaml.safe_load((SCENARIO_DIR / "pendulum_n40.yaml").read_text())
    stored = doc["scheme"]["cmon"]
    pair = (stored.pop("rho0"), stored.pop("gamma0"))
    n_dim = stored.pop("n_dim")
    doc["scheme"]["kind"] = "rti"
    doc["duration"] = 0.2
    scen = tmp_path / "bare.yaml"
    scen.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    assert cli.main([str(scen), "--scheme", "cmon", "--out", str(out)]) == 0
    manifest = json.loads((out / "bare_cmon_manifest.json").read_text())
    assert (manifest["rho0"], manifest["gamma0"]) == pytest.approx(
        pair, rel=1e-6)
    assert manifest["n_dim"] == n_dim


@pytest.mark.parametrize("change", [
    {"horizon": 30},
    {"scheme.cmon.n_dim": 528.0},
    {"scheme.cmon.n_dim": None},
    {"scheme.cmon.rho0": None, "scheme.cmon.gamma0": None},
], ids=["horizon_changed", "n_dim_float", "n_dim_missing", "pair_missing"])
def test_stored_constants_must_fit_the_scenario(tmp_path, change):
    # a pair stored for another subproblem, or without its dimension, is
    # a config error; dropping all three keys is fine
    scen = _write_yaml(tmp_path, "copy", "pendulum_n40.yaml", **change)
    with pytest.raises(ConfigError):
        load_scenario(scen)
    assert cli.main([str(scen)]) == 2
    bare = _write_yaml(tmp_path, "bare", "pendulum_n40.yaml",
                       **dict(change, **_NO_CONSTANTS))
    assert load_scenario(bare).scheme.lacks_constants
