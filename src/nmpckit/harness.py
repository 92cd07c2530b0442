"""Closed-loop benchmark harness: scenarios, simulation, trials, export.

A scenario file (YAML) selects the model, horizon, reference schedule and
scheme; :func:`closed_loop_simulate` runs one closed loop against a plant
integrated with finer substeps, logging per-instant diagnostics. Chain
scenarios add randomized-initial-condition trials with stabilizing-time
statistics. Logs and summaries export to CSV with a JSON run manifest.
"""

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import List, Optional

import numpy as np
import yaml

from . import integrator as intg
from .cmon import CMoNConfig
from .errors import ConfigError, NMPCError
from .models import (ChainParams, PendulumParams, chain_steady_state,
                     make_chain_model, make_pendulum_model, ModelSpec)
from .schemes import (OCProblem, SchemeConfig, StepDiagnostics,
                      controller_step, initialize_controller, sqp_solve,
                      subproblem_constants, subproblem_dim)
from .transcription import Multipliers, References, Trajectory

__all__ = [
    "ReferenceSchedule", "ScenarioConfig", "SimulationLog", "TrialSummary",
    "closed_loop_simulate", "randomized_chain_trials", "stabilizing_time",
    "export_log_csv", "export_summary_csv",
    "write_manifest", "load_scenario", "steady_horizon", "perfect_horizon",
]

_TIME_FUZZ = 1e-9
# libyaml's safe loader where PyYAML was built with it; it parses the
# shipped scenarios to the same documents five to eight times faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass
class ReferenceSchedule:
    """Piecewise-constant state and control setpoints over time."""

    times: np.ndarray       # (S,) ascending switch times, first one 0
    states: np.ndarray      # (S, n_x)
    controls: np.ndarray    # (S, n_u)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        self.controls = np.asarray(self.controls, dtype=float)
        if self.times.ndim != 1 or self.times.size == 0:
            raise ConfigError("reference schedule needs at least one segment")
        if not all(np.isfinite(a).all()
                   for a in (self.times, self.states, self.controls)):
            raise ConfigError("reference times, states and controls must "
                              "be finite")
        if np.any(np.diff(self.times) <= 0):
            raise ConfigError("reference switch times must be increasing")
        if abs(self.times[0]) > 1e-12:
            raise ConfigError("reference schedule must start at time zero")
        if self.states.shape[0] != self.times.size \
                or self.controls.shape[0] != self.times.size:
            raise ConfigError("reference schedule segment counts disagree")

    def segment_index(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.times, t + _TIME_FUZZ, side="right") - 1
        return np.clip(idx, 0, self.times.size - 1)

    def window(self, t: float, N: int, dt: float) -> References:
        """Reference window with node ``k`` holding the setpoint at
        ``t + k*dt``; later segments enter from the horizon end."""
        tt = t + dt * np.arange(N + 1)
        idx = self.segment_index(tt)
        return References(self.states[idx], self.controls[idx[:N]])


@dataclass
class ScenarioConfig:
    """Everything one benchmark run needs, loadable from YAML."""

    model_kind: str
    horizon: int
    t_s: float
    duration: float
    schedule: ReferenceSchedule
    scheme: SchemeConfig
    model: ModelSpec
    substeps: int = 4
    plant_substep_factor: int = 4
    init_mode: str = "steady"           # steady | perfect
    x0: Optional[np.ndarray] = None     # plant start, default schedule state
    seed: int = 0
    trials: int = 1
    noise_pos: float = 0.0              # chain trial perturbation amplitudes
    noise_vel: float = 0.0
    stabilize_threshold: float = 0.1
    stabilize_cap: Optional[float] = None   # defaults to duration
    raw_text: str = ""                  # byte-exact config echo for manifests
    name: str = "scenario"

    def __post_init__(self):
        if not 0 <= self.duration < math.inf:
            raise ConfigError("duration must be finite and nonnegative")
        if self.horizon < 2:
            raise ConfigError("horizon must be at least 2")
        if not 0 < self.t_s < math.inf:
            raise ConfigError("sampling interval must be finite and positive")
        if not self.duration / self.t_s < math.inf:
            raise ConfigError("duration / t_s overflows the instant count")
        if self.substeps < 1 or self.plant_substep_factor < 1:
            raise ConfigError("substep counts must be positive")
        if self.init_mode not in ("steady", "perfect"):
            raise ConfigError(f"unknown init mode {self.init_mode!r}")
        if self.trials < 1:
            raise ConfigError("trial count must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if not (0.0 <= self.noise_pos < math.inf
                and 0.0 <= self.noise_vel < math.inf):
            raise ConfigError("noise amplitudes must be finite and "
                              "nonnegative")
        if not self.stabilize_threshold > 0:
            raise ConfigError("stabilize threshold must be positive")
        if self.stabilize_cap is not None and not self.stabilize_cap > 0:
            raise ConfigError("stabilize cap must be positive")

    @property
    def n_instants(self) -> int:
        return int(round(self.duration / self.t_s))

    @property
    def settling_cap(self) -> float:
        """Settling time of a loop that never settles: ``stabilize_cap``,
        else ``duration``."""
        return self.duration if self.stabilize_cap is None \
            else self.stabilize_cap

    def integrator(self) -> intg.IntegratorConfig:
        return intg.IntegratorConfig(dt=self.t_s, substeps=self.substeps)

    def plant_integrator(self) -> intg.IntegratorConfig:
        return intg.IntegratorConfig(
            dt=self.t_s, substeps=self.substeps * self.plant_substep_factor)


# ---------------------------------------------------------------------------
# scenario loading

def _check_keys(block: str, spec: dict, allowed) -> None:
    extra = set(spec) - set(allowed)
    if extra:
        raise ConfigError(f"unknown {block} keys {sorted(extra)}")


def _exact(key: str, value, kind: type):
    """``value`` if its type is ``kind``: a bool is no ``int`` here."""
    if type(value) is not kind:
        raise ConfigError(f"{key} must be a {kind.__name__}, not {value!r}")
    return value


def _finite(key: str, value):
    """``value``, a float or a float array, if every entry is finite."""
    if not np.isfinite(value).all():
        raise ConfigError(f"{key} must be finite")
    return value


# the bound keys each model kind takes
_LIMIT_KEYS = {"pendulum": ("position_limit", "force_limit"),
               "chain": ("control_limit",)}


def _build_model(kind: str, spec: dict):
    if kind not in _LIMIT_KEYS:
        raise ConfigError(f"unknown model kind {kind!r}")
    _check_keys("model", spec, ("params", "stage_weights",
                                "terminal_weights") + _LIMIT_KEYS[kind])
    # ModelSpec checks the weights and limits
    kwargs = {key: float(spec[key])
              for key in _LIMIT_KEYS[kind] if key in spec}
    for key in ("stage_weights", "terminal_weights"):
        if key in spec:
            kwargs[key] = np.asarray(spec[key], dtype=float)
    pk = {k: _exact("model.params.n", v, int) if k == "n"
          else _finite(f"model.params.{k}", float(v))
          for k, v in (spec.get("params") or {}).items()}
    if kind == "pendulum":
        return make_pendulum_model(PendulumParams(**pk), **kwargs)
    return make_chain_model(ChainParams(**pk), **kwargs)


def _build_schedule(ref: dict, kind: str, model: ModelSpec
                    ) -> ReferenceSchedule:
    _check_keys("reference", ref, ("times", "states", "controls")
                + (("free_end",) if kind == "chain" else ()))
    times = np.asarray(ref.get("times", [0.0]), dtype=float)
    if "states" in ref:
        states = np.asarray(ref["states"], dtype=float)
    elif "free_end" in ref:
        params = model.meta["params"]
        free_end = _finite("reference.free_end",
                           np.asarray(ref["free_end"], dtype=float))
        states = np.stack([chain_steady_state(params, p) for p in free_end])
    else:
        raise ConfigError("reference block needs 'states' or 'free_end'")
    if states.shape != (times.size, model.n_x):
        raise ConfigError("reference states have the wrong shape")
    if "controls" in ref:
        controls = np.asarray(ref["controls"], dtype=float)
    else:
        controls = np.zeros((times.size, model.n_u))
    if controls.shape != (times.size, model.n_u):
        raise ConfigError("reference controls have the wrong shape")
    return ReferenceSchedule(times, states, controls)


def _build_scheme(spec: dict, n_dim: int) -> SchemeConfig:
    """The scheme block of a scenario whose subproblem has dimension
    ``n_dim``."""
    spec = dict(spec or {})
    ckw = dict(spec.pop("cmon", None) or {})
    # a stored pair names the dimension of the subproblem it was computed
    # for, so a copy that changes the model or horizon cannot keep it
    stored_dim = ckw.pop("n_dim", None)
    if ("rho0" in ckw or "gamma0" in ckw) != (stored_dim is not None):
        raise ConfigError("rho0 and gamma0 go with the n_dim of their "
                          "subproblem: give all three or none")
    if stored_dim is not None \
            and _exact("scheme.cmon.n_dim", stored_dim, int) != n_dim:
        raise ConfigError(f"rho0 and gamma0 belong to a subproblem of "
                          f"dimension {stored_dim}, this scenario's has "
                          f"{n_dim}: drop the three keys")
    for key in list(ckw):
        if key not in ("threshold_mode",):
            ckw[key] = float(ckw[key])
    # NaN stands for a constant not given, so a given one cannot be NaN
    if any(math.isnan(ckw.get(key, 0.0)) for key in ("rho0", "gamma0")):
        raise ConfigError("rho0 and gamma0 must be finite")
    kwargs = {}
    if "kind" in spec:
        kwargs["scheme"] = str(spec.pop("kind"))
    if "qp_tol" in spec:
        kwargs["qp_tol"] = float(spec.pop("qp_tol"))
    if "ml_interval" in spec:
        kwargs["ml_interval"] = _exact("scheme.ml_interval",
                                       spec.pop("ml_interval"), int)
    if "track_dto" in spec:
        kwargs["track_dto"] = _exact("scheme.track_dto",
                                     spec.pop("track_dto"), bool)
    _check_keys("scheme", spec, ())
    try:
        return SchemeConfig(cmon=CMoNConfig(**ckw), **kwargs)
    except (TypeError, ConfigError) as exc:
        raise ConfigError(f"bad scheme config: {exc}") from None


_SCENARIO_KEYS = frozenset([
    "model", "horizon", "t_s", "duration", "reference", "scheme",
    "substeps", "plant_substep_factor", "init", "x0", "seed", "trials",
    "noise", "stabilize",
])


def scenario_from_dict(doc: dict, raw_text: str = "",
                       name: str = "scenario") -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ConfigError("scenario document must be a mapping")
    _check_keys("scenario", doc, _SCENARIO_KEYS)
    try:
        mspec = dict(doc["model"])
        kind = str(mspec.pop("kind"))
        model = _build_model(kind, mspec)
        schedule = _build_schedule(dict(doc["reference"]), kind, model)
        noise = dict(doc.get("noise") or {})
        _check_keys("noise", noise, ("position_amplitude",
                                     "velocity_amplitude"))
        stab = dict(doc.get("stabilize") or {})
        _check_keys("stabilize", stab, ("threshold", "cap"))
        x0 = doc.get("x0")
        horizon = _exact("horizon", doc["horizon"], int)
        return ScenarioConfig(
            model_kind=kind,
            horizon=horizon,
            t_s=float(doc["t_s"]),
            duration=float(doc["duration"]),
            schedule=schedule,
            scheme=_build_scheme(doc.get("scheme"),
                                 subproblem_dim(model, horizon)),
            model=model,
            substeps=_exact("substeps", doc.get("substeps", 4), int),
            plant_substep_factor=_exact("plant_substep_factor",
                                        doc.get("plant_substep_factor", 4),
                                        int),
            init_mode=str(doc.get("init", "steady")),
            x0=None if x0 is None else np.asarray(x0, dtype=float),
            seed=_exact("seed", doc.get("seed", 0), int),
            trials=_exact("trials", doc.get("trials", 1), int),
            noise_pos=float(noise.get("position_amplitude", 0.0)),
            noise_vel=float(noise.get("velocity_amplitude", 0.0)),
            stabilize_threshold=float(stab.get("threshold", 0.1)),
            stabilize_cap=(float(stab["cap"]) if "cap" in stab else None),
            raw_text=raw_text,
            name=name,
        )
    except KeyError as exc:
        raise ConfigError(f"scenario is missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad scenario value: {exc}") from None
    except ConfigError:
        raise
    except NMPCError as exc:
        # e.g. the chain equilibrium of a reference that has none
        raise ConfigError(f"scenario cannot be set up: "
                          f"{type(exc).__name__}: {exc}") from None


def load_scenario(path) -> ScenarioConfig:
    path = Path(path)
    try:
        raw = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from None
    try:
        doc = yaml.load(raw, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"scenario {path} is not valid YAML: {exc}") \
            from None
    return scenario_from_dict(doc, raw_text=raw, name=path.stem)


# ---------------------------------------------------------------------------
# initialization

def steady_horizon(scenario: ScenarioConfig) -> Trajectory:
    """Constant trajectory at the first reference segment."""
    N = scenario.horizon
    xs = np.repeat(scenario.schedule.states[:1], N + 1, axis=0)
    us = np.repeat(scenario.schedule.controls[:1], N, axis=0)
    return Trajectory(xs, us)


def perfect_horizon(scenario: ScenarioConfig, x0: np.ndarray):
    """Solve the first-instant horizon problem to optimality.

    Runs exact Gauss-Newton SQP (the ``rti`` policy) from the steady guess.
    """
    model = scenario.model
    guess = steady_horizon(scenario)
    mult0 = Multipliers.zeros(scenario.horizon, model.n_x, model.n_r)
    ocp = OCProblem(model=model, integ=scenario.integrator(),
                    x_hat=np.asarray(x0, dtype=float),
                    refs=scenario.schedule.window(0.0, scenario.horizon,
                                                  scenario.t_s))
    res = sqp_solve(ocp, guess, mult0, SchemeConfig("rti", qp_tol=1e-10),
                    tol=1e-8, max_iter=100)
    if not res.converged:
        raise NMPCError("perfect initialization failed to converge")
    return res.traj, res.mult


def _start_horizon(scenario: ScenarioConfig, x0: np.ndarray):
    """Start horizon and multipliers of a loop from ``x0``."""
    if scenario.init_mode == "perfect":
        return perfect_horizon(scenario, x0)
    return steady_horizon(scenario), Multipliers.zeros(
        scenario.horizon, scenario.model.n_x, scenario.model.n_r)


def _nominal_constants(scenario: ScenarioConfig):
    """Conditioning constants of the scenario's nominal subproblem: the
    first step from the start horizon at the first reference state,
    measured there."""
    x = scenario.schedule.states[0]
    return subproblem_constants(
        scenario.model, scenario.integrator(), scenario.scheme,
        *_start_horizon(scenario, x), x,
        scenario.schedule.window(0.0, scenario.horizon, scenario.t_s))


# ---------------------------------------------------------------------------
# simulation log

# every StepDiagnostics field after ``instant``, in field order
_DIAG_COLUMNS = [f.name for f in fields(StepDiagnostics)][1:]


@dataclass
class SimulationLog:
    """Per-instant closed-loop record; ``states`` has one extra row."""

    t_s: float
    times: np.ndarray               # (I,)
    states: np.ndarray              # (I+1, n_x) plant states
    controls: np.ndarray            # (I, n_u) applied controls
    diag: dict                      # column name -> (I,) array
    ref_windows: np.ndarray         # (I, N+1, n_x) reference state windows
    failed: bool = False
    failure_reason: str = ""

    @property
    def n_instants(self) -> int:
        return self.times.size

    def control_inf_norms(self) -> np.ndarray:
        if self.controls.size == 0:
            return np.zeros(0)
        return np.abs(self.controls).max(axis=1)


def _collect_log(scenario, times, states, controls, diags, windows,
                 failed=False, reason="") -> SimulationLog:
    n_x = scenario.model.n_x
    n_u = scenario.model.n_u
    cols = {name: np.array([getattr(d, name) for d in diags], dtype=float)
            for name in _DIAG_COLUMNS}
    states_arr = np.array(states) if states else np.zeros((1, n_x))
    controls_arr = np.array(controls) if controls else np.zeros((0, n_u))
    windows_arr = np.array(windows) if windows else \
        np.zeros((0, scenario.horizon + 1, n_x))
    return SimulationLog(
        t_s=scenario.t_s, times=np.asarray(times, dtype=float),
        states=states_arr, controls=controls_arr, diag=cols,
        ref_windows=windows_arr, failed=failed, failure_reason=reason)


def closed_loop_simulate(scenario: ScenarioConfig,
                         x0: Optional[np.ndarray] = None) -> SimulationLog:
    """Run one closed loop; controller failures truncate the log.

    The plant steps the unbatched state, one ``integrate_batch`` call of
    ``substeps * plant_substep_factor`` RK4 steps per instant.

    :func:`initialize_controller` only sets the state up, so instant 0
    computes every sensitivity block (``refreshed`` 0, ``sens_blocks``
    N). Under ``cmon`` with automatic thresholds, conditioning constants
    that ``scenario.scheme`` does not carry are computed first, from the
    nominal subproblem (:func:`_nominal_constants`), and stored on
    ``scenario.scheme.cmon``, so later loops on the same scenario reuse
    them. A failure there, in the perfect or steady start or in instant 0
    gives a failed log with no instant. A stray LAPACK failure
    (``np.linalg.LinAlgError``) is recorded like an ``NMPCError``.
    """
    model = scenario.model
    N = scenario.horizon
    Ts = scenario.t_s
    integ = scenario.integrator()
    plant_integ = scenario.plant_integrator()
    schedule = scenario.schedule

    if x0 is None:
        x0 = scenario.x0 if scenario.x0 is not None \
            else schedule.states[0].copy()
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.n_x,):
        raise ConfigError("initial state has the wrong dimension")

    times, controls, diags, windows = [], [], [], []
    states = [x0.copy()]
    x = x0
    failed, reason = False, ""
    try:
        if scenario.scheme.lacks_constants:
            scenario.scheme = scenario.scheme.with_constants(
                *_nominal_constants(scenario))
        state = initialize_controller(model, integ, scenario.scheme,
                                      *_start_horizon(scenario, x0))
        for i in range(scenario.n_instants):
            t = i * Ts
            refs = schedule.window(t, N, Ts)
            d = controller_step(state, x, refs)
            u0 = state.traj.us[0].copy()
            x = intg.integrate_batch(model, x, u0, plant_integ)[0]
            times.append(t)
            controls.append(u0)
            diags.append(d)
            windows.append(refs.xs.copy())
            states.append(x.copy())
    except (NMPCError, np.linalg.LinAlgError) as exc:
        failed = True
        reason = f"{type(exc).__name__}: {exc}"
    return _collect_log(scenario, times, states, controls, diags, windows,
                        failed=failed, reason=reason)


# ---------------------------------------------------------------------------
# stabilizing time and chain trials

def stabilizing_time(log: SimulationLog, threshold: float = 0.1,
                     cap: float = 50.0) -> float:
    """Earliest time from which the control stays below ``threshold``
    in infinity norm; ``cap`` when that never happens or the run failed."""
    if log.failed:
        return float(cap)
    norms = log.control_inf_norms()
    if norms.size == 0:
        return 0.0
    exceed = np.nonzero(norms >= threshold)[0]
    if exceed.size == 0:
        return 0.0
    last = exceed[-1]
    if last == norms.size - 1:
        return float(cap)
    return float(log.times[last] + log.t_s)


@dataclass
class TrialSummary:
    """Aggregate of randomized closed-loop trials for one scheme."""

    scenario_name: str
    scheme: str
    seed: int
    t_st: np.ndarray
    failed: np.ndarray
    cap: float
    logs: Optional[List[SimulationLog]] = None

    @property
    def n_failures(self) -> int:
        return int(self.failed.sum())

    @property
    def mean_t_st(self) -> float:
        return float(self.t_st.mean()) if self.t_st.size else math.nan

    @property
    def iqr_t_st(self) -> float:
        if not self.t_st.size:
            return math.nan
        hi, lo = np.percentile(self.t_st, [75, 25])
        return float(hi - lo)


def perturbed_chain_state(scenario: ScenarioConfig, trial: int) -> np.ndarray:
    """Deterministic per-trial initial state; independent of the scheme."""
    params = scenario.model.meta["params"]
    n = params.n
    rng = np.random.default_rng([int(scenario.seed), int(trial)])
    x = scenario.schedule.states[0].copy()
    x[:3 * n] += rng.uniform(-scenario.noise_pos, scenario.noise_pos, 3 * n)
    x[3 * n:] += rng.uniform(-scenario.noise_vel, scenario.noise_vel,
                             3 * (n - 1))
    return x


def randomized_chain_trials(scenario: ScenarioConfig,
                            trials: Optional[int] = None,
                            keep_logs: bool = False) -> TrialSummary:
    if scenario.model_kind != "chain":
        raise ConfigError("randomized trials are defined for chain scenarios")
    trials = scenario.trials if trials is None else int(trials)
    cap = scenario.settling_cap
    t_st = np.empty(trials)
    failed = np.zeros(trials, dtype=bool)
    logs = [] if keep_logs else None
    for trial in range(trials):
        x0 = perturbed_chain_state(scenario, trial)
        log = closed_loop_simulate(scenario, x0=x0)
        t_st[trial] = stabilizing_time(log, scenario.stabilize_threshold, cap)
        # a loop with no instant has nothing to settle
        failed[trial] = log.failed or (log.n_instants > 0
                                       and t_st[trial] >= cap)
        if keep_logs:
            logs.append(log)
    return TrialSummary(scenario_name=scenario.name,
                        scheme=scenario.scheme.scheme, seed=scenario.seed,
                        t_st=t_st, failed=failed, cap=float(cap), logs=logs)


# ---------------------------------------------------------------------------
# export

def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def export_log_csv(log: SimulationLog, path) -> None:
    """One row per instant plus a final state-only row; repr floats so a
    parse reproduces the log exactly."""
    path = Path(path)
    n_x = log.states.shape[1]
    n_u = log.controls.shape[1] if log.controls.ndim == 2 else 0
    header = (["time"] + [f"x{j}" for j in range(n_x)]
              + [f"u{j}" for j in range(n_u)] + _DIAG_COLUMNS)
    lines = [",".join(header)]
    for i in range(log.n_instants):
        row = [_fmt(log.times[i])]
        row += [_fmt(v) for v in log.states[i]]
        row += [_fmt(v) for v in log.controls[i]]
        row += [_fmt(log.diag[c][i]) for c in _DIAG_COLUMNS]
        lines.append(",".join(row))
    # trailing state row: the state reached after the last instant
    final_t = (log.times[-1] + log.t_s) if log.n_instants else 0.0
    row = [_fmt(final_t)] + [_fmt(v) for v in log.states[-1]]
    row += [""] * (n_u + len(_DIAG_COLUMNS))
    lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def export_summary_csv(summary: TrialSummary, path) -> None:
    path = Path(path)
    lines = ["trial,t_st,failed"]
    for i in range(summary.t_st.size):
        lines.append(f"{i},{_fmt(summary.t_st[i])},{int(summary.failed[i])}")
    lines.append("")
    lines.append("scheme,seed,cap,n_failures,mean_t_st,iqr_t_st")
    lines.append(",".join([summary.scheme, str(summary.seed),
                           _fmt(summary.cap), str(summary.n_failures),
                           _fmt(summary.mean_t_st), _fmt(summary.iqr_t_st)]))
    path.write_text("\n".join(lines) + "\n")


def write_manifest(scenario: ScenarioConfig, path, extra: dict = None
                   ) -> None:
    """JSON run manifest: byte-exact config echo (``null`` for a config
    built in code, which has no file text), code version, and the seed,
    scheme, trial count, oracle flag and conditioning constants the run
    used with their subproblem dimension (``null`` where the thresholds
    read none)."""
    from . import __version__
    path = Path(path)
    sch = scenario.scheme
    used = sch.scheme == "cmon" and sch.cmon.threshold_mode == "auto" \
        and not sch.lacks_constants
    doc = {
        "scenario": scenario.name,
        "config_echo": scenario.raw_text or None,
        "code_version": __version__,
        "seed": scenario.seed,
        "scheme": scenario.scheme.scheme,
        "trials": scenario.trials,
        "track_dto": scenario.scheme.track_dto,
        "rho0": sch.cmon.rho0 if used else None,
        "gamma0": sch.cmon.gamma0 if used else None,
        "n_dim": subproblem_dim(scenario.model, scenario.horizon)
        if used else None,
    }
    if extra:
        doc.update(extra)
    path.write_text(json.dumps(doc, indent=2) + "\n")
