"""Closed-loop benchmark harness: scenarios, simulation, trials, export.

A scenario file (YAML) selects the model, horizon, reference schedule and
scheme; :func:`closed_loop_simulate` runs one closed loop against a plant
integrated with finer substeps, logging per-instant diagnostics. Chain
scenarios add randomized-initial-condition trials with stabilizing-time
statistics. Logs and summaries export to CSV with a JSON run manifest.
"""

import inspect
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import List, Optional, get_args

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
    seed: int = 0
    trials: int = 1
    noise_pos: float = 0.0              # chain trial perturbation amplitudes
    noise_vel: float = 0.0
    stabilize_threshold: float = 0.1    # a loop that never settles gets
                                        # settling time ``duration``
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
        if self.model_kind != "chain" and (
                self.trials != 1 or self.noise_pos or self.noise_vel):
            raise ConfigError("trials and noise are for chain scenarios only")
        if not 0 < self.stabilize_threshold < math.inf:
            raise ConfigError("stabilize threshold must be finite and "
                              "positive")

    @property
    def n_instants(self) -> int:
        return int(round(self.duration / self.t_s))

    def integrator(self) -> intg.IntegratorConfig:
        return intg.IntegratorConfig(dt=self.t_s, substeps=self.substeps)

    def plant_integrator(self) -> intg.IntegratorConfig:
        return intg.IntegratorConfig(
            dt=self.t_s, substeps=self.substeps * self.plant_substep_factor)


# ---------------------------------------------------------------------------
# scenario loading

# what a scenario value must be, by the type of the parameter it sets
_KINDS = {int: "an int", float: "a float", bool: "a boolean", str: "a string",
          dict: "a mapping"}


def _typed(key: str, value, kind):
    """``value`` if it is a ``kind``: a float key takes an int too (as a
    float), only a bool key takes a bool, and an array key takes nested
    lists of what a float key takes (as a float array)."""
    if kind is np.ndarray:
        array = np.asarray(value, dtype=float)
        for entry in np.asarray(value, dtype=object).flat:
            _typed(key, entry, float)
        return array
    if kind is float and type(value) is int:
        return float(value)
    if not isinstance(value, kind) \
            or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"{key} must be {_KINDS[kind]}, not {value!r}")
    return value


def _table(fn, **keys) -> dict:
    """Keys of a block that sets the parameters of ``fn``: key ->
    ``(parameter, type, required)`` for each parameter annotated with a
    ``_KINDS`` type or an ``Optional`` one, a dotted key going into a
    sub-block. ``keys`` gives a parameter's key where it has another
    name, or None where no key sets it."""
    table = {}
    for p in inspect.signature(fn).parameters.values():
        kind = next((t for t in (p.annotation, *get_args(p.annotation))
                     if t in _KINDS), None)
        key = keys.get(p.name, p.name)
        if kind is not None and key is not None:
            *block, leaf = key.split(".")
            sub = table.setdefault(block[0], {}) if block else table
            sub[leaf] = (p.name, kind, p.default is p.empty)
    return table


def _arrays(*keys) -> dict:
    return {key: (key, np.ndarray, False) for key in keys}


def _read(block: str, spec, table: dict) -> dict:
    """``{parameter: value}`` of the mapping ``spec`` by ``table``, each
    value of its key's type, a sub-block's parameters among the rest; a
    key that ``table`` lacks is unknown."""
    spec = _typed(block, spec, dict)
    extra = set(spec) - set(table)
    if extra:
        raise ConfigError(f"unknown {block} keys {sorted(map(str, extra))}")
    out = {}
    for key, entry in table.items():
        path = f"{block}.{key}".removeprefix("scenario.")
        if isinstance(entry, dict):
            out.update(_read(path, spec.get(key, {}), entry))
        elif key in spec:
            out[entry[0]] = _typed(path, spec[key], entry[1])
        elif entry[2]:
            raise ConfigError(f"{block} is missing key {key!r}")
    return out


def _finite(key: str, value):
    """``value``, a float or a float array, if every entry is finite."""
    if not np.isfinite(value).all():
        raise ConfigError(f"{key} must be finite")
    return value


# the blocks below the top level are read by their own tables
_SCENARIO = dict(
    _table(ScenarioConfig, init_mode="init",
           noise_pos="noise.position_amplitude",
           noise_vel="noise.velocity_amplitude",
           stabilize_threshold="stabilize.threshold",
           model_kind=None, raw_text=None, name=None),
    model=("model", dict, True), reference=("reference", dict, True),
    scheme=("scheme", dict, False))
_SCHEME = dict(_table(SchemeConfig, scheme="kind"),
               cmon=("cmon", dict, False))
# n_dim is the dimension of the subproblem a stored rho0/gamma0 pair is of
_CMON = dict(_table(CMoNConfig), n_dim=("n_dim", int, False))
_MODELS = {"pendulum": (make_pendulum_model, PendulumParams),
           "chain": (make_chain_model, ChainParams)}
# per model kind: the keys of the model block, of model.params and of the
# reference block
_MODEL = {kind: dict(_table(make), kind=("kind", str, True),
                     params=("params", dict, False),
                     **_arrays("stage_weights", "terminal_weights"))
          for kind, (make, _) in _MODELS.items()}
# the chain's array parameters (anchor, g) take no key
_PARAMS = {kind: _table(params) for kind, (_, params) in _MODELS.items()}
_REFERENCE = {"pendulum": _arrays("times", "states", "controls"),
              "chain": _arrays("times", "states", "controls", "free_end")}


def _build_model(spec) -> ModelSpec:
    kind = spec["kind"]
    if kind not in _MODELS:
        raise ConfigError(f"unknown model kind {kind!r}")
    make, params = _MODELS[kind]
    kw = _read("model", spec, _MODEL[kind])
    del kw["kind"]
    pk = _read("model.params", kw.pop("params", {}), _PARAMS[kind])
    _finite("model.params", list(pk.values()))
    try:
        # ModelSpec checks the weights and limits
        return make(params(**pk), **kw)
    except ValueError as exc:
        raise ConfigError(f"bad model block: {exc}") from None


def _build_schedule(spec, kind: str, model: ModelSpec) -> ReferenceSchedule:
    ref = _read("reference", spec, _REFERENCE[kind])
    times = ref.get("times", np.zeros(1))
    if "states" in ref:
        states = ref["states"]
    elif "free_end" in ref:
        params = model.meta["params"]
        free_end = _finite("reference.free_end", ref["free_end"])
        states = np.stack([chain_steady_state(params, p) for p in free_end])
    else:
        raise ConfigError("reference block needs 'states' or 'free_end'")
    if states.shape != (times.size, model.n_x):
        raise ConfigError("reference states have the wrong shape")
    controls = ref.get("controls", np.zeros((times.size, model.n_u)))
    if controls.shape != (times.size, model.n_u):
        raise ConfigError("reference controls have the wrong shape")
    return ReferenceSchedule(times, states, controls)


def _build_scheme(spec, n_dim: int) -> SchemeConfig:
    """The scheme block of a scenario whose subproblem has dimension
    ``n_dim``."""
    kw = _read("scheme", spec, _SCHEME)
    ckw = _read("scheme.cmon", kw.pop("cmon", {}), _CMON)
    # a stored pair names the dimension of the subproblem it was computed
    # for, so a copy that changes the model or horizon cannot keep it
    stored_dim = ckw.pop("n_dim", None)
    if ("rho0" in ckw or "gamma0" in ckw) != (stored_dim is not None):
        raise ConfigError("rho0 and gamma0 go with the n_dim of their "
                          "subproblem: give all three or none")
    if stored_dim not in (None, n_dim):
        raise ConfigError(f"rho0 and gamma0 belong to a subproblem of "
                          f"dimension {stored_dim}, this scenario's has "
                          f"{n_dim}: drop the three keys")
    try:
        return SchemeConfig(cmon=CMoNConfig(**ckw), **kw)
    except ConfigError as exc:
        raise ConfigError(f"bad scheme config: {exc}") from None


def scenario_from_dict(doc: dict, raw_text: str = "",
                       name: str = "scenario") -> ScenarioConfig:
    try:
        kw = _read("scenario", doc, _SCENARIO)
        kw["model"] = model = _build_model(kw["model"])
        kw["model_kind"] = kind = doc["model"]["kind"]
        kw["schedule"] = _build_schedule(kw.pop("reference"), kind, model)
        kw["scheme"] = _build_scheme(kw.get("scheme", {}),
                                     subproblem_dim(model, kw["horizon"]))
        return ScenarioConfig(raw_text=raw_text, name=name, **kw)
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


def closed_loop_simulate(scenario: ScenarioConfig,
                         x0: Optional[np.ndarray] = None) -> SimulationLog:
    """Run one closed loop; controller failures truncate the log.

    Instant ``i`` writes row ``i`` of the log's arrays, allocated once; a
    failed loop returns the rows it completed. The plant steps the
    unbatched state, one ``integrate_batch`` call of ``substeps *
    plant_substep_factor`` RK4 steps per instant.

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

    x0 = schedule.states[0] if x0 is None else np.asarray(x0, dtype=float)
    if x0.shape != (model.n_x,):
        raise ConfigError("initial state has the wrong dimension")

    n = scenario.n_instants
    try:
        times = Ts * np.arange(n)
        states = np.empty((n + 1, model.n_x))
        controls = np.empty((n, model.n_u))
        ref_windows = np.empty((n, N + 1, model.n_x))
        diag = {name: np.empty(n) for name in _DIAG_COLUMNS}
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"duration / t_s = {scenario.duration / Ts:.3g} "
                          f"instants, too many to log ({exc})") from exc
    states[0] = x0
    done, reason = 0, ""
    try:
        if scenario.scheme.lacks_constants:
            scenario.scheme = scenario.scheme.with_constants(
                *_nominal_constants(scenario))
        state = initialize_controller(model, integ, scenario.scheme,
                                      *_start_horizon(scenario, x0))
        for i in range(n):
            refs = schedule.window(times[i], N, Ts)
            d = controller_step(state, states[i], refs)
            controls[i] = state.traj.us[0]
            states[i + 1] = intg.integrate_batch(model, states[i],
                                                 controls[i], plant_integ)[0]
            ref_windows[i] = refs.xs
            for name in _DIAG_COLUMNS:
                diag[name][i] = getattr(d, name)
            done = i + 1
    except (NMPCError, np.linalg.LinAlgError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
    return SimulationLog(
        t_s=Ts, times=times[:done], states=states[:done + 1],
        controls=controls[:done], ref_windows=ref_windows[:done],
        diag={name: col[:done] for name, col in diag.items()},
        failed=bool(reason), failure_reason=reason)


# ---------------------------------------------------------------------------
# stabilizing time and chain trials

def stabilizing_time(log: SimulationLog, threshold: float,
                     cap: float) -> float:
    """Earliest time from which the control stays below ``threshold``
    in infinity norm; ``cap`` when that never happens or the run failed."""
    if log.failed:
        return float(cap)
    exceed = np.flatnonzero(np.abs(log.controls).max(axis=1) >= threshold)
    if exceed.size == 0:
        return 0.0
    last = exceed[-1]
    if last == log.n_instants - 1:
        return float(cap)
    return float(log.times[last] + log.t_s)


@dataclass
class TrialSummary:
    """Aggregate of randomized closed-loop trials for one scheme."""

    scheme: str
    seed: int
    t_st: np.ndarray
    failed: np.ndarray
    cap: float
    logs: List[SimulationLog]

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


def randomized_chain_trials(scenario: ScenarioConfig) -> TrialSummary:
    """``scenario.trials`` closed loops from the perturbed starts of trials
    0, 1, ..., with their logs."""
    if scenario.model_kind != "chain":
        raise ConfigError("randomized trials are defined for chain scenarios")
    cap = scenario.duration
    logs = [closed_loop_simulate(scenario, perturbed_chain_state(scenario, i))
            for i in range(scenario.trials)]
    t_st = np.array([stabilizing_time(log, scenario.stabilize_threshold, cap)
                     for log in logs])
    # a loop with no instant has nothing to settle
    failed = np.array([log.failed or (log.n_instants > 0 and t >= cap)
                       for log, t in zip(logs, t_st)])
    return TrialSummary(scheme=scenario.scheme.scheme, seed=scenario.seed,
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
    n_u = log.controls.shape[1]
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
