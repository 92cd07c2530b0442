"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single pass/fail
line; the heavyweight closed-loop runs are shared through module-scoped
fixtures. Budgeted wall-clock limits are asserted alongside the numeric
checks.
"""
import dataclasses
import itertools
import sys
import time

import numpy as np
import pytest

from conftest import SCENARIO_DIR, adjoint, assemble_qp, build_n, \
    sensitivities, solve_dense, stack_perturbation, wml_order
from nmpckit import cmon as cm
from nmpckit import integrator as intg
from nmpckit import models, perturbation as pert, qp_solver
from nmpckit import transcription as trc
from nmpckit.cmon import CMoNConfig
from nmpckit.harness import closed_loop_simulate, load_scenario, \
    randomized_chain_trials
from nmpckit.schemes import OCProblem, SchemeConfig, sqp_solve
from nmpckit.transcription import Multipliers, References, Trajectory


_CAPTURE = None


@pytest.fixture(autouse=True)
def _passthrough_capture(capfd):
    # let _report lines bypass output capture so every criterion shows
    # one pass/fail line in the live pytest stream
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail
                                                     else "")
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _scenario(name, scheme=None, track_dto=False, duration=None, **cmon_kw):
    s = load_scenario(SCENARIO_DIR / f"{name}.yaml")
    sch = s.scheme
    if scheme is not None:
        sch = dataclasses.replace(sch, scheme=scheme)
    if track_dto:
        sch = dataclasses.replace(sch, track_dto=True)
    if cmon_kw:
        sch = dataclasses.replace(sch,
                                  cmon=dataclasses.replace(sch.cmon,
                                                           **cmon_kw))
    s.scheme = sch
    if duration is not None:
        s.duration = duration
    return s


# ---------------------------------------------------------------------------
# shared runs

@pytest.fixture(scope="module")
def pendulum_runs():
    out = {}
    for name in ("pendulum_n40", "pendulum_n120"):
        t0 = time.perf_counter()
        log_cmon = closed_loop_simulate(_scenario(name, track_dto=True))
        dto_seconds = time.perf_counter() - t0
        log_rti = closed_loop_simulate(_scenario(name, scheme="rti"))
        assert not log_cmon.failed and not log_rti.failed
        out[name] = {"cmon": log_cmon, "rti": log_rti,
                     "dto_seconds": dto_seconds,
                     "scenario": _scenario(name)}
    return out


@pytest.fixture(scope="module")
def chain_trials():
    runs, elapsed = {}, {}
    for name in ("chain_n40", "chain_n80"):
        for kind in ("rti", "cmon", "adj"):
            keep = name == "chain_n40" and kind in ("rti", "cmon")
            t0 = time.perf_counter()
            runs[name, kind] = randomized_chain_trials(
                _scenario(name, scheme=kind), keep_logs=keep)
            elapsed[name, kind] = time.perf_counter() - t0
    return runs, elapsed


def _swing_up_problem():
    model = models.make_pendulum_model(
        stage_weights=np.array([20.0, 20.0, 0.2, 0.2, 0.1]))
    N = 40
    integ = intg.IntegratorConfig(dt=0.05, substeps=4)
    refs = References(np.zeros((N + 1, 4)), np.zeros((N, 1)))
    ocp = OCProblem(model=model, integ=integ,
                    x_hat=np.array([0.0, np.pi, 0.0, 0.0]), refs=refs)
    # crude interpolated guess, pulled into the convergence basin by a few
    # fully-updated iterations
    xs = np.zeros((N + 1, 4))
    xs[:, 1] = np.pi * (1.0 - np.arange(N + 1) / N)
    crude = Trajectory(xs, np.zeros((N, 1)))
    warm = sqp_solve(ocp, crude, Multipliers.zeros(N, 4, model.n_r),
                     SchemeConfig("rti", qp_tol=1e-8), tol=1e-12, max_iter=10)
    return ocp, warm.traj, warm.mult


@pytest.fixture(scope="module")
def swing_up():
    t0 = time.perf_counter()
    ocp, traj0, mult0 = _swing_up_problem()
    runs = {}
    runs["exact"] = sqp_solve(ocp, traj0, mult0,
                              SchemeConfig("rti", qp_tol=1e-8), tol=1e-6)
    for label, cfg in (
            ("zero", CMoNConfig(eps_abs=0.0, eps_rel=0.0)),
            ("s1", CMoNConfig(eps_abs=1e-2, eps_rel=1e-2)),
            ("s2", CMoNConfig(eps_abs=1e-1, eps_rel=1e-1))):
        runs[label] = sqp_solve(ocp, traj0, mult0,
                                SchemeConfig("cmon", qp_tol=1e-8, cmon=cfg),
                                tol=1e-6)
    seconds = time.perf_counter() - t0
    return ocp, traj0, mult0, runs, seconds


# ---------------------------------------------------------------------------
# criteria

def test_01_dto_bound_coverage(pendulum_runs):
    details = []
    ok = True
    budget = 0.0
    for name, runs in pendulum_runs.items():
        d = runs["cmon"].diag
        e, ebar = d["dto_e"], d["dto_ebar"]
        match = d["dto_active_match"] > 0.5
        valid = np.isfinite(e)
        held = (e <= ebar)[valid]
        frac = held.mean()
        matched_ok = bool(np.all((e <= ebar)[valid & match]))
        budget += runs["dto_seconds"]
        ok &= frac >= 0.99 and matched_ok
        details.append(f"{name} bound held {frac:.4f}, matched rows "
                       f"{'all' if matched_ok else 'violated'}")
    ok &= budget <= 120.0
    _report("dto bound coverage", ok,
            "; ".join(details) + f"; oracle runs {budget:.1f}s")


def test_02a_zero_tolerance_matches_standard(pendulum_runs):
    t0 = time.perf_counter()
    rti = closed_loop_simulate(_scenario("pendulum_n40", scheme="rti",
                                         duration=6.0))
    zero = closed_loop_simulate(_scenario("pendulum_n40", duration=6.0,
                                          eps_abs=0.0, eps_rel=0.0))
    dev = max(np.abs(rti.states - zero.states).max(),
              np.abs(rti.controls - zero.controls).max())
    seconds = time.perf_counter() - t0
    _report("identity: zero-tolerance partial update = standard",
            dev <= 1e-10 and seconds <= 60.0,
            f"max deviation {dev:.3e}, {seconds:.1f}s")


def test_02b_multilevel_one_matches_standard():
    t0 = time.perf_counter()
    rti = closed_loop_simulate(_scenario("pendulum_n40", scheme="rti",
                                         duration=6.0))
    s = _scenario("pendulum_n40", scheme="ml", duration=6.0)
    s.scheme = dataclasses.replace(s.scheme, ml_interval=1)
    ml = closed_loop_simulate(s)
    same = (np.array_equal(rti.states, ml.states)
            and np.array_equal(rti.controls, ml.controls))
    seconds = time.perf_counter() - t0
    _report("identity: interval-1 multilevel = standard",
            same and seconds <= 60.0,
            f"bit-identical {same}, {seconds:.1f}s")


def test_02c_unbounded_thresholds_match_frozen_jacobians():
    t0 = time.perf_counter()
    adj = closed_loop_simulate(_scenario("pendulum_n40", scheme="adj",
                                         duration=6.0))
    s = _scenario("pendulum_n40", duration=6.0,
                  threshold_mode="fixed", fixed_eta_pri=np.inf,
                  fixed_eta_dual=np.inf, min_update_fraction=0.0)
    frozen = closed_loop_simulate(s)
    same = (np.array_equal(adj.states, frozen.states)
            and np.array_equal(adj.controls, frozen.controls))
    seconds = time.perf_counter() - t0
    _report("identity: unbounded thresholds = frozen-jacobian scheme",
            same and seconds <= 60.0,
            f"bit-identical {same}, {seconds:.1f}s")


def test_03_control_performance_proximity(pendulum_runs):
    details = []
    ok = True
    for name, runs in pendulum_runs.items():
        dev = np.abs(runs["cmon"].states - runs["rti"].states).max()
        ok &= dev <= 1e-2
        details.append(f"{name} max state deviation {dev:.3e}")
    _report("control performance proximity", ok, "; ".join(details))


def test_04_horizon_scaling_of_updates(pendulum_runs):
    f40 = pendulum_runs["pendulum_n40"]["cmon"].diag["refresh_fraction"]
    f120 = pendulum_runs["pendulum_n120"]["cmon"].diag["refresh_fraction"]
    t40 = pendulum_runs["pendulum_n40"]["cmon"].times
    early = f40[t40 < 3.0 - 1e-9]
    ok = (f120.mean() < f40.mean()) and np.all(early == 0.0)
    _report("horizon scaling of updates", ok,
            f"mean fraction N=40 {f40.mean():.5f}, N=120 {f120.mean():.5f},"
            f" first 3s max {early.max():.3f}")


def test_05_adaptation_peaks(pendulum_runs):
    ok = True
    details = []
    for name, runs in pendulum_runs.items():
        log = runs["cmon"].diag["refresh_fraction"]
        times = runs["cmon"].times
        s = runs["scenario"]
        width = s.horizon * s.t_s
        hits = []
        for t0 in (5.0, 10.0, 15.0, 20.0):
            m = (times >= t0 - width - 1e-9) & (times <= t0 + 1e-9)
            idx = np.flatnonzero(m)
            j = idx[np.argmax(log[idx])]
            v = log[j]
            left = log[j - 1] if j > 0 else -np.inf
            right = log[j + 1] if j + 1 < log.size else -np.inf
            hits.append(v > 0 and v >= left and v >= right)
        ok &= all(hits)
        details.append(f"{name} peaks {hits}")
    _report("adaptation peaks follow reference switches", ok,
            "; ".join(details))


def test_06_chain_robustness(chain_trials):
    runs, elapsed = chain_trials
    ok = True
    details = []
    for name in ("chain_n40", "chain_n80"):
        rti, cmo = runs[name, "rti"], runs[name, "cmon"]
        adj = runs[name, "adj"]
        rti_ok = ~rti.failed
        cmon_fail_where_rti_ok = int(cmo.failed[rti_ok].sum())
        rel = abs(cmo.mean_t_st - rti.mean_t_st) / rti.mean_t_st
        ok &= cmon_fail_where_rti_ok == 0
        ok &= adj.n_failures >= cmo.n_failures
        ok &= rel <= 0.25
        details.append(
            f"{name}: fail rti/cmon/adj {rti.n_failures}/{cmo.n_failures}/"
            f"{adj.n_failures}, mean t_st rti {rti.mean_t_st:.2f} vs cmon "
            f"{cmo.mean_t_st:.2f} (rel {rel:.3f})")
    total = sum(elapsed.values())
    ok &= total <= 600.0
    _report("chain robustness", ok,
            "; ".join(details) + f"; trials {total:.0f}s")


def test_07_chain_kkt_behavior(chain_trials):
    runs, _ = chain_trials
    rti, cmo = runs["chain_n40", "rti"], runs["chain_n40", "cmon"]
    s_ml = _scenario("chain_n40", scheme="ml")
    s_ml.scheme = dataclasses.replace(s_ml.scheme, ml_interval=2)
    ml_summary = randomized_chain_trials(s_ml, keep_logs=True)
    # compare after the standard scheme's own settling point per seed
    worst_ratio = 0.0
    smoother = []
    for i in range(rti.t_st.size):
        if rti.failed[i] or cmo.failed[i] or ml_summary.failed[i]:
            continue
        tail = rti.logs[i].times >= rti.t_st[i] - 1e-9
        kkt_rti = rti.logs[i].diag["kkt"][tail]
        kkt_cmon = cmo.logs[i].diag["kkt"][tail]
        kkt_ml = ml_summary.logs[i].diag["kkt"][tail]
        worst_ratio = max(worst_ratio, float((kkt_cmon / kkt_rti).max()))
        smoother.append(np.std(np.diff(kkt_ml)) > np.std(np.diff(kkt_cmon)))
    ok = worst_ratio <= 10.0 and len(smoother) == 10 and all(smoother)
    _report("chain optimality-residual behavior", ok,
            f"worst cmon/rti ratio {worst_ratio:.2f}, interval-2 multilevel "
            f"rougher on {sum(smoother)}/{len(smoother)} seeds")


def test_08_swing_up_convergence(swing_up):
    ocp, traj0, mult0, runs, seconds = swing_up
    exact, zero = runs["exact"], runs["zero"]
    s1, s2 = runs["s1"], runs["s2"]
    dev = max(np.abs(zero.traj.xs - exact.traj.xs).max(),
              np.abs(zero.traj.us - exact.traj.us).max())
    ok = (zero.iterations == exact.iterations
          and exact.converged and zero.converged and s1.converged
          and s2.converged
          and s1.kkt_trace[-1] <= 1e-6 and s2.kkt_trace[-1] <= 1e-6
          and s1.iterations <= s2.iterations
          and s2.sens_blocks < s1.sens_blocks
          and dev <= 1e-10
          and seconds <= 60.0)
    _report("swing-up convergence trade-off", ok,
            f"iterations s1 {s1.iterations} <= s2 {s2.iterations}; "
            f"sensitivity blocks s2 {s2.sens_blocks} < s1 {s1.sens_blocks}; "
            f"zero-tolerance deviation {dev:.3e}; {seconds:.1f}s")


def test_09_partition_weight_insensitivity(swing_up):
    ocp, traj0, mult0, _, _ = swing_up
    iters = []
    for c1 in (0.05, 0.1, 0.5):
        cfg = SchemeConfig("cmon", qp_tol=1e-8, cmon=CMoNConfig(
            eps_abs=1e-2, eps_rel=1e-2, c1=c1))
        res = sqp_solve(ocp, traj0, mult0, cfg, tol=1e-6)
        assert res.converged
        iters.append(res.iterations)
    spread = max(iters) - min(iters)
    _report("partition-weight insensitivity", spread <= 2,
            f"iteration counts {iters}, spread {spread}")


# ---------------------------------------------------------------------------
# numerical kernels, checked self-contained against brute-force references

def _enumerate_qp(H, g, A, b, C, d):
    n, m_eq, m_in = H.shape[0], A.shape[0], C.shape[0]
    best = None
    for bits in itertools.product([False, True], repeat=m_in):
        act = np.flatnonzero(bits)
        KA = np.vstack([A, C[act]])
        K = np.block([[H, KA.T],
                      [KA, np.zeros((KA.shape[0], KA.shape[0]))]])
        try:
            sol = np.linalg.solve(K, np.concatenate([-g, b, d[act]]))
        except np.linalg.LinAlgError:
            continue
        x = sol[:n]
        z = np.zeros(m_in)
        z[act] = sol[n + m_eq:]
        if np.any(C @ x - d > 1e-9) or np.any(z[act] < -1e-9):
            continue
        val = 0.5 * x @ H @ x + g @ x
        if best is None or val < best[1] - 1e-12:
            best = (x, val)
    return best[0]


def _rollout_qp(rng, N=8):
    model = models.make_pendulum_model()
    cfg = intg.IntegratorConfig(dt=0.05, substeps=4)
    xs = np.empty((N + 1, 4))
    xs[0] = [0.0, 0.4, 0.0, 0.0]
    us = rng.uniform(-2.0, 2.0, (N, 1))
    for k in range(N):
        xs[k + 1] = intg.integrate_batch(model, xs[k], us[k], cfg)[0]
    traj = Trajectory(xs, us)
    return assemble_qp(model, traj, Multipliers.zeros(N, 4, model.n_r),
                       xs[0] + rng.uniform(-0.01, 0.01, 4),
                       trc.References(np.zeros((N + 1, 4)), np.zeros((N, 1))),
                       cfg)


def test_10_numerical_kernels():
    rng = np.random.default_rng(42)
    checks = {}

    # forward sensitivities vs central differences
    model = models.make_pendulum_model()
    cfg = intg.IntegratorConfig(dt=0.05, substeps=4)
    x0 = np.array([0.1, 0.6, -0.2, 0.4])
    u0 = np.array([3.0])
    _, S = sensitivities(model, x0[None], u0[None], cfg)
    S = S[0]
    h = 1e-6
    worst = 0.0
    for j in range(5):
        e = np.zeros(5)
        e[j] = h
        hi = intg.integrate_batch(model, x0 + e[:4], u0 + e[4:], cfg)[0]
        lo = intg.integrate_batch(model, x0 - e[:4], u0 - e[4:], cfg)[0]
        fd = (hi - lo) / (2 * h)
        worst = max(worst, np.abs(S[:, j] - fd).max()
                    / max(1.0, np.abs(fd).max()))
    checks["fd"] = worst <= 1e-6

    # adjoint vs forward products
    seeds = rng.standard_normal((1, 4, 4))
    rows = adjoint(model, x0[None], u0[None], cfg, seeds)
    diff = np.abs(rows[0] - seeds[0] @ S).max()
    checks["adjoint"] = diff <= 1e-10

    # structured QP solver vs brute-force enumeration on random dense QPs
    worst_qp = 0.0
    for seed in range(20):
        r = np.random.default_rng(1000 + seed)
        n = int(r.integers(2, 6))
        Q = r.standard_normal((n, n))
        H = Q.T @ Q + n * np.eye(n)
        g = r.standard_normal(n)
        A = r.standard_normal((1, n))
        C = r.standard_normal((4, n))
        x_f = r.standard_normal(n)
        b = A @ x_f
        d = C @ x_f + r.uniform(0.05, 1.0, 4)
        x_ref = _enumerate_qp(H, g, A, b, C, d)
        x, _, _, _ = solve_dense(H, g, A, b, C, d, tol=1e-10)
        worst_qp = max(worst_qp, float(np.linalg.norm(x - x_ref)
                                       / (1.0 + np.linalg.norm(x_ref))))
    checks["qp"] = worst_qp <= 1e-7

    # first-order solution-change prediction: order-2 residual decay
    qp = _rollout_qp(rng)
    sol = qp_solver.solve(qp, tol=1e-12)
    M = wml_order(qp, pert.build_m(qp, sol))
    Nmat = build_n(qp, sol)
    P0 = rng.standard_normal(qp.jacobian_blocks.shape)
    P0 /= np.abs(P0).max()
    p0 = stack_perturbation(P0)
    scales, resids = [], []
    for s in np.logspace(-4.0, -2.0, 6):
        qp_s = dataclasses.replace(qp,
                                   jacobian_blocks=qp.jacobian_blocks
                                   + s * P0)
        sol_s = qp_solver.solve(qp_s, tol=1e-12)
        if not np.array_equal(sol_s.active_set, sol.active_set):
            continue
        pred = np.linalg.solve(M, Nmat @ (s * p0))
        scales.append(s)
        resids.append(np.linalg.norm(sol_s.stacked() - sol.stacked()
                                     - pred))
    slope = np.polyfit(np.log(scales), np.log(resids), 1)[0]
    checks["slope"] = len(scales) >= 4 and slope >= 1.9

    # perturbation-matrix action identity
    P = rng.standard_normal(qp.jacobian_blocks.shape)
    p = stack_perturbation(P)
    dw_nodes = sol.dw[:qp.N * qp.n_wk].reshape(qp.N, qp.n_wk)
    dlam = sol.dlam.reshape(qp.N + 1, qp.n_x)
    expect = np.zeros(qp.n_w + qp.n_in + qp.n_eq)
    for k in range(qp.N):
        expect[k * qp.n_wk:(k + 1) * qp.n_wk] = -P[k].T @ dlam[k + 1]
        lo = qp.n_w + qp.n_in + (k + 1) * qp.n_x
        expect[lo:lo + qp.n_x] = -P[k] @ dw_nodes[k]
    checks["action"] = np.abs(Nmat @ p - expect).max() <= 1e-12

    # nonlinearity measures vanish for linear dynamics
    A_lin = rng.uniform(-0.6, 0.6, (3, 3))
    B_lin = rng.uniform(-0.5, 0.5, (3, 2))

    def lin_rhs(x, u):
        return np.asarray(x, float) @ A_lin.T + np.asarray(u, float) @ B_lin.T

    def lin_jacs(x, u):
        x, u = np.asarray(x, float), np.asarray(u, float)
        batch = np.broadcast_shapes(x[..., 0].shape, u[..., 0].shape)
        return (np.broadcast_to(A_lin, batch + (3, 3)).copy(),
                np.broadcast_to(B_lin, batch + (3, 2)).copy())

    lin = models.ModelSpec(n_x=3, n_u=2, rhs=lin_rhs,
                           rhs_jacobians=lin_jacs,
                           stage_weights=np.ones(5),
                           terminal_weights=np.ones(3))
    lcfg = intg.IntegratorConfig(dt=0.1, substeps=3)
    xl = rng.standard_normal((5, 3))
    ul = rng.standard_normal((5, 2))
    phi0, Sl = sensitivities(lin, xl, ul, lcfg)
    q = rng.standard_normal((5, 5))
    phi1 = intg.integrate_batch(lin, xl + q[:, :3], ul + q[:, 3:], lcfg)[0]
    kappa = cm.primal_cmon(phi1, phi0,
                           np.einsum('kxw,kw->kx', Sl, q))
    checks["linear"] = kappa.max() <= 1e-12

    ok = all(checks.values())
    _report("numerical kernels", ok,
            ", ".join(f"{k}={'ok' if v else 'FAIL'}"
                      for k, v in checks.items()))
