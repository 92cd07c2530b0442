"""Plant model tests: frozen dynamics values, Jacobians, constraints."""
import numpy as np
import numpy.testing as npt
import pytest

from conftest import adjoint, assemble_qp, sensitivities
from nmpckit import integrator as intg
from nmpckit import models, transcription as trc
from nmpckit.errors import ModelEvaluationError, SingularGeometryError

# cart-pendulum accelerations derived independently from the Lagrangian
# of the cart/bob system (bob at p - l*sin(theta), height l*cos(theta)),
# evaluated symbolically and frozen here.
PEND_POINTS = [
    # (state, force, pddot, thetaddot)
    ((0.3, 0.5, -0.4, 1.2), 3.5, 3.770839387433823, 10.015484279760662),
    ((0.3, -1.1, 0.9, -3.0), 20.0, 18.755449211792786, -0.2941814801738371),
]


def test_pendulum_rhs_frozen_values(pendulum):
    for state, force, pdd, tdd in PEND_POINTS:
        x = np.array(state)
        out = pendulum.rhs(x, np.array([force]))
        npt.assert_allclose(out, [x[2], x[3], pdd, tdd], rtol=0, atol=1e-12)


def test_pendulum_upright_rest_is_equilibrium(pendulum):
    out = pendulum.rhs(np.zeros(4), np.zeros(1))
    npt.assert_array_equal(out, np.zeros(4))


def test_pendulum_hanging_rest_is_equilibrium(pendulum):
    out = pendulum.rhs(np.array([0.0, np.pi, 0.0, 0.0]), np.zeros(1))
    npt.assert_allclose(out, np.zeros(4), atol=1e-14)


def _fd_jacobians(rhs, x, u, h=1e-6):
    n_x, n_u = x.size, u.size
    fx = np.empty((n_x, n_x))
    fu = np.empty((n_x, n_u))
    for j in range(n_x):
        e = np.zeros(n_x)
        e[j] = h
        fx[:, j] = (rhs(x + e, u) - rhs(x - e, u)) / (2 * h)
    for j in range(n_u):
        e = np.zeros(n_u)
        e[j] = h
        fu[:, j] = (rhs(x, u + e) - rhs(x, u - e)) / (2 * h)
    return fx, fu


def test_pendulum_jacobians_match_fd(pendulum, rng):
    for _ in range(5):
        x = rng.uniform(-1.0, 1.0, 4)
        u = rng.uniform(-5.0, 5.0, 1)
        fx, fu = pendulum.rhs_jacobians(x, u)
        fx_fd, fu_fd = _fd_jacobians(pendulum.rhs, x, u)
        npt.assert_allclose(fx, fx_fd, rtol=1e-6, atol=1e-6)
        npt.assert_allclose(fu, fu_fd, rtol=1e-6, atol=1e-6)


def test_pendulum_rhs_broadcasts(pendulum, rng):
    xs = rng.uniform(-1.0, 1.0, (7, 4))
    us = rng.uniform(-5.0, 5.0, (7, 1))
    batch = pendulum.rhs(xs, us)
    rows = np.stack([pendulum.rhs(xs[i], us[i]) for i in range(7)])
    npt.assert_array_equal(batch, rows)
    fx, fu = pendulum.rhs_jacobians(xs, us)
    assert fx.shape == (7, 4, 4) and fu.shape == (7, 4, 1)
    fx0, fu0 = pendulum.rhs_jacobians(xs[0], us[0])
    npt.assert_array_equal(fx[0], fx0)
    npt.assert_array_equal(fu[0], fu0)


def _qp_bound_rows(model, x, u):
    """``build_qp``'s inequality rows of the one-node trajectory (x, u)."""
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    traj = trc.Trajectory(np.stack([x, x]), u[None])
    refs = trc.References(np.zeros((2, model.n_x)), np.zeros((1, model.n_u)))
    qp = assemble_qp(model, traj, trc.Multipliers.zeros(1, model.n_x,
                                                        model.n_r),
                     x, refs, intg.IntegratorConfig(dt=0.05, substeps=1))
    return qp.ineq_values[0]


def _selection(n_w, rows):
    """Explicit +-1 selection: row r reads component rows[r][0] with
    sign rows[r][1]."""
    C = np.zeros((len(rows), n_w))
    for r, (i, sign) in enumerate(rows):
        C[r, i] = sign
    return C


def test_pendulum_path_constraint_rows(pendulum):
    # box rows |p| <= 1, |F| <= 20 in the r <= 0 convention
    C = _selection(5, [(0, 1.0), (0, -1.0), (4, 1.0), (4, -1.0)])
    limits = np.array([1.0, 1.0, 20.0, 20.0])
    for x, u in (([0.4, 0.0, 0.0, 0.0], [-3.0]),
                 ([0.2, 0.1, -0.3, 0.5], [4.0])):
        r = _qp_bound_rows(pendulum, x, u)
        assert r.shape == (pendulum.n_r,)
        assert np.all(r < 0)
        npt.assert_array_equal(r, C @ np.concatenate([x, u]) - limits)
    r_hit = _qp_bound_rows(pendulum, [1.0, 0.0, 0.0, 0.0], [20.0])
    assert np.isclose(r_hit.max(), 0.0)


def test_pendulum_rejects_nonfinite(pendulum):
    # the model callables check no finiteness; the RK4 pass that every
    # sensitivity kernel reads rejects a non-finite state before
    # evaluating the model
    from nmpckit import integrator as intg

    cfg = intg.IntegratorConfig(dt=0.05, substeps=4)
    x = np.array([0.0, np.nan, 0.0, 0.0])
    u = np.zeros(1)
    for call in (lambda: intg.integrate_batch(pendulum, x, u, cfg),
                 lambda: sensitivities(pendulum, x, u, cfg),
                 lambda: adjoint(pendulum, x, u, cfg, np.ones((1, 4)))):
        with pytest.raises(ModelEvaluationError):
            call()


# ---------------------------------------------------------------------------
# chain


def _chain_rhs_reference(x, u, par):
    """Plain per-spring reimplementation of the chain dynamics."""
    n = par.n
    pts = [np.asarray(par.anchor, dtype=float)]
    for i in range(n):
        pts.append(np.asarray(x[3 * i:3 * i + 3], dtype=float))
    forces = []
    for a, b in zip(pts[:-1], pts[1:]):
        d = b - a
        r = np.linalg.norm(d)
        mag = par.D * (1.0 - par.L / r) + par.D1 * (r - par.L) ** 3 / r
        forces.append(mag * d)
    out = np.empty(par.n_x)
    out[:3 * (n - 1)] = x[3 * n:]
    out[3 * (n - 1):3 * n] = u
    for i in range(1, n):
        acc = (forces[i] - forces[i - 1]) / par.m - par.g
        out[3 * n + 3 * (i - 1):3 * n + 3 * i] = acc
    return out


def test_chain_rhs_matches_reference(chain, rng):
    par = chain.meta["params"]
    x_ss = models.chain_steady_state(par, [1.0, 0.0, 0.0])
    for _ in range(4):
        x = x_ss + rng.uniform(-0.2, 0.2, par.n_x)
        u = rng.uniform(-1.0, 1.0, 3)
        npt.assert_allclose(chain.rhs(x, u), _chain_rhs_reference(x, u, par),
                            rtol=1e-12, atol=1e-12)


def _chain_first_formulas(x, u, par):
    """``chain_rhs`` and ``chain_jacobians`` as first written, and the
    spring factors psi: the norm through ``np.linalg.norm``, ``G = psi*I +
    (psip/r) d d^T`` by broadcasting, and the blocks placed per mass."""
    n, n_x = par.n, par.n_x
    batch = np.broadcast(x[..., 0], u[..., 0]).shape
    pts = np.empty(batch + (n + 1, 3))
    pts[..., 0, :] = par.anchor
    pts[..., 1:, :] = x[..., :3 * n].reshape(x.shape[:-1] + (n, 3))
    d = pts[..., 1:, :] - pts[..., :-1, :]
    r = np.linalg.norm(d, axis=-1)
    D, D1, L = par.D, par.D1, par.L
    psi = D * (1.0 - L / r) + D1 * (r - L) ** 3 / r
    force = psi[..., None] * d
    f = np.empty(batch + (n_x,))
    f[..., :3 * (n - 1)] = x[..., 3 * n:]
    f[..., 3 * (n - 1):3 * n] = u
    f[..., 3 * n:] = ((force[..., 1:, :] - force[..., :-1, :]) / par.m
                      - par.g).reshape(batch + (-1,))
    psip = D * L / r ** 2 + D1 * (r - L) ** 2 * (2.0 * r + L) / r ** 2
    G = psi[..., None, None] * np.eye(3) + (psip / r)[..., None, None] * (
        d[..., :, None] * d[..., None, :])
    fx = np.zeros(batch + (n_x, n_x))
    fu = np.zeros(batch + (n_x, 3))
    for i in range(3 * (n - 1)):
        fx[..., i, 3 * n + i] = 1.0
    fu[..., 3 * (n - 1):3 * n, :] = np.eye(3)
    inv_m = 1.0 / par.m
    for i in range(n - 1):
        rows = slice(3 * n + 3 * i, 3 * n + 3 * i + 3)
        fx[..., rows, 3 * i:3 * i + 3] = \
            -(G[..., i + 1, :, :] + G[..., i, :, :]) * inv_m
        fx[..., rows, 3 * i + 3:3 * i + 6] = G[..., i + 1, :, :] * inv_m
        if i:
            fx[..., rows, 3 * i - 3:3 * i] = G[..., i, :, :] * inv_m
    return f, fx, fu, psi


def test_chain_model_matches_first_formulas(chain, rng):
    # a (40, 16) stage batch, as stage_jacobians evaluates it, with
    # stretched and compressed springs (psi < 0) and planar nodes whose
    # y-elongations are exact zeros. chain_rhs equals the first formulas
    # byte for byte. chain_jacobians equals them as numbers; the sign of an
    # exact zero off the diagonal of G may differ, because G no longer adds
    # psi*0 there: where d_i d_j is -0, G_ij is now -0 and was +0
    par = chain.meta["params"]
    x_ss = models.chain_steady_state(par, [1.0, 0.0, 0.0])
    xs = x_ss + rng.uniform(-0.2, 0.2, (40, 16, par.n_x))
    xs[::5, :, 1::3] = 0.0
    us = rng.uniform(-1.0, 1.0, (40, 1, 3))
    f, fx, fu, psi = _chain_first_formulas(xs, us, par)
    assert (psi < 0).any() and (psi > 0).any()
    assert chain.rhs(xs, us).tobytes() == f.tobytes()
    got_fx, got_fu = chain.rhs_jacobians(xs, us)
    assert got_fu.tobytes() == fu.tobytes()
    npt.assert_array_equal(got_fx, fx)
    moved = got_fx.view(np.int64) != fx.view(np.int64)
    assert (fx[moved] == 0).all()


def test_chain_jacobians_match_fd(chain, rng):
    par = chain.meta["params"]
    x_ss = models.chain_steady_state(par, [1.0, 0.0, 0.0])
    x = x_ss + rng.uniform(-0.1, 0.1, par.n_x)
    u = rng.uniform(-1.0, 1.0, 3)
    fx, fu = chain.rhs_jacobians(x, u)
    fx_fd, fu_fd = _fd_jacobians(chain.rhs, x, u)
    npt.assert_allclose(fx, fx_fd, rtol=2e-5, atol=2e-6)
    npt.assert_allclose(fu, fu_fd, rtol=1e-8, atol=1e-9)


@pytest.mark.parametrize("n", [2, 3])
def test_chain_jacobians_match_fd_short_chains(n, rng):
    # the Jacobian's block pattern is laid out per chain length
    par = models.ChainParams(n=n)
    chain = models.make_chain_model(par)
    x = models.chain_steady_state(par, [0.3 * n, 0.0, 0.0])
    x = x + rng.uniform(-0.05, 0.05, par.n_x)
    u = rng.uniform(-1.0, 1.0, 3)
    fx, fu = chain.rhs_jacobians(x, u)
    fx_fd, fu_fd = _fd_jacobians(chain.rhs, x, u)
    npt.assert_allclose(fx, fx_fd, rtol=2e-5, atol=2e-6)
    npt.assert_allclose(fu, fu_fd, rtol=1e-8, atol=1e-9)


def test_chain_rhs_broadcasts(chain, rng):
    # a (k, n_x) batch and the stage-shaped call of stage_jacobians, x
    # (k, m, n_x) with u (k, 1, n_u), equal the unbatched rows bit for bit
    par = chain.meta["params"]
    k, m = 3, 4
    xs = models.chain_steady_state(par, [1.0, 0.0, 0.0]) \
        + rng.uniform(-0.2, 0.2, (k, m, par.n_x))
    us = rng.uniform(-1.0, 1.0, (k, 1, 3))
    rows = [(chain.rhs(xs[i, j], us[i, 0]),)
            + chain.rhs_jacobians(xs[i, j], us[i, 0])
            for i in range(k) for j in range(m)]
    xf, uf = xs.reshape(k * m, par.n_x), np.repeat(us[:, 0], m, axis=0)
    flat = (chain.rhs(xf, uf),) + chain.rhs_jacobians(xf, uf)
    staged = (chain.rhs(xs, us),) + chain.rhs_jacobians(xs, us)
    for out, want in zip(zip(flat, staged), zip(*rows)):
        want = np.stack(want)
        for got, batch in zip(out, [(k * m,), (k, m)]):
            assert got.shape == batch + want.shape[1:]
            npt.assert_array_equal(got.reshape(want.shape), want)


def test_chain_single_spring_by_hand():
    # n=2: one free mass between the anchor and the driven end point
    par = models.ChainParams(n=2)
    x = np.zeros(par.n_x)
    x[0:3] = [0.5, 0.0, 0.0]      # mass
    x[3:6] = [1.0, 0.0, 0.0]      # end point
    u = np.array([0.1, -0.2, 0.0])

    def mag(r):
        return par.D * (1 - par.L / r) + par.D1 * (r - par.L) ** 3 / r

    f1 = mag(0.5) * np.array([0.5, 0.0, 0.0])
    f2 = mag(0.5) * np.array([0.5, 0.0, 0.0])
    acc = (f2 - f1) / par.m - par.g
    out = models.chain_rhs(x, u, par)
    npt.assert_array_equal(out[0:3], np.zeros(3))
    npt.assert_array_equal(out[3:6], u)
    npt.assert_allclose(out[6:9], acc, rtol=1e-14)
    # spring force magnitude at this elongation, frozen from the law
    assert np.isclose(mag(0.5), 0.3409826, atol=1e-9)


def test_chain_rest_length_spring_is_slack():
    par = models.ChainParams(n=2)
    x = np.zeros(par.n_x)
    x[0:3] = [par.L, 0.0, 0.0]
    x[3:6] = [2 * par.L, 0.0, 0.0]
    out = models.chain_rhs(x, np.zeros(3), par)
    # both springs at rest length: acceleration is -g alone
    npt.assert_allclose(out[6:9], -par.g, rtol=0, atol=1e-15)


def test_chain_steady_state_balance(chain):
    par = chain.meta["params"]
    x_ss = models.chain_steady_state(par, [1.0, 0.0, 0.0])
    assert x_ss.shape == (par.n_x,)
    npt.assert_array_equal(x_ss[3 * par.n:], np.zeros(3 * (par.n - 1)))
    npt.assert_array_equal(x_ss[3 * (par.n - 1):3 * par.n], [1.0, 0.0, 0.0])
    out = chain.rhs(x_ss, np.zeros(3))
    assert np.abs(out).max() < 1e-8


def test_chain_coincident_points_raise():
    par = models.ChainParams(n=2)
    x = np.zeros(par.n_x)
    x[0:3] = [0.5, 0.0, 0.0]
    x[3:6] = [0.5, 0.0, 0.0]      # end point on top of the mass
    with pytest.raises(SingularGeometryError):
        models.chain_rhs(x, np.zeros(3), par)


def test_chain_control_constraint(chain):
    n_x = chain.n_x
    x = models.chain_steady_state(chain.meta["params"], [1.0, 0.0, 0.0])
    u = np.array([0.3, -1.0, 0.9])
    r = _qp_bound_rows(chain, x, u)
    assert r.shape == (6,)
    C = _selection(n_x + 3, [(n_x + j, s) for j in range(3)
                             for s in (1.0, -1.0)])
    npt.assert_array_equal(r, C @ np.concatenate([x, u]) - 1.0)
    assert np.isclose(r.max(), 0.0)    # the -1 component sits on the bound
    assert np.all(r <= 1e-15)


def test_model_spec_validates_weights():
    with pytest.raises(ValueError):
        models.make_pendulum_model(stage_weights=[1.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        models.make_pendulum_model(
            stage_weights=[-1.0, 1.0, 1.0, 1.0, 1.0])


@pytest.mark.parametrize("index, limit", [
    ([0, 0], [1.0, 2.0]),      # one component bounded twice
    ([5], [1.0]),              # past the end of (x, u)
    ([0, 4], [1.0]),           # unpaired limit
])
def test_model_spec_validates_bounds(pendulum, index, limit):
    with pytest.raises(ValueError):
        models.ModelSpec(n_x=4, n_u=1, rhs=pendulum.rhs,
                         rhs_jacobians=pendulum.rhs_jacobians,
                         stage_weights=np.ones(5),
                         terminal_weights=np.ones(4),
                         bound_index=index, bound_limit=limit)


def test_pendulum_mass_matrix_never_degenerates(pendulum):
    # the shared denominator m2 + m1*sin(theta)^2 stays >= m2 at any angle
    par = pendulum.meta["params"]
    theta = np.linspace(-2 * np.pi, 2 * np.pi, 181)
    denom = par.m2 + par.m1 - par.m1 * np.cos(theta) ** 2
    assert denom.min() >= par.m2 - 1e-15
    xs = np.zeros((theta.size, 4))
    xs[:, 1] = theta
    xs[:, 2] = 2.0
    xs[:, 3] = -3.0
    out = pendulum.rhs(xs, np.full((theta.size, 1), 15.0))
    assert np.all(np.isfinite(out))


def test_chain_translation_equivariance(chain, rng):
    # moving the anchor and every mass by one common offset leaves the
    # spring geometry, and so the whole vector field, unchanged
    import dataclasses

    par = chain.meta["params"]
    shift = rng.uniform(-0.7, 0.7, 3)
    shifted = models.make_chain_model(
        dataclasses.replace(par, anchor=par.anchor + shift))
    x = models.chain_steady_state(par, [1.0, 0.0, 0.0])
    x = x + rng.uniform(-0.15, 0.15, par.n_x)
    u = rng.uniform(-1.0, 1.0, 3)
    x2 = x.copy()
    x2[:3 * par.n] += np.tile(shift, par.n)
    npt.assert_allclose(shifted.rhs(x2, u), chain.rhs(x, u),
                        rtol=1e-12, atol=1e-12)
