"""Integrator tests: order of accuracy, sensitivity propagation, guards."""
import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from conftest import (adjoint, reference_adjoint,
                      reference_forward_sensitivity, reference_integrate,
                      sensitivities, split, stage_record)
from nmpckit import integrator as intg
from nmpckit import models
from nmpckit.errors import (IntegrationBlowupError, ModelEvaluationError,
                             SingularGeometryError)


def _scalar_linear_model(a=-0.7, b=1.3):
    def rhs(x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        return a * x + b * u

    def jacs(x, u, out):
        out[..., 0, 0] = a
        out[..., 0, 1] = b

    return models.ModelSpec(n_x=1, n_u=1, rhs=rhs, rhs_jacobians=jacs,
                            stage_weights=np.array([1.0, 0.1]),
                            terminal_weights=np.array([1.0]))


def _square_model():
    # x' = x^2, blows up in finite time from large states
    def rhs(x, u):
        return np.asarray(x, dtype=float) ** 2

    def jacs(x, u, out):
        out[..., 0, 0] = 2.0 * np.asarray(x, dtype=float)[..., 0]

    return models.ModelSpec(n_x=1, n_u=1, rhs=rhs, rhs_jacobians=jacs,
                            stage_weights=np.array([1.0, 0.0]),
                            terminal_weights=np.array([1.0]))


def test_fourth_order_convergence_on_linear_ode():
    a, b = -0.7, 1.3
    model = _scalar_linear_model(a, b)
    x0 = np.array([2.0])
    u = np.array([0.5])
    dt = 0.4
    # exact solution of x' = a x + b u with constant u
    exact = (x0 + b * u / a) * np.exp(a * dt) - b * u / a
    errs = []
    for sub in (1, 2, 4, 8):
        cfg = intg.IntegratorConfig(dt=dt, substeps=sub)
        phi = intg.integrate_batch(model, x0, u, cfg)[0]
        errs.append(np.abs(phi - exact).max())
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(rates > 3.9)


def test_forward_sensitivity_matches_fd(pendulum, rng):
    cfg = intg.IntegratorConfig(dt=0.05, substeps=4)
    x0 = rng.uniform(-0.5, 0.5, 4)
    u = rng.uniform(-5.0, 5.0, 1)
    _, S = sensitivities(pendulum, x0, u, cfg)
    h = 1e-6
    for j in range(5):
        e = np.zeros(5)
        e[j] = h
        hi = intg.integrate_batch(pendulum, x0 + e[:4], u + e[4:], cfg)[0]
        lo = intg.integrate_batch(pendulum, x0 - e[:4], u - e[4:], cfg)[0]
        fd = (hi - lo) / (2 * h)
        npt.assert_allclose(S[:, j], fd, rtol=1e-6, atol=1e-8)


def test_forward_sensitivity_exact_on_linear_model():
    # for linear dynamics the RK4 map is itself linear, so the sensitivity
    # block reproduces the map differences exactly
    model = _scalar_linear_model()
    cfg = intg.IntegratorConfig(dt=0.2, substeps=3)
    x0 = np.array([1.0])
    u = np.array([0.3])
    phi0, S = sensitivities(model, x0, u, cfg)
    dx, du = 0.37, -0.21
    phi1 = intg.integrate_batch(model, x0 + dx, u + du, cfg)[0]
    pred = phi0 + S @ np.array([dx, du])
    npt.assert_allclose(phi1, pred, rtol=1e-14)


def test_adjoint_matches_forward_products(pendulum, rng):
    cfg = intg.IntegratorConfig(dt=0.05, substeps=4)
    xs = rng.uniform(-0.5, 0.5, (6, 4))
    us = rng.uniform(-5.0, 5.0, (6, 1))
    _, S = sensitivities(pendulum, xs, us, cfg)
    seeds = rng.standard_normal((6, 3, 4))
    rows = adjoint(pendulum, xs, us, cfg, seeds)
    expect = np.einsum('nkx,nxw->nkw', seeds, S)
    npt.assert_allclose(rows, expect, rtol=0, atol=1e-10)


def test_adjoint_single_seed_variant(pendulum, rng):
    cfg = intg.IntegratorConfig(dt=0.05, substeps=4)
    x0 = rng.uniform(-0.5, 0.5, 4)
    u = rng.uniform(-5.0, 5.0, 1)
    seed = rng.standard_normal(4)
    row = adjoint(pendulum, x0, u, cfg, seed[None, :])[0]
    _, S = sensitivities(pendulum, x0, u, cfg)
    npt.assert_allclose(row, seed @ S, atol=1e-12)


def test_batch_matches_single_node(pendulum, rng):
    cfg = intg.IntegratorConfig(dt=0.05, substeps=4)
    xs = rng.uniform(-0.5, 0.5, (5, 4))
    us = rng.uniform(-5.0, 5.0, (5, 1))
    batch = intg.integrate_batch(pendulum, xs, us, cfg)[0]
    rows = np.stack([intg.integrate_batch(pendulum, xs[i], us[i], cfg)[0]
                     for i in range(5)])
    npt.assert_array_equal(batch, rows)


def test_substep_refinement_shrinks_error(pendulum):
    # the 4x-substep plant is closer to a fine reference than the
    # controller-grade integrator, and both are already very accurate
    x0 = np.array([0.2, 0.6, -0.4, 1.0])
    u = np.array([6.0])
    ref = intg.integrate_batch(pendulum, x0, u,
                               intg.IntegratorConfig(dt=0.05, substeps=64))[0]
    err4 = np.abs(intg.integrate_batch(
        pendulum, x0, u, intg.IntegratorConfig(dt=0.05, substeps=4))[0] - ref)
    err16 = np.abs(intg.integrate_batch(
        pendulum, x0, u, intg.IntegratorConfig(dt=0.05, substeps=16))[0]
        - ref)
    assert err16.max() < err4.max()
    assert err4.max() < 1e-7


# the four kernels, each reached from a state through the RK4 pass whose
# stage Jacobians the sensitivity sweeps read; one seed row for the adjoint
ENTRY_POINTS = {
    "integrate_batch": intg.integrate_batch,
    "stage_jacobians": stage_record,
    "forward_sensitivity_batch": sensitivities,
    "adjoint_batch": lambda m, x, u, cfg: adjoint(
        m, x, u, cfg, np.ones((1, m.n_x))),
}


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_blowup_raises(entry):
    model = _square_model()
    cfg = intg.IntegratorConfig(dt=1.0, substeps=2)
    with pytest.raises(IntegrationBlowupError):
        ENTRY_POINTS[entry](model, np.array([1e200]), np.zeros(1), cfg)


@pytest.mark.parametrize("bad", ["x-inf", "x-nan", "u-inf", "u-nan"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_nonfinite_entry_rejected(pendulum, entry, bad):
    # the model callables check nothing; the integrator rejects the input
    # before the first model call
    def never(*args):
        raise AssertionError("model evaluated on a rejected input")

    model = models.ModelSpec(n_x=4, n_u=1, rhs=never, rhs_jacobians=never,
                             stage_weights=pendulum.stage_weights,
                             terminal_weights=pendulum.terminal_weights)
    cfg = intg.IntegratorConfig(dt=0.05, substeps=4)
    x, u = np.zeros(4), np.zeros(1)
    where, value = bad.split("-")
    (x if where == "x" else u)[0] = float(value)
    with pytest.raises(ModelEvaluationError):
        ENTRY_POINTS[entry](model, x, u, cfg)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_coincident_chain_masses_raise_geometry_error(chain, entry):
    # the model's own geometry check reaches the caller untranslated
    x = models.chain_steady_state(chain.meta["params"], [1.0, 0.0, 0.0])
    x[3:6] = x[0:3]
    cfg = intg.IntegratorConfig(dt=0.2, substeps=2)
    with pytest.raises(SingularGeometryError):
        ENTRY_POINTS[entry](chain, x, np.zeros(3), cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        intg.IntegratorConfig(dt=0.0)
    with pytest.raises(ValueError):
        intg.IntegratorConfig(dt=0.1, substeps=0)


def test_adjoint_forward_consistency_many_inputs(pendulum, chain, rng):
    # the adjoint recursion and seed @ forward-block products agree on a
    # large randomized batch for both plants
    from nmpckit import models

    x_ss = models.chain_steady_state(chain.meta["params"], [1.0, 0.0, 0.0])
    cases = (
        (pendulum, intg.IntegratorConfig(dt=0.05, substeps=4),
         rng.uniform(-0.6, 0.6, (120, 4)), rng.uniform(-8.0, 8.0, (120, 1))),
        (chain, intg.IntegratorConfig(dt=0.2, substeps=2),
         x_ss + rng.uniform(-0.2, 0.2, (120, chain.n_x)),
         rng.uniform(-1.0, 1.0, (120, 3))),
    )
    for model, cfg, xs, us in cases:
        _, S = sensitivities(model, xs, us, cfg)
        seeds = rng.standard_normal((xs.shape[0], 1, model.n_x))
        rows = adjoint(model, xs, us, cfg, seeds)
        expect = np.einsum('nkx,nxw->nkw', seeds, S)
        npt.assert_allclose(rows, expect, rtol=0, atol=1e-10)


def test_adjoint_rows_independent_of_seed_company(pendulum, chain, rng):
    # a seed's rows are bit-identical whether it is swept alone, beside
    # another seed, or over a node subset: the closed loop takes the rows
    # of a shared two-seed sweep where another scheme sweeps one seed over
    # the stale nodes, and its identity gates compare the two bit for bit
    x_ss = models.chain_steady_state(chain.meta["params"], [1.0, 0.0, 0.0])
    cases = (
        (pendulum, intg.IntegratorConfig(dt=0.05, substeps=4),
         rng.uniform(-0.6, 0.6, (40, 4)), rng.uniform(-8.0, 8.0, (40, 1))),
        (chain, intg.IntegratorConfig(dt=0.2, substeps=4),
         x_ss + rng.uniform(-0.2, 0.2, (40, chain.n_x)),
         rng.uniform(-1.0, 1.0, (40, 3))),
    )
    for model, cfg, xs, us in cases:
        record = stage_record(model, xs, us, cfg)[1]
        jacs = split(model, record)
        a, b = rng.standard_normal((2, 40, model.n_x))
        both = intg.adjoint_batch(model, *jacs, cfg, np.stack([a, b], 1))
        for i, seed in enumerate((a, b)):
            alone = intg.adjoint_batch(model, *jacs, cfg, seed[:, None])
            npt.assert_array_equal(both[:, i], alone[:, 0])
        sub = np.arange(40) % 3 == 1
        part = intg.adjoint_batch(model, *split(model, record[sub]), cfg,
                                  b[sub][:, None])
        npt.assert_array_equal(both[sub, 1], part[:, 0])


def test_stage_record_selects_nodes(pendulum, rng):
    # stage states and their Jacobians are node-major, so a node subset of
    # the record equals the record of the subset, and sweeps over it equal
    # its rows
    cfg = intg.IntegratorConfig(dt=0.05, substeps=3)
    xs = rng.uniform(-0.5, 0.5, (7, 4))
    us = rng.uniform(-5.0, 5.0, (7, 1))
    _, stages = intg.integrate_batch(pendulum, xs, us, cfg)
    assert stages.shape == (7, 12, 4)
    npt.assert_array_equal(stages[:, 0], xs)
    mask = np.array([True, False, True, True, False, False, True])
    _, sub = intg.integrate_batch(pendulum, xs[mask], us[mask], cfg)
    npt.assert_array_equal(stages[mask], sub)
    out = np.zeros((7, 12, 4, 5))
    record = intg.stage_jacobians(pendulum, stages, us, out)
    assert record is out
    S = intg.forward_sensitivity_batch(pendulum, record, cfg)
    npt.assert_array_equal(
        intg.forward_sensitivity_batch(pendulum, record[mask], cfg),
        S[mask])


def test_forward_sweeps_over_node_subsets_equal_full_sweep(pendulum, chain,
                                                           rng):
    # a controller step writes the blocks of its masked nodes from a sweep
    # over that subset, and the distance-to-optimum oracle takes its exact
    # blocks from one sweep over every node; both agree bit for bit only
    # when a node's block rounds alike whichever nodes share the sweep
    x_ss = models.chain_steady_state(chain.meta["params"], [1.0, 0.0, 0.0])
    cases = (
        (pendulum, intg.IntegratorConfig(dt=0.05, substeps=4),
         rng.uniform(-0.6, 0.6, (40, 4)), rng.uniform(-8.0, 8.0, (40, 1))),
        (chain, intg.IntegratorConfig(dt=0.2, substeps=4),
         x_ss + rng.uniform(-0.2, 0.2, (40, chain.n_x)),
         rng.uniform(-1.0, 1.0, (40, 3))),
    )
    for model, cfg, xs, us in cases:
        record = stage_record(model, xs, us, cfg)[1]
        full = intg.forward_sensitivity_batch(model, record, cfg)
        parts = np.zeros_like(full)
        # three disjoint subsets: one node, a scattered third, the rest
        one = np.arange(40) == 17
        third = (np.arange(40) % 3 == 1) & ~one
        for mask in (one, third, ~(one | third)):
            parts[mask] = intg.forward_sensitivity_batch(
                model, record[mask], cfg)
        npt.assert_array_equal(parts, full)


@pytest.mark.parametrize("plant", ["pendulum", "chain"])
def test_sweeps_over_record_subset_equal_subset_record(plant, request, rng):
    # the closed loop sweeps a node subset of the instant's Jacobian
    # record; that must round exactly as a record built for the subset
    model = request.getfixturevalue(plant)
    cfg = intg.IntegratorConfig(dt=0.05, substeps=4)
    if plant == "chain":
        x_ss = models.chain_steady_state(model.meta["params"], [1.0, 0, 0])
        xs = x_ss + rng.uniform(-0.2, 0.2, (9, model.n_x))
    else:
        xs = rng.uniform(-0.5, 0.5, (9, model.n_x))
    us = rng.uniform(-1.0, 1.0, (9, model.n_u))
    seeds = rng.standard_normal((9, 2, model.n_x))
    mask = np.array([False, True, True, False, True, False, False, True,
                     False])
    whole = stage_record(model, xs, us, cfg)[1]
    alone = stage_record(model, xs[mask], us[mask], cfg)[1]
    part = whole[mask]
    npt.assert_array_equal(part, alone)
    npt.assert_array_equal(
        intg.forward_sensitivity_batch(model, part, cfg),
        intg.forward_sensitivity_batch(model, alone, cfg))
    npt.assert_array_equal(
        intg.adjoint_batch(model, *split(model, part), cfg, seeds[mask]),
        intg.adjoint_batch(model, *split(model, alone), cfg, seeds[mask]))


def _plant_batch(model, rng, k):
    """``k`` nodes around the plant's working point, and its integrator."""
    if model.n_x == 4:
        return (rng.uniform(-0.6, 0.6, (k, 4)), rng.uniform(-8.0, 8.0, (k, 1)),
                intg.IntegratorConfig(dt=0.05, substeps=4))
    x_ss = models.chain_steady_state(model.meta["params"], [1.0, 0.0, 0.0])
    return (x_ss + rng.uniform(-0.2, 0.2, (k, model.n_x)),
            rng.uniform(-1.0, 1.0, (k, 3)),
            intg.IntegratorConfig(dt=0.2, substeps=4))


@pytest.mark.parametrize("plant", ["pendulum", "chain"])
def test_integrate_batch_matches_textbook_rk4_bit_for_bit(plant, request,
                                                          rng):
    # the recurrence writes into its record in place; every stage state is
    # the one the right-hand side saw, and both outputs equal the allocating
    # recurrence byte for byte, batched and for one unbatched node
    model = request.getfixturevalue(plant)
    xs, us, cfg = _plant_batch(model, rng, 40)
    seen = []

    def rhs(x, u):
        seen.append(np.array(x))
        return model.rhs(x, u)

    spy = dataclasses.replace(model, rhs=rhs)
    for x, u in ((xs, us), (xs[7], us[7])):
        seen.clear()
        end, stages = intg.integrate_batch(spy, x, u, cfg)
        assert stages.shape == x.shape[:-1] + (4 * cfg.substeps, model.n_x)
        assert len(seen) == 4 * cfg.substeps
        for j, s in enumerate(seen):
            assert stages[..., j, :].tobytes() == s.tobytes()
        want_end, want_stages = reference_integrate(model, x, u, cfg)
        assert end.tobytes() == want_end.tobytes()
        assert stages.tobytes() == want_stages.tobytes()


@pytest.mark.parametrize("plant", ["pendulum", "chain"])
def test_forward_sweep_matches_textbook_rk4_bit_for_bit(plant, request, rng):
    # the sweep updates its work arrays in place; its blocks equal the
    # allocating variational RK4 byte for byte over every node, over a
    # node subset of the record, and for one unbatched node
    model = request.getfixturevalue(plant)
    xs, us, cfg = _plant_batch(model, rng, 40)
    record = stage_record(model, xs, us, cfg)[1]
    mask = np.arange(40) % 3 != 1
    single = stage_record(model, xs[5], us[5], cfg)[1]
    for rec in (record, record[mask], single):
        got = intg.forward_sensitivity_batch(model, rec, cfg)
        want = reference_forward_sensitivity(model, *split(model, rec), cfg)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("plant", ["pendulum", "chain"])
def test_in_place_kernels_leave_their_inputs_alone(plant, request, rng):
    model = request.getfixturevalue(plant)
    xs, us, cfg = _plant_batch(model, rng, 6)
    x_before, u_before = xs.copy(), us.copy()
    end, stages = intg.integrate_batch(model, xs, us, cfg)
    assert not np.shares_memory(stages, xs)
    assert not np.shares_memory(end, stages)
    npt.assert_array_equal(xs, x_before)
    npt.assert_array_equal(us, u_before)
    record = intg.stage_jacobians(model, stages, us, np.zeros(
        stages.shape[:-1] + (model.n_x, model.n_x + model.n_u)))
    record_before = record.copy()
    intg.forward_sensitivity_batch(model, record, cfg)
    assert record.tobytes() == record_before.tobytes()


@pytest.mark.parametrize("plant", ["pendulum", "chain"])
def test_reverse_sweep_over_record_views_matches_separate_records(
        plant, request, rng):
    # the reverse sweep reads f_x and f_u as views of the joint record;
    # its rows equal those of the sweep over separate contiguous f_x and
    # f_u records byte for byte, over every node and a node subset, for
    # one seed and for two
    model = request.getfixturevalue(plant)
    xs, us, cfg = _plant_batch(model, rng, 40)
    record = stage_record(model, xs, us, cfg)[1]
    mask = np.arange(40) % 3 != 1
    for rec in (record, record[mask]):
        fx, fu = (np.ascontiguousarray(a) for a in split(model, rec))
        for k in (1, 2):
            seeds = rng.standard_normal((rec.shape[0], k, model.n_x))
            got = intg.adjoint_batch(model, *split(model, rec), cfg, seeds)
            want = reference_adjoint(model, fx, fu, cfg, seeds)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
