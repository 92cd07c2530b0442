"""Shared fixtures for the test suite."""
import pathlib

import numpy as np
import pytest

from nmpckit import integrator as intg
from nmpckit import models, transcription as trc
from nmpckit.cmon import SensitivityStore

SCENARIO_DIR = pathlib.Path(__file__).resolve().parents[1] / "scenarios"


@pytest.fixture(scope="session")
def pendulum():
    return models.make_pendulum_model()


@pytest.fixture(scope="session")
def chain():
    return models.make_chain_model()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def sensitivities(model, x, u, cfg):
    """End states and forward sensitivity blocks from one RK4 pass."""
    phi, stages = intg.integrate_batch(model, x, u, cfg)
    return phi, intg.forward_sensitivity_batch(model, stages, u, cfg)


def adjoint(model, x, u, cfg, seeds):
    """Adjoint rows ``seed^T dphi`` from one RK4 pass."""
    stages = intg.integrate_batch(model, x, u, cfg)[1]
    return intg.adjoint_batch(model, stages, u, cfg, seeds)


def fresh_store(model, traj, cfg):
    """Sensitivity store with every block exact at ``traj``."""
    N = traj.horizon
    store = SensitivityStore.empty(N, model.n_x, model.n_u)
    stages = intg.integrate_batch(model, traj.xs[:-1], traj.us, cfg)[1]
    store.refresh(model, traj, stages, cfg, np.ones(N, dtype=bool))
    return store


def assemble_qp(model, traj, mult, x_hat, refs, cfg, fresh=True):
    """Subproblem at ``traj`` with exact blocks in the equality rows.

    The gradient rows ``lam_{k+1}^T dphi_k`` come from those blocks, or
    with ``fresh=False`` from an adjoint sweep at every node.
    """
    N = traj.horizon
    store = fresh_store(model, traj, cfg)
    phis, stages = intg.integrate_batch(model, traj.xs[:-1], traj.us, cfg)
    lam_dphi = trc.exact_gradient_rows(model, stages, traj.us, cfg,
                                       mult.lam[1:],
                                       fresh_mask=np.full(N, fresh),
                                       blocks=store.blocks)
    return trc.build_qp(traj, mult, x_hat, store.blocks, model, refs, phis,
                        lam_dphi)
