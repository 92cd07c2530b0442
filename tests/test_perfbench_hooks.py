"""The benchmark in ``perfbench/`` patches nmpckit names from outside;
these tests fail when one of those names no longer resolves or is no
longer called through the namespace the benchmark patches."""
import os
import pathlib

import numpy as np

from conftest import SCENARIO_DIR
from nmpckit import harness

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_layer_calls_resolve_and_record(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    s = harness.load_scenario(SCENARIO_DIR / "pendulum_n40.yaml")
    s.duration = 0.15
    # without stored constants the loop computes them, which reaches the
    # spectrum layers
    s.scheme = s.scheme.with_constants(None, None)
    originals = [getattr(m, a) for m, a, _, _ in tracing.LAYER_CALLS]
    with tracing.Tracer(full=True) as tracer:
        tracer.begin_loop()
        tracer.wrap_model(s.model)
        log = harness.closed_loop_simulate(
            s, x0=np.array([0.05, 0.05, 0.0, 0.0]))
    assert not log.failed
    # a three-instant cmon loop from a perfect start, with its constants
    # computed first, reaches every layer
    recorded = {span.name for span in tracer.spans}
    for _, _, name, _ in tracing.LAYER_CALLS:
        assert name in recorded, name
    assert {tracing.RHS, tracing.JAC, tracing.PLANT} <= recorded
    assert [getattr(m, a) for m, a, _, _ in tracing.LAYER_CALLS] == originals


def test_probe_calls_resolve_in_harness(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # run.py pins the BLAS thread variables when imported
    monkeypatch.setattr(os, "environ", dict(os.environ))
    import run

    originals = {name: getattr(harness, name) for name in run.Probes.CALLS}
    with run.Probes():
        for name, fn in originals.items():
            assert getattr(harness, name) is not fn, name
    for name, fn in originals.items():
        assert getattr(harness, name) is fn, name


def test_traced_sweep_work_matches_log(monkeypatch):
    # the tracer reads each sweep's work from its arguments: the nodes of a
    # forward sweep, nodes x seeds of a reverse one; over the instants of a
    # chain cmon loop, which refreshes blocks and sweeps adjoints, those
    # counts must add up to the logged ones
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    s = harness.load_scenario(SCENARIO_DIR / "chain_n40.yaml")
    s.duration = 0.8
    with tracing.Tracer(full=True) as tracer:
        tracer.begin_loop()
        tracer.wrap_model(s.model)
        log = harness.closed_loop_simulate(
            s, harness.perturbed_chain_state(s, 0))
    assert not log.failed and log.n_instants == s.n_instants

    def traced(name):
        return sum(span.work for span in tracer.spans
                   if span.name == name and span.instant >= 0)

    blocks = log.diag["sens_blocks"].sum()
    seeds = log.diag["adjoint_seeds"].sum()
    assert blocks > 0 and seeds > 0
    assert traced("integrator.forward_sensitivity_batch") == blocks
    assert traced("integrator.adjoint_batch") == seeds
