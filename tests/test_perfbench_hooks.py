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
    originals = [getattr(m, a) for m, a, _, _ in tracing.LAYER_CALLS]
    with tracing.Tracer(full=True) as tracer:
        tracer.begin_loop()
        tracer.wrap_model(s.model)
        log = harness.closed_loop_simulate(
            s, x0=np.array([0.05, 0.05, 0.0, 0.0]))
    assert not log.failed
    # a three-instant cmon loop from a perfect start reaches every layer
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
