"""Spans recorded from outside the program, around its public functions.

A :class:`Tracer` replaces module attributes of :mod:`nmpckit` (and the
``rhs``/``rhs_jacobians`` callables of a model instance) by wrappers that
record one span per call: name, start, end, parent span, the controller
instant it belongs to, the closed loop it belongs to, and a work count
taken from the call's arguments or result. Spans stay in memory; the
caller writes them out when the run ends.

Two modes share the mechanism. The light mode, used for end-to-end
timing, records spans for ``controller_step`` only and counts model
evaluations without reading the clock. The full mode records every layer
boundary listed in :data:`LAYER_CALLS`.
"""

import time
from collections import namedtuple

import numpy as np

from nmpckit import harness, schemes
from nmpckit import integrator as intg

Span = namedtuple("Span", "name t0 t1 parent instant loop work")

CONTROLLER = "schemes.controller_step"
PLANT = "harness.plant_step"
RHS = "models.rhs"
JAC = "models.rhs_jacobians"


def _nodes(args, out):
    x = np.asarray(args[1])
    return x.shape[0] if x.ndim > 1 else 1


def _seeds(args, out):
    return int(np.prod(np.shape(args[4])[:-1]))


# (module, attribute, span name, work count from (args, result))
LAYER_CALLS = [
    (harness, "controller_step", CONTROLLER,
     lambda a, out: out.refresh_fraction),
    (harness, "perfect_horizon", "harness.perfect_horizon", None),
    (harness, "initialize_controller", "harness.initialize_controller", None),
    (intg, "integrate_batch", "integrator.integrate_batch", _nodes),
    (intg, "forward_sensitivity_batch", "integrator.forward_sensitivity_batch",
     _nodes),
    (intg, "adjoint_batch", "integrator.adjoint_batch", _seeds),
    (schemes, "build_qp", "transcription.build_qp", None),
    (schemes, "exact_gradient_rows", "transcription.exact_gradient_rows",
     None),
    (schemes, "solve", "qp_solver.solve", lambda a, out: out.iterations),
    (schemes, "primal_cmon", "cmon.primal_cmon", None),
    (schemes, "dual_cmon", "cmon.dual_cmon", None),
    (schemes, "adjoint_rows", "cmon.adjoint_rows", None),
    (schemes, "update_decision", "cmon.update_decision", None),
    (schemes, "thresholds", "cmon.thresholds", None),
    (schemes, "direction_vectors", "cmon.direction_vectors", None),
    (schemes, "conditioning_constants", "perturbation.conditioning_constants",
     None),
    (schemes, "build_m", "perturbation.build_m",
     lambda a, out: out.shape[0]),
]


class Tracer:
    """Installs wrappers on entry and restores the originals on exit."""

    def __init__(self, full: bool):
        self.full = full
        self.spans = []
        self.counts = {RHS: 0, JAC: 0}
        self._stack = []
        self._saved = []
        self.loop = -1
        self.instant = -1

    def __enter__(self):
        calls = LAYER_CALLS if self.full else \
            [c for c in LAYER_CALLS if c[2] == CONTROLLER]
        for module, attr, name, work in calls:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, work))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def begin_loop(self):
        self.loop += 1
        self.instant = -1
        self.counts = {RHS: 0, JAC: 0}

    def wrap_model(self, model):
        """Wrap the model callables of one loaded scenario."""
        if self.full:
            model.rhs = self._wrap(RHS, model.rhs, None)
            model.rhs_jacobians = self._wrap(JAC, model.rhs_jacobians, None)
        else:
            model.rhs = self._count(RHS, model.rhs)
            model.rhs_jacobians = self._count(JAC, model.rhs_jacobians)

    def _count(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _wrap(self, name, fn, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        controller = name == CONTROLLER
        # a horizon pass outside any controller span is the plant step
        integrate = name == "integrator.integrate_batch"

        def wrapped(*args, **kwargs):
            if controller:
                self.instant += 1
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            out = None
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                plant = integrate and parent < 0 and self.instant >= 0
                count = 0 if work is None or out is None else work(args, out)
                spans[idx] = Span(PLANT if plant else name, t0, t1, parent,
                                  self.instant, self.loop, count)
            return out
        return wrapped


def self_times(spans):
    """Per-span duration minus the time covered by its direct children."""
    own = np.array([s.t1 - s.t0 for s in spans])
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.t1 - s.t0
    return own
